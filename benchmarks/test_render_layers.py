"""Timings of the render layer alone: the CSV and JSON writers on tables a
command has already evaluated, one pytest-benchmark case each.  They sit
outside ``testpaths``, so tier-1 does not run them:

    PYTHONPATH=src python -m pytest benchmarks/test_render_layers.py

The tables, each captured once from ``cli.main`` on the way to its writer:

* a 64 x 64 vdW ``curvature-grid`` straddling the degeneracy locus, its
  rows the fields of each cell after the two axes;
* a 101-row vdW ``geodesic`` from the README start, (S, V, S', V') = (2.5,
  1.4, 0.05, 0.1), to t_end = 10.
"""
import contextlib
import io
import json

import pytest

from thermogeom import cli

VDW = ["--model", "vdw", "--a", "1.5", "--b", "0.2", "--r-gas", "2",
       "--cv", "2.5"]
COMMANDS = {
    "grid-64": ["curvature-grid", *VDW, "--smin", "0.5", "--smax", "2.5",
                "--vmin", "0.4", "--vmax", "1.3", "--n", "64"],
    "geodesic-101": ["geodesic", *VDW, "--start-s", "2.5", "--start-v", "1.4",
                     "--start-sdot", "0.05", "--start-vdot", "0.1"],
}
ROWS = {"grid-64": 64 * 64, "geodesic-101": 101}
RENDERERS = {"csv": cli._render_csv, "json": cli._render_json}


def _table(argv):
    """The arguments ``cli.main(argv)`` hands its writer, as
    (meta, columns, rows, notes, axes)."""
    seen = {}

    def capture(args, meta, columns, rows, svg, notes=None, axes=None):
        seen["table"] = (meta, columns, rows, notes, axes)

    emit, cli._emit_table = cli._emit_table, capture
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        cli._emit_table = emit
    return seen["table"]


@pytest.fixture(scope="module", params=list(COMMANDS))
def table(request):
    return request.param, _table(COMMANDS[request.param])


@pytest.mark.parametrize("fmt", list(RENDERERS))
def test_render(benchmark, table, fmt):
    name, (meta, columns, rows, notes, axes) = table
    text = benchmark(RENDERERS[fmt], meta, columns, rows, notes, axes)
    if fmt == "json":
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        body = doc["rows"]
    else:
        body = [line for line in text.splitlines()
                if not line.startswith("#")][1:]
    assert len(body) == ROWS[name]
    benchmark.extra_info["rows"] = len(body)
