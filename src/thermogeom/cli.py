"""Command-line front end.

Subcommands produce curvature grids, degeneracy-locus polylines,
critical-point reports, geodesic traces, Hessian-surface classifications,
and a verification suite, as CSV, JSON, or simple SVG.  Each command
takes only the flags it reads, each gas only the parameters it reads, and
a command loads only what it uses: ``locus`` and ``critical`` run on
floats alone, and the grids, ``surface``, ``verify`` and ``geodesic``
import numpy.  Output is deterministic: fixed float formatting, fixed row
order, and a metadata header carrying the library version and every flag
and parameter the run read (not the --out or --config path).

Exit codes: 0 success, 1 a bad request (flags, parameters, window, or a
state outside the domain) or one too large for memory, 2 verification
failure, 3 numeric failure.  A grid command marks a failing cell and
carries on: it exits 0 when any cell printed, and only when every cell
failed with the code and message of the first.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import re
import sys
from dataclasses import asdict

from . import __version__
from .critical_locus import (
    closed_form_critical_point,
    critical_point,
    degeneracy_locus,
)
from .curvature import (
    curvature_routes,
    pairwise_residual,
    ruppeiner_direct_curvature,
    ruppeiner_from_weinhold,
)
from .eos_models import (
    GASES,
    Chart,
    ConstantCv,
    GasParameters,
    IdealGas,
    StatePoint,
    VanDerWaals,
    choose,
    float_grid,
    hessian_jet,
    make_model,
    parse_config_text,
)
from .errors import (
    DOMAIN_ERRORS,
    STATE_ERRORS,
    DomainError,
    FrameSingular,
    NoCriticalPoint,
    NoRoot,
    SingularState,
    ThermogeomError,
)
from .geodesics import (
    GeodesicState,
    _speed,
    christoffel_elementary,
    christoffel_from_stack,
    integrate_geodesic,
)
from .hessian_surface import (
    hessian_point_from_metric,
    ideal_conic_residual,
    radial_pairing,
    vdw_surface_residual,
)
from .metric_core import (
    determinant_report,
    identity_residuals,
    signature_kind,
    weinhold_metric,
)

# every flag that some command reads, with its argparse keywords
_FLAGS = {
    "--chart": dict(choices=["sv", "tv"], default="sv"),
    "--smin": dict(type=float, default=1.0,
                   help="first-coordinate lower bound (S, or T for --chart "
                        "tv)"),
    "--smax": dict(type=float, default=3.0),
    "--vmin": dict(type=float, default=1.0),
    "--vmax": dict(type=float, default=4.0),
    "--n": dict(type=int, default=16, help="points per axis"),
    "--format": dict(choices=["csv", "json", "svg"], default="csv"),
    "--out": dict(help="output path (default: stdout)"),
}
_GRID_FLAGS = ("--chart", "--smin", "--smax", "--vmin", "--vmax", "--n",
               "--format", "--out")
# the keys each --model reads: a named gas its class's, the custom one these
_READS = {**{name: gas.reads for name, gas in GASES.items()},
          "custom": ("cv0", "u0", "f1", "f2")}
_MODEL_KEYS = {key for keys in _READS.values() for key in keys}


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; the contract wants 1.

    A negative number in exponent notation ("-1e-05") is a flag value, not
    an option name.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache  # parsing leaves no state in the parser
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thermogeom",
        description="Thermodynamic metric geometry toolkit")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")

    common = _Parser(add_help=False)
    grp = common.add_argument_group("model")
    grp.add_argument("--model", choices=list(_READS))
    grp.add_argument("--a", type=float, help="attraction parameter")
    grp.add_argument("--b", type=float, help="covolume")
    grp.add_argument("--r-gas", dest="r_gas", type=float, help="gas constant")
    grp.add_argument("--cv", dest="cv0", type=float,
                     help="constant-volume heat capacity")
    grp.add_argument("--f1", help="expression in V for the exponential-part "
                                  "factor of a custom constant-cv model")
    grp.add_argument("--f2", help="expression in V for the additive energy "
                                  "term of a custom constant-cv model")
    grp.add_argument("--config", help="key = value file; flags win on "
                                      "conflict")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def command(name, summary, *flags):
        """A subcommand that takes the model flags and ``flags``."""
        p = sub.add_parser(name, parents=[common], help=summary)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    command("curvature-grid", "determinant, curvature routes, and "
                              "signature on a state grid", *_GRID_FLAGS)

    p_locus = command("locus", "trace the degeneracy locus over volume",
                      "--vmin", "--vmax", "--n", "--format", "--out")
    p_locus.add_argument("--method", choices=["auto", "scan"], default="auto")

    p_crit = command("critical", "critical point with closed-form check",
                     "--out")
    p_crit.add_argument("--method", choices=["auto", "numeric"],
                        default="auto")

    p_geo = command("geodesic", "integrate one geodesic", "--format", "--out")
    p_geo.add_argument("--start-s", type=float, required=True)
    p_geo.add_argument("--start-v", type=float, required=True)
    p_geo.add_argument("--start-sdot", type=float, default=0.0)
    p_geo.add_argument("--start-vdot", type=float, default=0.0)
    p_geo.add_argument("--t-end", type=float, default=10.0)
    p_geo.add_argument("--tol", type=float, default=1e-10)
    p_geo.add_argument("--samples", type=int, default=101,
                       help="dense-output rows")

    command("surface", "radial classification of the Hessian image surface "
                       "on a grid", *_GRID_FLAGS)

    p_ver = command("verify", "identity and route-agreement suite",
                    "--smin", "--smax", "--vmin", "--vmax", "--out")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--states", type=int, default=25)
    return parser


# ---------------------------------------------------------------------------
# configuration and model assembly

def _effective_config(args) -> dict:
    """The run's one configuration record: the ``--config`` file, then each
    value the command's parser gave, over the defaults of what the model
    reads.  A model key it does not read, from either, is a bad request."""
    given = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            given.update(parse_config_text(fh.read()))
    given.update((k, v) for k, v in vars(args).items() if v is not None)
    reads = _READS[given.setdefault("model", "ideal")]
    if stray := [k for k in given if k in _MODEL_KEYS and k not in reads]:
        raise DomainError(f"the {given['model']} gas reads only "
                          f"{', '.join(reads)}, not {stray[0]}")
    defaults = asdict(GasParameters())
    return {**{k: defaults[k] for k in reads if k in defaults}, **given}


def _build_model(eff: dict):
    params = GasParameters(**{k: v for k, v in eff.items()
                              if k in GasParameters.__dataclass_fields__})
    if eff["model"] == "custom":
        if not eff.get("f1"):
            raise DomainError("--model custom requires --f1")
        return ConstantCv(eff["f1"], eff.get("f2") or None, cv=params.cv0,
                          u0=params.u0)
    return make_model(eff["model"], params)


def _clip_vmin(vmin, vmax, model) -> tuple[float, list[str]]:
    """``vmin``, raised to 5% of the way from the covolume b to ``vmax``
    when it is at or below b, with that warning."""
    b = model.covolume
    if vmin > b:
        return vmin, []
    clipped = b + 0.05 * (vmax - b)
    if clipped >= vmax:
        raise DomainError(f"volume range {vmin}..{vmax} lies outside "
                          f"the admissible domain V > {b}")
    return clipped, [f"clipping vmin from {vmin} to {clipped} (covolume {b})"]


def _grid_axes(eff: dict, model) -> tuple[list[float], list[float]]:
    n, smin, smax, vmin, vmax = (eff[k] for k in ("n", "smin", "smax",
                                                  "vmin", "vmax"))
    if n < 2:
        raise DomainError("grid needs at least 2 points per axis")
    if not (smax > smin and vmax > vmin):
        raise DomainError("ranges must satisfy smin < smax and vmin < vmax")
    # warnings are printed once both axes are known to be good
    vmin, warnings = _clip_vmin(vmin, vmax, model)
    if eff["chart"] == "tv" and smin <= 0.0:
        clipped = 0.05 * smax
        if clipped >= smax:
            raise DomainError("temperature range must be positive")
        warnings.append(f"clipping temperature minimum from {smin} to "
                        f"{clipped}")
        smin = clipped
    axes = [float_grid(smin, smax, n), float_grid(vmin, vmax, n)]
    for name, axis in zip(("t" if eff["chart"] == "tv" else "s", "v"), axes):
        if not all(map(math.isfinite, axis)):  # an overflowing span
            raise DomainError(f"{name} range is too wide: its grid overflows")
    sys.stderr.write("".join(f"warning: {w}\n" for w in warnings))
    return axes


# What ends a command or one of its states: a state error or any other
# package error, such as SingularState; errors.DOMAIN_ERRORS exit 1, others 3.
# Over many states, numpy's division and invalid flags stand in for floats'.
_ERRORS = (*STATE_ERRORS, ThermogeomError)


# overflow and underflow are silent, as for floats
_NUMPY_RAISES = dict(divide="raise", invalid="raise", over="ignore",
                     under="ignore")


def _each_state(model, chart, x1, x2, values):
    """``values(stack)`` at each state (x1, x2) of two broadcast arrays,
    row-major, in columns, with each state's (error, in_stack): one
    ``array_stack`` pass (nested tuples of arrays or shared constants, and
    no state ended) or, if anything in it raises, the scalar route, lists
    from one ``derivative_stack`` per state, where an error, raised by the
    stack (in_stack) or by ``values``, ends only its own state; an ended
    state repeats the first unended state's values (None if none is)."""
    import numpy as np
    try:
        with np.errstate(**_NUMPY_RAISES):
            return values(model.array_stack(chart, x1, x2)), []
    except _ERRORS:
        pass
    out, ended = [], []
    # numpy calls on the scalar route stay as silent as its float arithmetic
    with np.errstate(all="ignore"):
        for y1, y2 in zip(*(a.ravel().tolist()
                            for a in np.broadcast_arrays(x1, x2))):
            stack = None
            try:
                stack = model.derivative_stack(StatePoint(chart, y1, y2))
                out.append(values(stack))
                ended.append((None, False))
            except _ERRORS as exc:
                out.append(None)
                ended.append((exc, stack is None))
    fill = next((v for v in out if v is not None), None)
    return (None if fill is None else
            _columns([fill if v is None else v for v in out])), ended


def _columns(per_state: list):
    """Nested tuples, one per state, as one nested tuple of lists."""
    return (tuple(map(_columns, map(list, zip(*per_state))))
            if isinstance(per_state[0], tuple) else per_state)


def _marker(exc) -> str:
    """What a grid cell that ``exc`` ended prints."""
    if isinstance(exc, SingularState):
        return "degenerate"
    if isinstance(exc, FrameSingular):
        return "frame_singular"
    return "domain" if isinstance(exc, DOMAIN_ERRORS) else "numeric"


def _grid(eff: dict, model, columns, cell_values, fields, colour,
          ended) -> int:
    """Evaluate a grid command and print it.

    ``cell_values(stack)`` gives the values of a stack's cells; given each
    over the cells, ``fields(*values)`` (of lists) gives the printed
    columns and ``colour(*values)`` the one whose sign colours a cell;
    ``ended(exc)`` gives the fields of a cell that ``exc`` ended.  Only what
    the format prints is built: svg's colours, or rows of fields that go to
    ``_emit_table`` with the axes.  The grid exits 0 when any cell printed
    values or a degeneracy marker; when every cell ended otherwise, it
    raises the first cell's error.
    """
    import numpy as np
    x1s, x2s = _grid_axes(eff, model)
    chart = (Chart.TEMPERATURE_VOLUME if eff["chart"] == "tv"
             else Chart.ENTROPY_VOLUME)
    value, ends = _each_state(model, chart, np.array(x1s)[:, None],
                              np.array(x2s), cell_values)
    if value is None and all(_marker(exc) in ("domain", "numeric")
                             for exc, _ in ends):
        raise ends[0][0]
    n = len(x1s) * len(x2s)
    svg = eff["format"] == "svg"
    if svg:  # each cell's colour
        c = np.broadcast_to(math.nan if value is None else colour(*value), n)
        cells = np.select([np.greater(c, 0.0), np.less(c, 0.0)],
                          ["#b2182b", "#2166ac"], "#f7f7f7").tolist()
    else:  # each cell's row of fields (every cell ended if there is no value)
        cells = ([None] * n if value is None else list(zip(*fields(
            *(np.broadcast_to(x, n).tolist() for x in value)))))
    for i, (exc, _) in enumerate(ends):
        if exc is not None:
            cells[i] = "#999999" if svg else ended(exc)
    meta = _meta(eff)
    c1 = "t" if eff["chart"] == "tv" else "s"
    _emit_table(eff.get("out"), meta, [c1, "v", *columns], cells,
                lambda: _render_svg_heatmap(meta, x1s, x2s, cells),
                axes=(x1s, x2s))
    return 0


# ---------------------------------------------------------------------------
# output plumbing

def _meta(eff: dict) -> dict:
    """The header: the version and the configuration, less its paths."""
    return {"version": __version__,
            **{k: v for k, v in eff.items() if k not in ("out", "config")}}


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(eff: dict, **doc) -> None:
    """Write ``doc`` under its header, ``meta``, as the JSON report of a
    command that prints text, when ``--out`` is given."""
    if eff.get("out"):
        import json
        _emit(json.dumps({"meta": _meta(eff), **doc}, indent=2,
                         sort_keys=True) + "\n", eff["out"])


def _emit_table(out_path: str | None, meta: dict, columns: list[str],
                rows: list, svg, notes: list[str] | None = None,
                axes=None) -> None:
    """Render a table in the chosen format and write it to ``out_path``.

    ``svg`` draws the picture, called only for svg and ``rows`` only read
    for the others.  ``axes``, a grid's two axes, are its first columns:
    each row then holds the fields after them, row-major over (x1, x2).
    """
    if meta["format"] == "svg":
        text = svg()
    elif meta["format"] == "json":
        text = _render_json(meta, columns, rows, notes, axes)
    else:
        text = _render_csv(meta, columns, rows, notes, axes)
    _emit(text, out_path)


def _axis_heads(axes, fmt, sep: str):
    """Each row's axis values, joined by ``sep``, each formatted once."""
    return map(sep.join, itertools.product(*(map(fmt, x) for x in axes)))


def _render_csv(meta: dict, columns: list[str], rows: list,
                notes: list[str] | None = None, axes=None) -> str:
    """The table as CSV, each row through its %-template, which ``axes``
    (see ``_emit_table``) starts with the row's axis values."""
    lines = [f"# thermogeom {meta['version']}"]
    for key in sorted(k for k in meta if k != "version"):
        lines.append(f"# {key} = {_fmt(meta[key])}")
    for note in notes or []:
        lines.append(f"# note: {note}")
    lines.append(",".join(columns))
    if rows:
        templates = [_row_template(tuple(map(type, row))) for row in rows]
        template = "\n".join(
            [t[1:] for t in templates] if axes is None else
            map(str.__add__, _axis_heads(axes, "%.17g".__mod__, ","),
                templates))
        lines.append(template % tuple(itertools.chain.from_iterable(rows)))
    return "\n".join(lines) + "\n"


@functools.cache
def _row_template(types: tuple) -> str:
    """The %-template of CSV cells of these types, each after a comma:
    "%.17g" prints a float as ``_fmt`` does, "%.0s" a None as nothing."""
    return "".join(",%.17g" if issubclass(t, float) else
                   ",%.0s" if t is type(None) else ",%s" for t in types)


def _render_json(meta: dict, columns: list[str], rows: list,
                 notes: list[str] | None = None, axes=None) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` of the table, its rows
    of scalars (the last key) encoded a scalar to a line at their indent by
    the C encoder, which takes no indent, after ``axes`` (see
    ``_emit_table``) written as the encoder writes a finite float."""
    import json
    doc = {"meta": meta, "columns": columns, "rows": []}
    if notes:
        doc["notes"] = notes
    text = json.dumps(doc, indent=2, sort_keys=True)
    if rows:  # a newline inside a string is escaped, so "],\n" ends a row
        body = json.JSONEncoder(
            separators=(",\n      ", ": ")).encode(rows)[2:-2]
        if axes is None:
            body = body.replace("],\n      [", "\n    ],\n    [\n      ")
        else:
            heads = _axis_heads(axes, float.__repr__, ",\n      ")
            body = "\n    ],\n    [\n      ".join([
                f"{head},\n      {fields}" if fields else head
                for head, fields in zip(heads, body.split("],\n      ["))])
        text = (f"{text[:-4]}[\n    [\n      {body}\n    ]\n  ]\n}}"
                .replace("[\n      \n    ]", "[]"))
    return text + "\n"


_WIDTH, _HEIGHT, _MARGIN = 640, 480, 60  # svg canvas and plot margin


def _svg(meta: dict, shapes: list[str]) -> str:
    """An svg document: a white canvas, the shapes and the plot frame."""
    width, height, margin = _WIDTH, _HEIGHT, _MARGIN
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f"<!-- thermogeom {meta['version']} "
        f"command={meta.get('command', '')} -->",
        *shapes,
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#333333"/>',
        "</svg>"]) + "\n"


def _render_svg_polyline(meta: dict, points: list[tuple[float, float]],
                         x_label: str, y_label: str) -> str:
    width, height, margin = _WIDTH, _HEIGHT, _MARGIN
    if not points:
        return _svg(meta, [])
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
    return _svg(meta, [
        f'<polyline points="{pts}" fill="none" '
        f'stroke="#1f6fb4" stroke-width="1.5"/>',
        f'<text x="{width // 2}" y="{height - 12}" '
        f'font-size="12" text-anchor="middle">{x_label} '
        f'[{_fmt(x_lo)}, {_fmt(x_hi)}]</text>',
        f'<text x="14" y="{height // 2}" font-size="12" '
        f'transform="rotate(-90 14 {height // 2})" '
        f'text-anchor="middle">{y_label} '
        f'[{_fmt(y_lo)}, {_fmt(y_hi)}]</text>'])


def _render_svg_heatmap(meta: dict, x1: list[float], x2: list[float],
                        cells: list[str]) -> str:
    cw = (_WIDTH - 2 * _MARGIN) / len(x2)
    ch = (_HEIGHT - 2 * _MARGIN) / len(x1)
    xs = [f"{_MARGIN + j * cw:.2f}" for j in range(len(x2))]
    ys = [f"{_HEIGHT - _MARGIN - (i + 1) * ch:.2f}" for i in range(len(x1))]
    size = f'width="{cw:.2f}" height="{ch:.2f}"'
    return _svg(meta, [
        f'<rect x="{x}" y="{y}" {size} fill="{fill}"/>'
        for (y, x), fill in zip(itertools.product(ys, xs), cells)])


# ---------------------------------------------------------------------------
# subcommands

def cmd_curvature_grid(eff, model) -> int:
    def cell_values(st):
        metric, *routes = curvature_routes(model, st)
        return metric.det, *routes, signature_kind(metric)

    def ended(exc):
        if isinstance(exc, SingularState):
            return [exc.det, *["singular"] * 4, "degenerate"]
        return [None, *[_marker(exc)] * 5]

    # a kind's text is its ``_value_``: ``value`` is a Python-level property
    return _grid(eff, model,
                 ["det", "r_tensorial", "r_closed2d", "r_elementary",
                  "r_model_closed", "signature"], cell_values,
                 lambda *v: [*v[:5], [k._value_ for k in v[5]]],
                 lambda *v: v[2], ended)


def cmd_locus(eff, model) -> int:
    columns = ["v", "s", "t", "p"]
    meta = _meta(eff)
    try:
        line = degeneracy_locus(model, (eff["vmin"], eff["vmax"]),
                                eff["n"], method=eff["method"])
    except NoRoot as exc:
        print("empty locus", file=sys.stderr)
        samples, notes = (), [f"empty locus: {exc}"]
    else:
        samples, notes = line.samples, [f"branch: {line.branch}", line.note]
    rows = [[smp.v, smp.s, smp.t, smp.p] for smp in samples]
    _emit_table(eff.get("out"), meta, columns, rows,
                lambda: _render_svg_polyline(
                    meta, [(smp.v, smp.p) for smp in samples], "v", "p"),
                notes)
    return 0


def cmd_critical(eff, model) -> int:
    try:
        cp = critical_point(model, method=eff["method"])
        exact = closed_form_critical_point(model)
    except NoCriticalPoint as exc:
        message = f"no critical point: {exc}"
        print(message)
        _emit_report(eff, message=message, **dict.fromkeys(  # null results
            ("v_c", "p_c", "t_c", "negative_branch", "closed_form")))
        return 0
    names, closed = ("V_c", "p_c", "T_c"), exact and exact[:3]
    lines = [f"{name} = {_fmt(x)}" for name, x in zip(names, cp)]
    ok = True
    if closed is not None:
        for name, got, want in zip(names, cp, closed):
            rel = abs(got - want) / abs(want)  # every closed form is > 0
            match = rel <= 1e-8
            ok = ok and match
            lines.append(f"closed-form {name}: {_fmt(want)} "
                         f"({'match' if match else 'MISMATCH'}, "
                         f"rel {rel:.3e})")
    if cp.negative_branch is not None:
        lines.append(f"negative branch: p_c = {_fmt(cp.negative_branch[0])}, "
                     f"T_c = {_fmt(cp.negative_branch[1])} (discarded)")
    print("\n".join(lines))
    _emit_report(eff, v_c=cp.v_c, p_c=cp.p_c, t_c=cp.t_c,
                 negative_branch=cp.negative_branch, closed_form=closed)
    return 0 if ok else 2


def cmd_geodesic(eff, model) -> int:
    import numpy as np
    if eff["samples"] < 2:
        raise DomainError("need at least 2 samples")
    init = GeodesicState(s=eff["start_s"], v=eff["start_v"],
                         s_dot=eff["start_sdot"], v_dot=eff["start_vdot"])
    traj = integrate_geodesic(model, init, eff["t_end"], tol=eff["tol"])
    columns = ["t", "s", "v", "s_dot", "v_dot", "speed"]
    # a run of one node, the start alone, is printed once
    ts = np.linspace(traj.times[0], traj.times[-1],
                     eff["samples"] if len(traj.times) > 1 else 1)
    rows = []
    for t, (s, v, s_dot, v_dot) in zip(ts.tolist(),
                                       traj.interpolant(ts).T.tolist()):
        try:  # the Hessian alone, as a stage reads it; empty on an error
            speed = _speed(*hessian_jet(model, s, v)[5:8], s_dot, v_dot)
        except _ERRORS:
            speed = None
        rows.append([t, s, v, s_dot, v_dot, speed])
    pts = [(s, v) for _, s, v, *_ in rows]
    meta = {**_meta(eff), "termination": traj.termination.value}
    _emit_table(eff.get("out"), meta, columns, rows,
                lambda: _render_svg_polyline(meta, pts, "s", "v"),
                [f"termination: {traj.termination.value}"])
    return 0


def cmd_surface(eff, model) -> int:
    def cell_values(st):
        metric = weinhold_metric(model, st)
        rp = radial_pairing(hessian_point_from_metric(metric))
        extra = None
        if isinstance(model, VanDerWaals):
            extra = vdw_surface_residual(metric, model.params)[1]
        elif isinstance(model, IdealGas):
            extra = ideal_conic_residual(metric, st.cp, model.params.r_gas)
        return rp.pairing, rp.kind, metric.det, extra

    import numpy as np
    return _grid(eff, model,
                 ["pairing", "radial_class", "cone_residual",
                  "model_surface_residual"], cell_values,
                 lambda pairing, kinds, det, extra: [
                     pairing, [k._value_ for k in kinds], det, extra],
                 lambda pairing, *_: np.negative(pairing),
                 lambda exc: [None, _marker(exc), None, None])


# candidate states that verify draws and evaluates at once
_VERIFY_BATCH = 1024
# each check in print order, with its tolerance
_VERIFY_TOLERANCES = {
    "curvature-route-agreement": 1e-8, "coefficient-identity-1": 1e-10,
    "coefficient-identity-2": 1e-10, "cp-cv-relation": 1e-10,
    "coefficient-identity-3": 1e-10, "determinant-identities": 1e-10,
    "christoffel-route-agreement": 1e-9,
    "entropy-representation-conformal": 1e-8, "flatness": 1e-10,
}


def _verify_residuals(model, st) -> dict:
    """The residuals of each verify check at the stack ``st``, by name:
    tuples of floats at one state, of arrays over a batch of states; a
    check that does not apply to the model has none."""
    _, *routes = curvature_routes(model, st)
    res = identity_residuals(model, st)
    rep = determinant_report(model, st)
    ce = christoffel_elementary(st, st, st.v)
    ck = christoffel_from_stack(st)
    direct = ruppeiner_direct_curvature(model, st)
    conformal = direct - ruppeiner_from_weinhold(model, st, scheme="analytic")
    return {
        "curvature-route-agreement": (pairwise_residual(*routes),),
        "coefficient-identity-1": (abs(res.id1),),
        "coefficient-identity-2": (abs(res.id2),),
        "cp-cv-relation": (abs(res.cp_cv),),
        "coefficient-identity-3": () if res.id3 is None else (abs(res.id3),),
        "determinant-identities": (abs(rep.residual_kvc),
                                   abs(rep.residual_dpdv)),
        "christoffel-route-agreement": tuple(
            abs(got - want) / choose([abs(want) > 1.0], [abs(want)], 1.0)
            for got, want in zip(ce, ck)),
        "entropy-representation-conformal": (abs(conformal),),
        "flatness": (abs(routes[1]),) if isinstance(model, IdealGas) else (),
    }


def _verify_checks(model, eff, rng, n_states):
    """Each check's name, residual and tolerance, over the first
    ``n_states`` admissible draws.  A draw whose stack raises is skipped;
    a check that raises ends the run, and so does the first draw's error
    when no draw is admissible."""
    import numpy as np
    s_lo, s_hi = eff["smin"], eff["smax"]
    v_lo, v_hi = eff["vmin"], eff["vmax"]
    if not (s_lo <= s_hi and v_lo <= v_hi and math.isfinite(s_hi - s_lo)
            and math.isfinite(v_hi - v_lo)):
        raise DomainError(f"sample window S {s_lo}..{s_hi}, V {v_lo}..{v_hi} "
                          f"must be finite with smin <= smax and vmin <= vmax")
    v_lo, warnings = _clip_vmin(v_lo, v_hi, model)
    sys.stderr.write("".join(f"warning: {w}\n" for w in warnings))

    def residuals(st):  # in print order
        by_name = _verify_residuals(model, st)
        return tuple(by_name[name] for name in _VERIFY_TOLERANCES)

    # each check's largest residual over each batch, NaN passed over
    maxima = {name: [] for name in _VERIFY_TOLERANCES}
    found = attempts = 0
    first = None  # the error that ended the first draw, if one did
    while found < n_states and attempts < 100 * n_states:
        size = min(_VERIFY_BATCH, n_states - found, 100 * n_states - attempts)
        attempts += size
        # the same numbers as one (S, V) pair drawn at a time
        draws = rng.uniform([s_lo, v_lo] * size, [s_hi, v_hi] * size)
        value, ended = _each_state(model, Chart.ENTROPY_VOLUME, draws[::2],
                                   draws[1::2], residuals)
        for exc, in_stack in ended:
            if exc is not None and not in_stack:
                raise exc
        if first is None and ended:
            first = ended[0][0]
        found += size - sum(exc is not None for exc, _ in ended)
        # an ended state repeats an admissible one's residuals
        for check, column in zip(value or (), maxima.values()):
            column += [np.fmax.reduce(np.broadcast_to(x, size)) for x in check]
    if not found:
        raise first
    # the largest over the states, as Python's max takes it from a start
    # of 0.0
    return [(name, max(0.0, float(np.fmax.reduce(maxima[name]))), tol)
            for name, tol in _VERIFY_TOLERANCES.items() if maxima[name]]


def cmd_verify(eff, model) -> int:
    import numpy as np
    if eff["states"] < 1:
        raise DomainError(f"need at least 1 state, got {eff['states']}")
    rng = np.random.default_rng(eff["seed"])
    checks = _verify_checks(model, eff, rng, eff["states"])
    failed = False
    lines = []
    for name, residual, tol in checks:
        ok = residual <= tol
        failed = failed or not ok
        lines.append(f"{name}: residual {residual:.3e} (tol {tol:.1e}) "
                     f"{'PASS' if ok else 'FAIL'}")
    print("\n".join(lines))
    _emit_report(eff, checks=[{"name": n, "residual": r, "tol": t,
                               "pass": r <= t} for n, r, t in checks])
    return 2 if failed else 0


_DISPATCH = {
    "curvature-grid": cmd_curvature_grid,
    "locus": cmd_locus,
    "critical": cmd_critical,
    "geodesic": cmd_geodesic,
    "surface": cmd_surface,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        eff = _effective_config(args)
        model = _build_model(eff)
        return _DISPATCH[eff["command"]](eff, model)
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except _ERRORS as exc:
        code = 1 if isinstance(exc, DOMAIN_ERRORS) else 3
        print(f"{'error' if code == 1 else 'numeric failure'}: {exc}",
              file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
