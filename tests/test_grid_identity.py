"""``curvature-grid`` and ``surface`` print, cell for cell, what the scalar
routes print at each state.

The reference is the per-cell loop of the scalar route: one
``derivative_stack`` per state and every route on it, where an error ends
only its own cell.  A singular state prints a degeneracy marker; any other
error prints ``domain`` (exit code 1 classes: a state outside the domain,
a bad expression value) or ``numeric`` (exit code 3 classes).  A window
whose every cell ends with ``domain`` or ``numeric`` prints nothing and
ends with the exit code and one-line message of its first cell.  A grid
command takes that route itself when anything in its array pass raises,
so the windows with an ended cell check it; every other window checks
the array pass.  Every window runs in each format.  The reference rows,
axis values included, go through the CSV writer and through
``json.dumps(doc, indent=2, sort_keys=True)``; the reference picture is
the heatmap drawn one rectangle per cell, grey where a cell ended.  Each
text must equal the command's byte for byte, so every printed number
agrees to the last bit (``.17g`` and ``repr`` round-trip a float), every
marker sits in the same cell and every cell has its colour.
"""
import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from thermogeom import cli
from thermogeom.curvature import curvature_report
from thermogeom.eos_models import (
    SINGULAR_BAND,
    Chart,
    IdealGas,
    StatePoint,
    VanDerWaals,
    relative_det,
)
from thermogeom.errors import (
    DomainError,
    FrameSingular,
    SingularState,
    ThermogeomError,
    UnsupportedModel,
)
from thermogeom.expressions import ExpressionError
from thermogeom.hessian_surface import (
    hessian_point_from_metric,
    ideal_conic_residual,
    radial_pairing,
    vdw_surface_residual,
)
from thermogeom.metric_core import eigen_signature, weinhold_metric

from test_cli import _per_cell_heatmap


def _state(eff, x1, x2):
    if eff["chart"] == "tv":
        return StatePoint(Chart.TEMPERATURE_VOLUME, x1, x2)
    return StatePoint.entropy_volume(x1, x2)


# A cell gives its fields and the value whose sign colours it, None for a
# cell that a degeneracy ended.
def _grid_cell(model, state):
    try:
        stack = model.derivative_stack(state)
        metric = weinhold_metric(model, stack)
        report = curvature_report(model, stack)
        sig = eigen_signature(metric)
        return [metric.det, report.r_tensorial, report.r_closed2d,
                report.r_elementary, report.r_model_closed,
                sig.kind.value], report.r_closed2d
    except SingularState as exc:
        return [exc.det, "singular", "singular", "singular", "singular",
                "degenerate"], None


def _surface_cell(model, state):
    try:
        stack = model.derivative_stack(state)
        metric = weinhold_metric(model, stack)
        rp = radial_pairing(hessian_point_from_metric(metric))
        extra = None
        if isinstance(model, VanDerWaals):
            extra = vdw_surface_residual(metric, model.params)[1]
        elif isinstance(model, IdealGas):
            extra = ideal_conic_residual(metric, stack.cp, model.params.r_gas)
        return [rp.pairing, rp.kind.value, metric.det, extra], -rp.pairing
    except (SingularState, FrameSingular) as exc:
        marker = ("degenerate" if isinstance(exc, SingularState)
                  else "frame_singular")
        return [None, marker, None, None], None


def _colour(value):
    """A heatmap cell's fill: red where ``value`` is positive, blue where
    it is negative, grey where the cell ended."""
    if value is None:
        return "#999999"
    return ("#b2182b" if value > 0.0 else "#2166ac" if value < 0.0
            else "#f7f7f7")


# each command's value columns, its cell, and the row of an ended cell
REFERENCE = {
    "curvature-grid": (["det", "r_tensorial", "r_closed2d", "r_elementary",
                        "r_model_closed", "signature"], _grid_cell,
                       lambda marker: [None, *[marker] * 5]),
    "surface": (["pairing", "radial_class", "cone_residual",
                 "model_surface_residual"], _surface_cell,
                lambda marker: [None, marker, None, None]),
}


def _failure(exc):
    """The exit code and message that ``exc`` ends a run with."""
    if isinstance(exc, (DomainError, UnsupportedModel, ExpressionError,
                        ValueError, OSError)):
        return 1, f"error: {exc}"
    return 3, f"numeric failure: {exc}"


def _scalar_route(argv):
    """(exit code, stdout, last stderr line) of the per-cell reference,
    with the exit codes and messages of ``cli.main``."""
    columns, cell, ended = REFERENCE[argv[0]]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            args = cli.build_parser().parse_args(argv)
            eff = cli._effective_config(args)
            model = cli._build_model(eff)
            x1s, x2s = cli._grid_axes(eff, model)
        except (ThermogeomError, ArithmeticError, ValueError,
                OSError) as exc:
            code, message = _failure(exc)
            return code, "", message
    rows, colours, failures = [], [], []
    for x1 in x1s:
        for x2 in x2s:
            try:
                fields, value = cell(model, _state(eff, x1, x2))
            except (ThermogeomError, ArithmeticError, ValueError) as exc:
                code, _ = _failure(exc)
                fields, value = ended("domain" if code == 1
                                      else "numeric"), None
                failures.append(exc)
            rows.append([x1, x2, *fields])
            colours.append(_colour(value))
    if len(failures) == len(rows):
        code, message = _failure(failures[0])
        return code, "", message
    meta = cli._meta(eff)
    columns = ["t" if eff["chart"] == "tv" else "s", "v", *columns]
    if eff["format"] == "svg":
        text = _per_cell_heatmap(meta, x1s, x2s, colours)
    elif eff["format"] == "json":
        text = json.dumps({"meta": meta, "columns": columns, "rows": rows},
                          indent=2, sort_keys=True) + "\n"
    else:
        text = cli._render_csv(meta, columns, rows)
    return 0, text, (err.getvalue().splitlines() or [""])[-1]


def _array_pass(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), (err.getvalue().splitlines() or [""])[-1]


FORMATS = ("json", "svg", "csv")  # csv last: its text is returned


def assert_same_as_scalar(argv):
    """Both commands on ``argv``, in each format; their (exit code, CSV
    stdout, last stderr line), which the array pass and the scalar route
    share."""
    results = []
    for command in REFERENCE:
        for fmt in FORMATS:
            want = _scalar_route([command, *argv, "--format", fmt])
            assert _array_pass([command, *argv, "--format", fmt]) == want
        results.append(want)
    return results


# Jittered gases with their closed-form critical point (V_c, T_c) and
# entropy S(T, V) (s0 = 0), from which the windows are placed.
def _vdw_like(model, a, b, r, cv):
    if model == "custom":
        r = 0.8 * cv  # f1 = (V-b)^-0.8
        flags = ["--model", "custom", "--cv", repr(cv),
                 "--f1", f"(V-{b!r})^-0.8", "--f2", f"{a / cv!r}/V"]
    else:  # the ideal gas reads no a or b
        ab = ["--a", repr(a), "--b", repr(b)] if model == "vdw" else []
        flags = ["--model", model, *ab, "--r-gas", repr(r), "--cv", repr(cv)]
    t_c = 8.0 * a / (27.0 * b * r)

    def entropy(t, v):
        return cv * math.log(cv * t) + r * math.log(v - b)
    return flags, 3.0 * b, t_c, entropy


def _berthelot(a, b, r, cv):
    flags = ["--model", "berthelot", "--a", repr(a), "--b", repr(b),
             "--r-gas", repr(r), "--cv", repr(cv)]
    t_c = math.sqrt(8.0 * a / (27.0 * r * b))

    def entropy(t, v):
        return cv * math.log(t) + r * math.log(v - b) - a / (v * t * t)
    return flags, 3.0 * b, t_c, entropy


def _jitter(x):
    return st.floats(0.9 * x, 1.1 * x)


@st.composite
def windows(draw):
    """A gas, a chart and a window around its critical point, wide enough
    to straddle the degeneracy locus (the ideal gas, which has none, takes
    the van der Waals window)."""
    model = draw(st.sampled_from(["ideal", "vdw", "custom", "berthelot"]))
    a, b, r, cv = (draw(_jitter(x)) for x in (1.5, 0.2, 2.0, 2.5))
    if model == "berthelot":
        flags, v_c, t_c, entropy = _berthelot(a, b, r, cv)
    else:
        flags, v_c, t_c, entropy = _vdw_like(model, a, b, r, cv)
    chart = draw(st.sampled_from(["sv", "tv"]))
    t_lo = t_c * draw(st.floats(0.5, 0.95))
    t_hi = t_c * draw(st.floats(1.05, 1.6))
    v_lo = v_c * draw(st.floats(0.6, 0.95))
    v_hi = v_c * draw(st.floats(1.1, 3.0))
    if chart == "tv":
        x_lo, x_hi = t_lo, t_hi
    else:
        x_lo, x_hi = entropy(t_lo, v_c), entropy(t_hi, v_c)
    n = draw(st.integers(2, 7))
    return [*flags, "--chart", chart, f"--smin={x_lo!r}", f"--smax={x_hi!r}",
            f"--vmin={v_lo!r}", f"--vmax={v_hi!r}", "--n", str(n)]


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(windows())
def test_grid_cells_equal_the_scalar_route(argv):
    assert [rc for rc, _, _ in assert_same_as_scalar(argv)] == [0, 0]


CUSTOM = ["--model", "custom", "--cv", "2.5"]
# alpha = 0 at V = 1, the middle column, where det is -0.0039, 0.188 and
# 0.517: a nondegenerate state at which the elementary route divides by 0
ALPHA_ZERO = [*CUSTOM, "--f1", "(V-1)^2+1", "--f2", "0.6/V", "--smin", "1",
              "--smax", "2", "--vmin", "0.5", "--vmax", "1.5", "--n", "3"]
# f2'' = 0 at V = 1, the middle column: degenerate there only
DEGENERATE_COLUMN = [*CUSTOM, "--f1", "exp(V)", "--f2", "0.01*(V-1)^3",
                     "--vmin", "0.5", "--vmax", "1.5", "--n", "5"]


PRINTED = (0, "")


@pytest.mark.parametrize("argv, grid_end", [
    # f1 constant: alpha = 0 at an indefinite Hessian, which is no
    # degeneracy, so the elementary route divides by zero in every cell
    # and curvature-grid ends with the first cell's numeric failure;
    # surface reads no response coefficient and prints every cell
    ([*CUSTOM, "--f1", "2", "--f2", "0.6/V"],
     (3, "numeric failure: float division by zero")),
    # exponential f1 with a quadratic f2 collapses every tangent frame
    ([*CUSTOM, "--f1", "0.7*exp(0-0.4*V)", "--f2", "0.3*V^2"], PRINTED),
    # exponential f1 alone is degenerate everywhere: the stack check ends
    # every cell, each printing its own rounding-sized det
    ([*CUSTOM, "--f1", "exp(V)"], PRINTED),
    (DEGENERATE_COLUMN, PRINTED),
    ([*CUSTOM, "--f1", "exp(V)", "--f2", "0.01*(V-1)^3", "--chart", "tv",
      "--smin", "1", "--smax", "3", "--vmin", "0.5", "--vmax", "1.5",
      "--n", "5"], PRINTED),
], ids=["elementary-singular", "frame-singular", "all-degenerate",
        "degenerate-column-sv", "degenerate-column-tv"])
def test_ended_cells_equal_the_scalar_route(argv, grid_end):
    (grid_rc, grid_out, grid_err), (surface_rc, surface_out, _) = (
        assert_same_as_scalar(argv))
    assert ((grid_rc, grid_err), surface_rc) == (grid_end, 0)
    assert grid_end != PRINTED or any(
        marker in out for out in (grid_out, surface_out)
        for marker in ("singular", "degenerate"))


@pytest.mark.parametrize("argv, marker", [
    # below the pole of f1 in the first column: a negative base
    ([*CUSTOM, "--f1", "(V-0.2)^-0.8", "--f2", "0.6/V", "--vmin", "0.1"],
     "domain"),
    # at the pole in the first column: 0 to a negative power
    ([*CUSTOM, "--f1", "(V-0.2)^-0.8", "--f2", "0.6/V", "--vmin", "0.2"],
     "domain"),
    # f1 <= 0 from the middle of each row on
    ([*CUSTOM, "--f1", "1-V", "--vmin", "0.5", "--vmax", "1.3"], "domain"),
    ([*CUSTOM, "--f1", "1-V", "--f2", "0.6/V", "--vmin", "0.5",
      "--vmax", "1.3", "--smin", "1", "--smax", "2", "--n", "4"], "domain"),
    # every cell past V = 0.5 is degenerate, and every cell before it
    # outside the domain: the degeneracy markers print
    ([*CUSTOM, "--f1", "exp(V)*(V-0.5)^0.5/(V-0.5)^0.5", "--vmin", "0.1",
      "--vmax", "0.9", "--n", "4"], "domain"),
], ids=["negative-base", "pole", "f1-nonpositive", "reproducer",
        "degenerate-or-domain"])
def test_bad_cells_are_marked_as_the_scalar_route(argv, marker):
    for command, (rc, out, err) in zip(REFERENCE,
                                       assert_same_as_scalar(argv)):
        assert (rc, err) == (0, "")
        rows = [ln.split(",") for ln in out.splitlines()
                if not ln.startswith("#")][1:]
        ended = (["", *[marker] * 5] if command == "curvature-grid"
                 else ["", marker, "", ""])
        marked = [row for row in rows if row[2:] == ended]
        assert marked and len(marked) < len(rows)


def _golden_grid_windows():
    """The flags of each recorded ``curvature-grid`` golden case."""
    from golden.cases import CASES
    return {name: argv[1:] for name, argv in sorted(CASES.items())
            if argv[0] == "curvature-grid"}


def _table(out):
    return [line.split(",") for line in out.splitlines()
            if not line.startswith("#")][1:]


def _is_number(field):
    try:
        float(field)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("argv", [ALPHA_ZERO, DEGENERATE_COLUMN,
                                  *_golden_grid_windows().values()],
                         ids=["alpha-zero", "degenerate-column",
                              *_golden_grid_windows()])
def test_two_commands_print_one_determinant(argv):
    # each command prints its scalar route in each format; curvature-grid's
    # det is surface's cone_residual wherever both print a number, and a
    # cell is degenerate only inside the singular band
    tables = []
    for rc, out, _ in assert_same_as_scalar(argv):
        assert rc == 0
        tables.append(_table(out))
    eff = cli._effective_config(
        cli.build_parser().parse_args(["curvature-grid", *argv]))
    model = cli._build_model(eff)
    for grid_row, surface_row in zip(*tables, strict=True):
        assert grid_row[:2] == surface_row[:2]
        det, cone = grid_row[2], surface_row[4]
        if _is_number(det) and _is_number(cone):
            assert det == cone
        if "degenerate" in grid_row + surface_row:
            jet = model.derivative_stack(
                _state(eff, float(grid_row[0]), float(grid_row[1])),
                check_singular=False)
            assert abs(relative_det(jet.e11, jet.e12, jet.e22)) \
                < SINGULAR_BAND


NUMERIC = "numeric failure: "


@pytest.mark.parametrize("argv, rc, message", [
    ([*CUSTOM, "--f1", "exp(1000*V)"], 3, NUMERIC),
    # the axis overflows to non-finite points: a bad window
    (["--model", "vdw", "--smin=-1e308", "--smax=1e308"], 1,
     "error: s range is too wide: its grid overflows"),
    # entries near 1e-150: det * det underflows to 0, and the float
    # division by it raises (where numpy would give inf or NaN)
    (["--model", "vdw", "--chart", "tv", "--smin", "1e-150",
      "--smax", "2e-150"], 3, NUMERIC),
    # entries near 1e-300: det itself underflows to 0; the relative
    # determinant, taken on rescaled entries, does not call that degenerate
    (["--model", "vdw", "--chart", "tv", "--smin", "1e-300",
      "--smax", "1e-299"], 3, NUMERIC),
    # f1 <= 0 in the last two columns, a domain error, and det * det
    # underflows in the others, a numeric one: the first cell decides
    ([*CUSTOM, "--f1", "1.5-V", "--chart", "tv", "--smin", "1e-150",
      "--smax", "2e-150", "--vmin", "0.5", "--vmax", "2", "--n", "4"], 3,
     NUMERIC),
], ids=["overflow", "non-finite-axis", "underflow", "underflow-det",
        "stage-order"])
def test_bad_windows_fail_as_the_scalar_route(argv, rc, message):
    # no cell prints: the run ends with the first cell's code and message
    for got_rc, out, err in assert_same_as_scalar(argv):
        assert (got_rc, out) == (rc, "")
        assert err.startswith(message)
    # the message is all that reaches stderr: no numpy warning comes first
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        cli.main(["curvature-grid", *argv])
    assert [str(w.message) for w in caught] == []
    assert len(err.getvalue().splitlines()) == 1


def test_grid_evaluates_only_what_it_prints():
    # at T near 1e300 the eigenvalues of the signature, (e11 - e22)**2,
    # overflow; the grid prints the signature kind only, so it no longer
    # fails there (the per-cell route above computed them and exited 3)
    argv = ["curvature-grid", "--model", "vdw", "--chart", "tv",
            "--smin", "1e300", "--smax", "2e300", "--vmin", "1.5",
            "--vmax", "3", "--n", "3"]
    rc, out, _ = _array_pass(argv)
    assert rc == 0
    assert len([ln for ln in out.splitlines()
                if not ln.startswith("#")]) == 1 + 9
