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
the array pass.  The reference rows go through the same CSV writer, and
the two texts must be equal, so every printed number agrees to the last
bit (``.17g`` round-trips a float) and every marker sits in the same
cell.
"""
import contextlib
import io
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from thermogeom import cli
from thermogeom.curvature import curvature_report
from thermogeom.eos_models import IdealGas, StatePoint, VanDerWaals
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


def _state(eff, x1, x2):
    if eff["chart"] == "tv":
        return StatePoint.temperature_volume(x1, x2)
    return StatePoint.entropy_volume(x1, x2)


def _grid_cell(model, state):
    try:
        report = curvature_report(model, state)
        sig = eigen_signature(report.metric, report.stack)
        return [report.metric.det, report.r_tensorial, report.r_closed2d,
                report.r_elementary, report.r_model_closed, sig.kind.value]
    except SingularState as exc:
        det = exc.det if exc.det is not None else 0.0
        return [det, "singular", "singular", "singular", "singular",
                "degenerate"]


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
        return [rp.pairing, rp.kind.value, metric.det, extra]
    except (SingularState, FrameSingular) as exc:
        marker = ("degenerate" if isinstance(exc, SingularState)
                  else "frame_singular")
        return [None, marker, None, None]


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
    rows, failures = [], []
    for x1 in x1s:
        for x2 in x2s:
            try:
                rows.append([x1, x2, *cell(model, _state(eff, x1, x2))])
            except (ThermogeomError, ArithmeticError, ValueError) as exc:
                code, _ = _failure(exc)
                rows.append([x1, x2, *ended("domain" if code == 1
                                            else "numeric")])
                failures.append(exc)
    if len(failures) == len(rows):
        code, message = _failure(failures[0])
        return code, "", message
    c1 = "t" if eff["chart"] == "tv" else "s"
    text = cli._render_csv(cli._meta(eff), [c1, "v", *columns], rows)
    return 0, text, (err.getvalue().splitlines() or [""])[-1]


def _array_pass(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), (err.getvalue().splitlines() or [""])[-1]


def assert_same_as_scalar(argv):
    """Both commands on ``argv``; their (exit code, stdout, last stderr
    line), which the array pass and the scalar route share."""
    results = []
    for command in REFERENCE:
        want = _scalar_route([command, *argv])
        assert _array_pass([command, *argv]) == want
        results.append(want)
    return results


# Jittered gases with their closed-form critical point (V_c, T_c) and
# entropy S(T, V) (s0 = 0), from which the windows are placed.
def _vdw_like(model, a, b, r, cv):
    if model == "custom":
        r = 0.8 * cv  # f1 = (V-b)^-0.8
        flags = ["--model", "custom", "--cv", repr(cv),
                 "--f1", f"(V-{b!r})^-0.8", "--f2", f"{a / cv!r}/V"]
    else:
        flags = ["--model", model, "--a", repr(a), "--b", repr(b),
                 "--r-gas", repr(r), "--cv", repr(cv)]
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


@pytest.mark.parametrize("argv", [
    # f1 constant: alpha = 0, so the elementary route ends every cell and
    # the printed det is 0.0
    [*CUSTOM, "--f1", "2", "--f2", "0.6/V"],
    # exponential f1 with a quadratic f2 collapses every tangent frame
    [*CUSTOM, "--f1", "0.7*exp(0-0.4*V)", "--f2", "0.3*V^2"],
    # exponential f1 alone is degenerate everywhere: the stack check ends
    # every cell, each printing its own rounding-sized det
    [*CUSTOM, "--f1", "exp(V)"],
    # f2'' = 0 at V = 1, the middle column: degenerate there only
    [*CUSTOM, "--f1", "exp(V)", "--f2", "0.01*(V-1)^3",
     "--vmin", "0.5", "--vmax", "1.5", "--n", "5"],
    [*CUSTOM, "--f1", "exp(V)", "--f2", "0.01*(V-1)^3", "--chart", "tv",
     "--smin", "1", "--smax", "3", "--vmin", "0.5", "--vmax", "1.5",
     "--n", "5"],
], ids=["elementary-singular", "frame-singular", "all-degenerate",
        "degenerate-column-sv", "degenerate-column-tv"])
def test_ended_cells_equal_the_scalar_route(argv):
    results = assert_same_as_scalar(argv)
    assert [rc for rc, _, _ in results] == [0, 0]
    assert any(marker in out for _, out, _ in results
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
