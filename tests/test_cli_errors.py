"""Failure paths of the command line: exit codes and one-line messages.

Every case goes through ``main(argv)``; a failure must end in its
documented exit code with a single stderr line, never a traceback.
"""
import warnings

import numpy as np
import pytest

from thermogeom.cli import main
from thermogeom.expressions import Expression, ExpressionError

CUSTOM = ["--model", "custom", "--cv", "2.5",
          "--f1", "(V-0.2)^-0.8", "--f2", "0.6/V"]
GEODESIC = ["geodesic", "--model", "vdw", "--a", "1.5", "--b", "0.2",
            "--r-gas", "2", "--cv", "2.5", "--start-s", "2.5",
            "--start-v", "1.4"]


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def grid_rows(out):
    """The CSV rows of a curvature grid, as lists of fields, from the v
    column on."""
    return [line.split(",")[1:] for line in out.splitlines()
            if not line.startswith("#")][1:]


def one_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    return lines[0]


class TestNegativeBasePower:
    def test_non_integer_power_of_negative_value_is_value_error(self):
        f = Expression("(V-0.2)^-0.8")
        with pytest.raises(ValueError, match="negative value"):
            f.eval_derivs(0.1)

    def test_integer_power_of_negative_value_is_real(self):
        assert Expression("(V-1)^3").eval_derivs(0.5)[0] == -0.125

    def test_custom_critical_skips_volumes_below_covolume(self, capsys):
        # the default volume window starts below b = 0.2
        rc, out, _ = run(capsys, ["critical", *CUSTOM])
        assert rc == 0
        values = dict(line.split(" = ") for line in out.splitlines())
        assert float(values["V_c"]) == pytest.approx(0.6, rel=1e-8)
        assert float(values["T_c"]) == pytest.approx(
            8.0 * 1.5 / (27.0 * 0.2 * 2.0), rel=1e-8)

    @pytest.mark.parametrize("command", ["locus"])
    def test_window_below_covolume_exits_one(self, capsys, command):
        rc, out, err = run(capsys, [command, *CUSTOM, "--vmin", "0.1"])
        assert rc == 1
        assert out == ""
        assert one_line(err).startswith("error: ")

    def test_grid_marks_its_cells_below_the_pole(self, capsys):
        # a negative base at V = 0.1 ends only the first column's cells
        rc, out, err = run(capsys, ["curvature-grid", *CUSTOM,
                                    "--vmin", "0.1", "--n", "3"])
        assert (rc, err) == (0, "")
        rows = grid_rows(out)
        assert [row[1:] for row in rows if row[0] == "0.10000000000000001"] \
            == [["", *["domain"] * 5]] * 3
        assert all("domain" not in row for row in rows
                   if row[0] != "0.10000000000000001")

    def test_scan_without_admissible_state_exits_one(self, capsys):
        # f1 < 0 at every volume: no state of the window exists, which is
        # a domain error, not an empty locus
        rc, out, err = run(capsys, ["locus", "--model", "custom",
                                    "--f1", "0-1", "--method", "scan"])
        assert rc == 1
        assert out == ""
        assert one_line(err).startswith(
            "error: f1(V) must be positive, got -1.0 at V=")

    @pytest.mark.parametrize("f1, code, line", [
        ("ln(0-V)", 1, "error: ln of non-positive value -0.01"),
        ("1/(V-V)", 3, "numeric failure: expression division by zero"),
    ])
    def test_critical_without_admissible_volume(self, capsys, f1, code,
                                                line):
        # every volume of the critical scan raises: the command ends with
        # the first volume's error, as curvature-grid and locus do
        rc, out, err = run(capsys, ["critical", "--model", "custom",
                                    "--cv", "2.5", "--f1", f1,
                                    "--f2", "0.6/V"])
        assert (rc, out, one_line(err)) == (code, "", line)

    def test_verify_without_admissible_draw_exits_one(self, capsys):
        # f1 < 0 at every volume: no draw is admissible, and the run ends
        # with the first draw's error, as a grid whose every cell ended
        rc, out, err = run(capsys, ["verify", "--model", "custom",
                                    "--cv", "2.5", "--f1", "0-1"])
        assert rc == 1
        assert out == ""
        assert one_line(err).startswith(
            "error: f1(V) must be positive, got -1.0 at V=")

    def test_closed_form_without_admissible_state_exits_one(self, capsys):
        # the closed-form locus of --method auto rejects f1 <= 0 as the
        # model's own stack does, instead of reporting an empty locus
        rc, out, err = run(capsys, ["locus", "--model", "custom",
                                    "--f1", "0-1"])
        assert rc == 1
        assert out == ""
        assert one_line(err) == "error: f1(V) must be positive, got -1.0 at V=1.0"

    def test_critical_without_admissible_state_exits_one(self, capsys):
        # no volume of the window is admissible: a domain error, not a
        # monotone locus temperature
        rc, out, err = run(capsys, ["critical", "--model", "custom",
                                    "--f1", "0-1"])
        assert rc == 1
        assert out == ""
        assert one_line(err) == "error: f1(V) must be positive, got -1.0 at V=0.01"


def test_negative_exponent_flag_value(capsys):
    argv = ["geodesic", "--model", "vdw", "--a", "1.5", "--b", "0.2",
            "--r-gas", "2.0", "--cv", "2.5", "--start-s", "2.5",
            "--start-v", "1.4", "--start-sdot", "0.05", "--samples", "5"]
    rc_sep, separate, _ = run(capsys, argv + ["--start-vdot", "-1e-05"])
    rc_eq, joined, _ = run(capsys, argv + ["--start-vdot=-1e-05"])
    assert rc_sep == rc_eq == 0
    assert separate == joined


def test_overflow_is_numeric_failure(capsys):
    rc, _, err = run(capsys, ["curvature-grid", "--model", "custom",
                              "--f1", "exp(1000*V)"])
    assert rc == 3
    assert one_line(err).startswith("numeric failure: ")


def test_zero_to_negative_power_is_a_domain_cell(capsys):
    # f1 has its pole at V = 0.2, the first column: outside the domain
    rc, out, err = run(capsys, ["curvature-grid", *CUSTOM, "--vmin", "0.2",
                                "--n", "3"])
    assert (rc, err) == (0, "")
    rows = grid_rows(out)
    assert [row[1:] for row in rows if row[0] == "0.20000000000000001"] \
        == [["", *["domain"] * 5]] * 3
    assert all("domain" not in row for row in rows
               if row[0] != "0.20000000000000001")


@pytest.mark.parametrize("method", ["auto", "scan"])
def test_locus_from_the_pole_is_a_bad_request(capsys, method):
    # the custom gas has no covolume, so its window may start at the pole
    # of f1; the vdW gas rejects the same window as a bad request too
    rc, out, err = run(capsys, ["locus", *CUSTOM, "--vmin", "0.2",
                                "--vmax", "3", "--n", "4",
                                "--method", method])
    assert (rc, out) == (1, "")
    assert one_line(err) == "error: negative power -0.8 of zero"


def test_deep_nesting_is_expression_error(capsys):
    text = "(" * 2000 + "V" + ")" * 2000
    with pytest.raises(ExpressionError, match="nested too deeply"):
        Expression(text)
    rc, _, err = run(capsys, ["curvature-grid", "--model", "custom",
                              "--f1", text])
    assert rc == 1
    assert one_line(err) == "error: expression is nested too deeply"


def test_allocation_failure_exits_one(capsys, monkeypatch):
    # as numpy reports an allocation it cannot make, without making it
    linspace = np.linspace

    def refuse_huge(start, stop, num=50, **kwargs):
        if num > 10 ** 9:
            raise MemoryError(f"Unable to allocate {8 * num / 2 ** 30:.0f} "
                              f"GiB for an array with shape ({num},)")
        return linspace(start, stop, num, **kwargs)

    monkeypatch.setattr(np, "linspace", refuse_huge)
    rc, out, err = run(capsys, [*GEODESIC, "--samples", "100000000000"])
    assert rc == 1
    assert out == ""
    assert one_line(err) == ("error: out of memory: Unable to allocate 745 "
                             "GiB for an array with shape (100000000000,)")


def test_geodesic_step_collapse_off_the_boundaries_is_numeric_failure(capsys):
    # f1 = 1 - V vanishes at V = 1, past which no state exists; the volume
    # floor (0 for a custom gas) and the locus are far, so the collapse of
    # the step there is an integration failure
    rc, out, err = run(capsys, [
        "geodesic", "--model", "custom", "--cv", "2.5", "--f1", "1-V",
        "--f2", "0.6/V", "--start-s", "1", "--start-v", "0.8",
        "--start-vdot", "0.5"])
    assert rc == 3
    assert out == ""
    assert one_line(err) == ("numeric failure: integration failed: Required "
                             "step size is less than spacing between numbers.")


def test_geodesic_tolerance_under_the_rtol_floor_prints_no_warning(capsys):
    # rtol is raised to 100 machine epsilons, as scipy's RK45 does, but
    # without its two-line UserWarning on stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(capsys, [*GEODESIC, "--start-sdot", "0.05",
                                    "--tol", "1e-15", "--t-end", "0.5",
                                    "--samples", "3"])
    assert (rc, err, caught) == (0, "", [])
    assert "# termination = completed" in out


@pytest.mark.parametrize("states", ["0", "-3"])
def test_verify_without_states_exits_one(capsys, states):
    # a request for no states is a bad flag value, not a numeric failure
    rc, out, err = run(capsys, ["verify", "--model", "ideal",
                                "--states", states])
    assert rc == 1
    assert out == ""
    assert one_line(err) == f"error: need at least 1 state, got {states}"


IDEAL_B = ["--model", "ideal", "--b", "0.5"]


def test_ideal_gas_ignores_the_covolume_flag(capsys):
    # the ideal gas's f1 = V^(-r/cv) has no shift: --b sets no volume floor
    rc, out, err = run(capsys, ["curvature-grid", *IDEAL_B, "--vmin", "0.3",
                                "--vmax", "1.3", "--n", "2"])
    assert (rc, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()
            if not line.startswith("#")][1:]
    assert sorted({float(row[1]) for row in rows}) == [0.3, 1.3]
    assert all(row[-1] == "positive_definite" for row in rows)

    rc, out, err = run(capsys, ["locus", *IDEAL_B, "--vmin", "0.3"])
    assert (rc, err) == (0, "empty locus\n")

    rc, out, err = run(capsys, ["geodesic", *IDEAL_B, "--start-s", "1.5",
                                "--start-v", "0.4", "--start-vdot", "0.1",
                                "--t-end", "1", "--samples", "3"])
    assert (rc, err) == (0, "")
    assert "# termination = completed" in out


VDW = ["--model", "vdw", "--a", "1.5", "--b", "0.2", "--r-gas", "2",
       "--cv", "2.5"]


@pytest.mark.parametrize("argv", [
    ["curvature-grid", *VDW, "--a", "nan", "--n", "2"],
    ["curvature-grid", *VDW, "--r-gas", "nan", "--n", "2"],
    ["curvature-grid", *VDW, "--cv", "nan", "--n", "2"],
    ["curvature-grid", *CUSTOM, "--cv", "nan", "--n", "2"],
    ["critical", *VDW, "--a", "nan"],
    ["locus", *VDW, "--a", "inf"],
    ["curvature-grid", *VDW, "--b", "inf", "--n", "2"],
], ids=["grid-a", "grid-r-gas", "grid-cv", "custom-cv", "critical-a",
        "locus-a", "grid-b"])
def test_non_finite_gas_parameter_exits_one(capsys, argv):
    # nan < 0.0 is false, so NaN slips past the sign checks; a parameter
    # must be finite before any state is built
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (1, "")
    assert one_line(err).startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["verify", "--vmin", "inf", "--vmax", "inf"],
     "error: sample window S 1.0..3.0, V inf..inf must be finite with "
     "smin <= smax and vmin <= vmax"),
    (["verify", "--smin", "3", "--smax", "1"],
     "error: sample window S 3.0..1.0, V 1.0..4.0 must be finite with "
     "smin <= smax and vmin <= vmax"),
    (["locus", "--vmin", "0.1", "--vmax", "inf"],
     "error: bad volume range (0.1, inf)"),
    (["curvature-grid", "--model", "custom", "--f1", "(-(1))^(0.2)"],
     "error: non-integer power 0.2 of negative value -1.0"),
], ids=["verify-inf", "verify-reversed", "locus-inf", "constant-power"])
def test_bad_window_or_constant_exits_one(capsys, argv, message):
    # rejected before numpy warns (inf - inf) or Python folds the constant
    # to a complex number
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(capsys, argv)
    assert (rc, out, caught) == (1, "", [])
    assert one_line(err) == message


@pytest.mark.parametrize("window", [
    ["--smin=-2000", "--smax=-1900", "--a", "0"],
    ["--smin=-700", "--smax=-650", "--a", "0"],
    ["--chart", "tv", "--smin", "1e-120", "--smax", "1e-110", "--a", "1.5"],
    ["--chart", "tv", "--smin", "1e-200", "--smax", "2e-200", "--a", "1.5"],
], ids=["a0-exp-overflow", "a0-cube-underflow", "tv-cube-underflow",
        "tv-square-underflow"])
def test_berthelot_temperature_whose_cube_underflows_exits_one(capsys,
                                                                window):
    # at a = 0 the inversion's zero attraction term must not overflow, and
    # a T^3 that underflows must not reach p_tt as 0/0; every cell is
    # outside the domain, also where T^2 underflows in the entropy
    rc, out, err = run(capsys, ["curvature-grid", "--model", "berthelot",
                                "--b", "0.2", "--r-gas", "2", "--cv", "2.5",
                                "--vmin", "0.3", "--vmax", "10", "--n", "3",
                                *window])
    assert (rc, out) == (1, "")
    line = one_line(err)
    assert line.startswith("error: temperature ")
    assert line.endswith(" is too small: its cube underflows")


def test_berthelot_tv_cells_whose_square_underflows_are_domain(capsys):
    # T = 1e-200 fails its T^3 check before the entropy's T * T underflows
    rc, out, err = run(capsys, ["curvature-grid", "--model", "berthelot",
                                "--a", "1.5", "--b", "0.2", "--r-gas", "2",
                                "--cv", "2.5", "--chart", "tv",
                                "--smin", "1e-200", "--smax", "1",
                                "--vmin", "1", "--vmax", "2", "--n", "2"])
    assert (rc, err) == (0, "")
    rows = grid_rows(out)
    assert [row[1:] for row in rows[:2]] == [["", *["domain"] * 5]] * 2
    assert all("domain" not in row for row in rows[2:])


@pytest.mark.parametrize("argv, message", [
    (["curvature-grid", "--vmin", "0.05", "--vmax", "0.1"],
     "error: volume range 0.05..0.1 lies outside the admissible domain "
     "V > 0.2"),
    (["verify", "--vmin", "0.05", "--vmax", "0.1"],
     "error: volume range 0.05..0.1 lies outside the admissible domain "
     "V > 0.2"),
    (["curvature-grid", "--chart", "tv", "--smin=-2", "--smax=-1"],
     "error: temperature range must be positive"),
    (["curvature-grid", "--chart", "tv", "--smin=-2", "--smax", "0"],
     "error: temperature range must be positive"),
    (["surface", "--chart", "tv", "--smin=-2", "--smax=-1"],
     "error: temperature range must be positive"),
    (["surface", "--chart", "tv", "--smin=-2", "--smax", "0"],
     "error: temperature range must be positive"),
], ids=["grid-below-covolume", "verify-below-covolume", "grid-t-negative",
        "grid-t-zero", "surface-t-negative", "surface-t-zero"])
def test_window_that_clipping_cannot_mend_exits_one(capsys, argv, message):
    # vmin at or below b is raised 5% of the way to vmax, and T_min <= 0 to
    # 5% of T_max; a window that clipping would empty is refused instead
    rc, out, err = run(capsys, [argv[0], *VDW, *argv[1:]])
    assert (rc, out) == (1, "")
    assert one_line(err) == message


def test_clipped_window_that_fails_prints_only_its_error(capsys):
    # vmin is clipped to the covolume, then the s axis overflows: the
    # clipping warning belongs to a grid that runs, so none is printed
    rc, out, err = run(capsys, ["curvature-grid", "--model", "vdw",
                                "--b", "0.5", "--vmin", "0.1", "--vmax", "1",
                                "--smin=-1e308", "--smax=1e308"])
    assert (rc, out) == (1, "")
    assert err == "error: s range is too wide: its grid overflows\n"


def test_geodesic_with_an_overflowing_start_fails_at_once(capsys):
    # f1 = V^-133 at V = 0.0625: det overflows, the right-hand side is NaN
    # from the start, and so is the first step size; the solver used to
    # retry that NaN step for ever
    rc, out, err = run(capsys, ["geodesic", "--model", "ideal",
                                "--cv=0.0625", "--start-s=0.0",
                                "--start-v=0.0625", "--t-end=1.0"])
    assert (rc, out) == (3, "")
    assert one_line(err) == ("numeric failure: integration failed: Required "
                             "step size is less than spacing between numbers.")


@pytest.mark.parametrize("velocity", [["--start-sdot=1e200", "--start-vdot=0"],
                                      ["--start-sdot=1e300",
                                       "--start-vdot=1e300"]])
def test_geodesic_with_an_overflowing_velocity_prints_one_line(capsys,
                                                               velocity):
    # the error norm (and, at 1e300, the first step's) overflows; the
    # solver goes on with inf and NaN as float arithmetic does, without a
    # numpy warning, until the step collapses
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(capsys, [*GEODESIC, *velocity])
    assert (rc, out, caught) == (3, "", [])
    assert one_line(err) == ("numeric failure: integration failed: Required "
                             "step size is less than spacing between numbers.")


@pytest.mark.parametrize("t_end", ["0", "10"])
@pytest.mark.parametrize("velocity,field", [("--start-sdot=nan", "s_dot"),
                                            ("--start-vdot=inf", "v_dot")])
def test_geodesic_with_a_non_finite_start_velocity_exits_one(capsys, velocity,
                                                             field, t_end):
    # integrate_geodesic checks the start before any solver runs, so a zero
    # span, which runs none, cannot print NaN rows
    rc, out, err = run(capsys, [*GEODESIC, velocity, f"--t-end={t_end}"])
    assert (rc, out) == (1, "")
    assert one_line(err).startswith(f"error: start {field} must be finite")
