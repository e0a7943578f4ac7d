"""Failure paths of the command line: exit codes and one-line messages.

Every case goes through ``main(argv)``; a failure must end in its
documented exit code with a single stderr line, never a traceback.
"""
import pytest

from thermogeom.cli import main
from thermogeom.expressions import Expression, ExpressionError

CUSTOM = ["--model", "custom", "--cv", "2.5",
          "--f1", "(V-0.2)^-0.8", "--f2", "0.6/V"]


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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
        assert Expression("(V-1)^3")(0.5) == -0.125

    def test_custom_critical_skips_volumes_below_covolume(self, capsys):
        # the default volume window starts below b = 0.2
        rc, out, _ = run(capsys, ["critical", *CUSTOM])
        assert rc == 0
        values = dict(line.split(" = ") for line in out.splitlines())
        assert float(values["V_c"]) == pytest.approx(0.6, rel=1e-8)
        assert float(values["T_c"]) == pytest.approx(
            8.0 * 1.5 / (27.0 * 0.2 * 2.0), rel=1e-8)

    @pytest.mark.parametrize("command", ["curvature-grid", "locus"])
    def test_window_below_covolume_exits_one(self, capsys, command):
        rc, out, err = run(capsys, [command, *CUSTOM, "--vmin", "0.1"])
        assert rc == 1
        assert out == ""
        assert one_line(err).startswith("error: ")

    def test_scan_without_admissible_state_exits_one(self, capsys):
        # f1 < 0 at every volume: no state of the window exists, which is
        # a domain error, not an empty locus
        rc, out, err = run(capsys, ["locus", "--model", "custom",
                                    "--f1", "0-1", "--method", "scan"])
        assert rc == 1
        assert out == ""
        assert one_line(err).startswith("error: no admissible state")

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


def test_zero_to_negative_power_is_numeric_failure(capsys):
    rc, _, err = run(capsys, ["curvature-grid", *CUSTOM, "--vmin", "0.2"])
    assert rc == 3
    assert one_line(err).startswith("numeric failure: ")


def test_deep_nesting_is_expression_error(capsys):
    text = "(" * 2000 + "V" + ")" * 2000
    with pytest.raises(ExpressionError, match="nested too deeply"):
        Expression(text)
    rc, _, err = run(capsys, ["curvature-grid", "--model", "custom",
                              "--f1", text])
    assert rc == 1
    assert one_line(err) == "error: expression is nested too deeply"
