"""End-to-end checks of the command-line interface.

Everything goes through ``main(argv)`` so exit codes and emitted text are
exercised exactly as a shell user would see them.
"""
import argparse
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import thermogeom
from thermogeom import Berthelot, ConstantCv, ConstitutiveModel, cli
from thermogeom.cli import build_parser, main
from thermogeom.critical_locus import locus_entropy
from thermogeom.geodesics import STEP_BUDGET

from golden import cases

VDW_FLAGS = ["--model", "vdw", "--a", "1.5", "--b", "0.2",
             "--r-gas", "2.0", "--cv", "2.5"]


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    """Split a CSV payload into (meta, notes, rows-as-dicts)."""
    meta = {}
    notes = []
    body = []
    for line in text.splitlines():
        if line.startswith("# note:"):
            notes.append(line[len("# note:"):].strip())
        elif line.startswith("# ") and " = " in line:
            key, _, value = line[2:].partition(" = ")
            meta[key.strip()] = value.strip()
        elif not line.startswith("#"):
            body.append(line)
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    return meta, notes, rows


class TestArgumentErrors:
    @pytest.mark.parametrize("argv", [
        [],
        ["no-such-command"],
        ["curvature-grid", "--model", "bogus"],
        ["geodesic", "--start-v", "1.0"],  # --start-s is required
        ["curvature-grid", "--n", "many"],
        # critical and verify print text whatever the format: no --format
        ["critical", "--format", "svg", *VDW_FLAGS],
        ["verify", "--format", "svg"],
    ])
    def test_bad_usage_exits_one(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "thermogeom" in capsys.readouterr().out


class TestValidationFailures:
    @pytest.mark.parametrize("argv", [
        ["curvature-grid", "--n", "1"],
        ["curvature-grid", "--smin", "3.0", "--smax", "1.0"],
        ["curvature-grid", "--model", "vdw", "--a", "-1.0"],
        ["curvature-grid", "--config", "/nonexistent/cfg"],
        ["curvature-grid", "--model", "custom", "--cv", "2.0"],
    ])
    def test_returns_one_with_message(self, capsys, argv):
        rc, _, err = run(capsys, argv)
        assert rc == 1
        assert "error:" in err

    @pytest.mark.parametrize("body", [
        "unknown_key = 1.0\n",
        "a = not-a-number\n",
    ])
    def test_bad_config_file(self, capsys, tmp_path, body):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(body)
        rc, _, err = run(capsys, ["curvature-grid", "--config", str(cfg)])
        assert rc == 1
        assert "error:" in err


class TestCurvatureGrid:
    def test_ideal_csv_layout(self, capsys):
        rc, out, _ = run(capsys, ["curvature-grid", "--n", "5"])
        assert rc == 0
        meta, notes, rows = parse_csv(out)
        assert out.startswith("# thermogeom ")
        assert len(rows) == 25
        assert list(rows[0]) == ["s", "v", "det", "r_tensorial",
                                 "r_closed2d", "r_elementary",
                                 "r_model_closed", "signature"]
        for row in rows:
            assert abs(float(row["r_closed2d"])) < 1e-10
            assert float(row["det"]) > 0.0
            assert row["signature"] == "positive_definite"

    def test_meta_header_sorted(self, capsys):
        _, out, _ = run(capsys, ["curvature-grid", "--n", "3"])
        keys = [line[2:].split(" = ")[0] for line in out.splitlines()
                if line.startswith("# ") and " = " in line]
        assert keys == sorted(keys)

    def test_deterministic_output(self, capsys):
        argv = ["curvature-grid", *VDW_FLAGS, "--smin", "2.2",
                "--smax", "3.0", "--vmin", "0.9", "--vmax", "1.3",
                "--n", "7"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        argv = ["curvature-grid", "--n", "4"]
        _, streamed, _ = run(capsys, argv)
        rc, _, _ = run(capsys, argv + ["--out", str(target)])
        assert rc == 0
        assert target.read_text() == streamed

    def test_temperature_chart_column(self, capsys):
        rc, out, _ = run(capsys, ["curvature-grid", "--chart", "tv",
                                  "--n", "3"])
        assert rc == 0
        _, _, rows = parse_csv(out)
        assert list(rows[0])[0] == "t"

    def test_custom_model_gets_closed_form(self, capsys):
        rc, out, _ = run(capsys, [
            "curvature-grid", "--model", "custom", "--cv", "2.5",
            "--f1", "(V-0.2)^-0.8", "--f2", "0.6/V",
            "--smin", "2.2", "--smax", "3.0",
            "--vmin", "0.9", "--vmax", "1.3", "--n", "4"])
        assert rc == 0
        _, _, rows = parse_csv(out)
        for row in rows:
            closed = float(row["r_model_closed"])
            assert closed == pytest.approx(float(row["r_tensorial"]),
                                           rel=1e-8)

    @pytest.mark.parametrize("window", [
        ["--smin", "20", "--smax", "25", "--vmin", "5", "--vmax", "7",
         "--n", "4"],
        ["--smin", "-300", "--smax", "-250", "--vmin", "0.3", "--vmax", "10"],
    ])
    def test_berthelot_inverts_at_high_and_low_entropy(self, capsys, window):
        # every cell inverts S(T, V) = s: at high entropy (T ~ 1e3-1e5) and
        # at low entropy, where the attraction a/(V T^2) carries S
        rc, out, _ = run(capsys, [
            "curvature-grid", "--model", "berthelot", "--a", "1.5",
            "--b", "0.2", "--r-gas", "2", "--cv", "2.5", *window])
        assert rc == 0
        _, _, rows = parse_csv(out)
        assert rows
        assert all(row["signature"] != "domain" for row in rows)


class TestLocus:
    def test_vdw_rows_sit_on_locus(self, capsys, vdw_model):
        rc, out, _ = run(capsys, ["locus", *VDW_FLAGS, "--n", "9"])
        assert rc == 0
        _, notes, rows = parse_csv(out)
        assert len(rows) == 9
        assert any(note.startswith("branch:") for note in notes)
        for row in rows[:3]:
            v = float(row["v"])
            assert float(row["s"]) == pytest.approx(
                locus_entropy(vdw_model, v), rel=1e-9)

    def test_ideal_locus_is_empty(self, capsys):
        rc, out, err = run(capsys, ["locus", "--model", "ideal"])
        assert rc == 0
        assert "empty locus" in err
        _, notes, rows = parse_csv(out)
        assert rows == []
        assert any("empty locus" in note for note in notes)

    @pytest.mark.parametrize("method", ["auto", "scan"])
    def test_volumes_without_a_point_are_left_out(self, capsys, method):
        # the locus exists where f2'' > 0, below V = 6^(1/3): four of the
        # six volumes have a point
        rc, out, err = run(capsys, [
            "locus", "--model", "custom", "--cv", "2.5",
            "--f1", "(V-0.2)^-0.8", "--f2", "0.6/V-0.1*V^2",
            "--vmin", "0.5", "--vmax", "3", "--n", "6", "--method", method])
        assert (rc, err) == (0, "")
        _, notes, rows = parse_csv(out)
        assert [row["v"] for row in rows] == [
            "0.5", "0.71548454055262778", "1.0238362555396097",
            "1.4650780257917608"]
        assert notes == ["branch: principal", "parameterized by volume; "
                         "no locus point at 2 of 6 volumes"]

    def test_svg_output_is_xml(self, capsys):
        rc, out, _ = run(capsys, ["locus", *VDW_FLAGS, "--format", "svg"])
        assert rc == 0
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")


class TestCritical:
    def test_vdw_matches_closed_form(self, capsys, tmp_path):
        target = tmp_path / "crit.json"
        rc, out, _ = run(capsys,
                         ["critical", *VDW_FLAGS, "--out", str(target)])
        assert rc == 0
        assert out.count("match") == 3
        assert "MISMATCH" not in out
        doc = json.loads(target.read_text())
        assert doc["v_c"] == pytest.approx(0.6, rel=1e-10)
        assert doc["p_c"] == pytest.approx(1.5 / (27 * 0.04), rel=1e-8)

    def test_berthelot_reports_negative_branch(self, capsys):
        rc, out, _ = run(capsys, ["critical", "--model", "berthelot",
                                  "--a", "1.5", "--b", "0.2",
                                  "--r-gas", "2.0", "--cv", "2.5"])
        assert rc == 0
        assert "negative branch" in out

    def test_ideal_has_none(self, capsys):
        rc, out, _ = run(capsys, ["critical", "--model", "ideal"])
        assert rc == 0
        assert "no critical point" in out

    @pytest.mark.parametrize("stale", [False, True])
    def test_none_is_reported_to_out(self, capsys, tmp_path, stale):
        # the report is written, over an earlier run's file too, with its
        # result fields null and the printed message
        target = tmp_path / "crit.json"
        if stale:
            run(capsys, ["critical", *VDW_FLAGS, "--out", str(target)])
        rc, out, _ = run(capsys, ["critical", "--model", "ideal", "--out",
                                  str(target)])
        assert (rc, out) == (0, "no critical point: degeneracy locus is "
                                "empty\n")
        doc = json.loads(target.read_text())
        assert doc["meta"]["model"] == "ideal"
        assert doc["message"] == out.rstrip("\n")
        assert [doc[k] for k in ("v_c", "p_c", "t_c", "negative_branch",
                                 "closed_form")] == [None] * 5

    @pytest.mark.parametrize("model", ["vdw", "berthelot"])
    @pytest.mark.parametrize("a, b, message", [
        ("0", "0.2", "degeneracy locus is empty"),
        ("1.5", "0", "locus temperature is monotone over the window"),
    ])
    def test_numeric_without_attraction_or_covolume(self, capsys, model, a,
                                                    b, message):
        # both gases end the closed-form locus's numeric branch alike
        rc, out, _ = run(capsys, ["critical", "--model", model, "--a", a,
                                  "--b", b, "--r-gas", "2.0", "--cv", "2.5",
                                  "--method", "numeric"])
        assert rc == 0
        assert out == f"no critical point: {message}\n"

    def test_no_locus_beside_inadmissible_volumes_is_empty(self, capsys):
        # f2 is affine, so dT/dV along the locus is 0 above the pole of f1
        # and a gap below it: the locus is empty, not monotone
        rc, out, _ = run(capsys, ["critical", "--model", "custom", "--cv",
                                  "2.5", "--f1", "(V-0.5)^-0.8", "--f2",
                                  "0.6*V"])
        assert (rc, out) == (0, "no critical point: degeneracy locus is "
                                "empty\n")


class TestGeodesic:
    ARGV = ["geodesic", *VDW_FLAGS, "--start-s", "2.5", "--start-v", "1.4",
            "--start-sdot", "0.05", "--start-vdot", "0.1",
            "--t-end", "2.0", "--samples", "21"]

    def test_trace_speed_constant(self, capsys):
        rc, out, _ = run(capsys, self.ARGV)
        assert rc == 0
        meta, notes, rows = parse_csv(out)
        assert len(rows) == 21
        assert meta["termination"] == "completed"
        assert "termination: completed" in notes
        speeds = [float(row["speed"]) for row in rows]
        for spd in speeds:
            assert spd == pytest.approx(speeds[0], rel=1e-8)
        assert float(rows[0]["t"]) == 0.0
        assert float(rows[-1]["t"]) == 2.0

    def test_singular_start_is_numeric_failure(self, capsys, vdw_model):
        s_star = locus_entropy(vdw_model, 1.2)
        rc, _, err = run(capsys, [
            "geodesic", *VDW_FLAGS, "--start-s", repr(s_star),
            "--start-v", "1.2", "--t-end", "1.0"])
        assert rc == 3
        assert "numeric failure:" in err

    def test_start_inside_the_guard_band_stops_at_once(self, capsys,
                                                       vdw_model):
        s = locus_entropy(vdw_model, 1.2) + 1e-6
        rc, out, _ = run(capsys, [
            "geodesic", *VDW_FLAGS, "--start-s", repr(s), "--start-v", "1.2",
            "--start-sdot", "-0.3", "--t-end", "1.0", "--samples", "3"])
        assert rc == 0
        meta, notes, rows = parse_csv(out)
        assert meta["termination"] == "locus_proximity"
        assert "termination: locus_proximity" in notes
        assert [float(row["t"]) for row in rows] == [0.0]

    @pytest.mark.parametrize("case", ["zero span", "guard band"])
    def test_one_node_run_prints_one_row(self, capsys, vdw_model, case):
        # a run that is its start alone prints the start once, whatever
        # --samples asks for
        s, v, t_end = ((2.5, 1.4, 0.0) if case == "zero span" else
                       (locus_entropy(vdw_model, 1.2) + 1e-6, 1.2, 1.0))
        rc, out, _ = run(capsys, [
            "geodesic", *VDW_FLAGS, "--start-s", repr(s), "--start-v",
            repr(v), "--start-sdot", "-0.3", "--t-end", repr(t_end)])
        assert rc == 0
        _, _, rows = parse_csv(out)
        assert [(float(row["t"]), float(row["s"]), float(row["v"]))
                for row in rows] == [(0.0, s, v)]

    def test_svg_output_is_xml(self, capsys):
        rc, out, _ = run(capsys, self.ARGV[:-2] + ["--format", "svg"])
        assert rc == 0
        assert ET.fromstring(out).tag.endswith("svg")


class TestSurface:
    def test_ideal_everywhere_tangent(self, capsys):
        rc, out, _ = run(capsys, ["surface", "--n", "4"])
        assert rc == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 16
        for row in rows:
            assert row["radial_class"] == "tangent"
            assert abs(float(row["model_surface_residual"])) < 1e-10

    def test_vdw_convex_with_tiny_residual(self, capsys):
        rc, out, _ = run(capsys, [
            "surface", *VDW_FLAGS, "--smin", "2.2", "--smax", "3.0",
            "--vmin", "0.9", "--vmax", "1.3", "--n", "6"])
        assert rc == 0
        _, _, rows = parse_csv(out)
        assert {row["radial_class"] for row in rows} == {"radially_convex"}
        for row in rows:
            assert float(row["pairing"]) < 0.0
            assert abs(float(row["model_surface_residual"])) < 1e-12


@pytest.fixture
def stack_calls(monkeypatch):
    """The states of every derivative_stack call, in call order."""
    calls = []
    for cls in (ConstantCv, Berthelot):
        def counted(model, state, *, _original=cls.derivative_stack,
                    **kwargs):
            calls.append(state)
            return _original(model, state, **kwargs)
        monkeypatch.setattr(cls, "derivative_stack", counted)
    return calls


@pytest.fixture
def array_calls(monkeypatch):
    """The broadcast shape of the states of every array_stack call, in
    call order: (n1, n2) for a grid's two axes, (n,) for a flat list."""
    calls = []

    def counted(model, chart, x1, x2, *,
                _original=ConstitutiveModel.array_stack):
        calls.append(np.broadcast(x1, x2).shape)
        return _original(model, chart, x1, x2)
    monkeypatch.setattr(ConstitutiveModel, "array_stack", counted)
    return calls


class TestOneStackPerCell:
    """Every route of a grid cell is fed from one derivative stack, and the
    stacks of all cells come from one array pass over the grid."""

    N = 4
    # the golden windows straddle the degeneracy locus, so definite and
    # indefinite cells both occur
    MODELS = {
        "vdw-sv": [*cases.VDW, *cases.VDW_SV],
        "vdw-tv": [*cases.VDW, *cases.VDW_TV],
        "custom-sv": [*cases.CUSTOM, *cases.VDW_SV],
        "custom-tv": [*cases.CUSTOM, *cases.VDW_TV],
        "berthelot-sv": [*cases.BERTHELOT, *cases.BERTHELOT_SV],
        "berthelot-tv": [*cases.BERTHELOT, *cases.BERTHELOT_TV],
        "ideal-sv": cases.IDEAL,
        "ideal-tv": [*cases.IDEAL, *cases.IDEAL_TV],
    }

    @pytest.mark.parametrize("command", ["curvature-grid", "surface"])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_stack_calls_per_grid(self, capsys, stack_calls, array_calls,
                                  command, model):
        rc, out, _ = run(capsys, [command, *self.MODELS[model],
                                  "--n", str(self.N)])
        assert rc == 0
        assert len(parse_csv(out)[2]) == self.N ** 2
        # the axes, broadcast against each other only inside the pass
        assert array_calls == [(self.N, self.N)]
        assert stack_calls == []


@pytest.mark.parametrize("case", ["geodesic-vdw-csv",
                                  "geodesic-berthelot-csv"])
def test_geodesic_samples_read_the_hessian_alone(capsys, monkeypatch,
                                                stack_calls, array_calls,
                                                case):
    # the integration evaluates the start's stack (each stage reads the
    # Hessian alone); after it, each sample reads the Hessian once, as a
    # stage does, and takes no array pass and no stack of its own
    fields, during = [], []
    for cls in (ConstantCv, Berthelot):
        def counted(model, chart, x1, v, _original=cls._fields):
            fields.append((x1, v))
            return _original(model, chart, x1, v)
        monkeypatch.setattr(cls, "_fields", counted)

    def integrate(*args, _original=cli.integrate_geodesic, **kwargs):
        traj = _original(*args, **kwargs)
        during.append((len(stack_calls), len(fields)))
        return traj
    monkeypatch.setattr(cli, "integrate_geodesic", integrate)
    rc, out, _ = run(capsys, [*cases.CASES[case], "--samples", "37"])
    assert rc == 0
    rows = parse_csv(out)[2]
    assert len(rows) == 37
    assert all(row["speed"] for row in rows)
    assert array_calls == []
    assert during[0][0] > 0
    assert len(stack_calls) == during[0][0]
    assert len(fields) - during[0][1] == 37


def test_singular_states_leave_the_array_pass(stack_calls, array_calls,
                                              vdw_model):
    # the first state lies on the degeneracy locus, so it fails the stack
    # check: the array pass raises and the scalar route tells the states
    # apart, the first one's stack raised
    s = [locus_entropy(vdw_model, 1.2), 2.5]
    value, ended = cli._each_state(vdw_model, cli.Chart.ENTROPY_VOLUME,
                                   np.array(s), np.array([1.2, 1.4]),
                                   lambda st: st.e11)
    assert [type(error).__name__ for error, _ in ended] \
        == ["SingularState", "NoneType"]
    assert [in_stack for _, in_stack in ended] == [True, False]
    assert array_calls == [(2,)]
    assert len(stack_calls) == 2
    # the ended state repeats the second state's value
    second = cli.StatePoint.entropy_volume(2.5, 1.4)
    assert value == [vdw_model.derivative_stack(second).e11] * 2


class TestOneStackPerVerifyState:
    """The states of a verify batch come from one array pass, and every
    check reads that pass's stack: no state is evaluated on the scalar
    route."""

    N = 10
    MODELS = {"ideal": cases.IDEAL, "vdw": cases.VDW,
              "berthelot": cases.BERTHELOT, "custom": cases.CUSTOM}

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_stack_calls_per_state(self, capsys, stack_calls, array_calls,
                                   model):
        rc, out, _ = run(capsys, ["verify", *self.MODELS[model],
                                  "--states", str(self.N)])
        assert rc == 0
        assert out.count("PASS") >= 7
        # every probe of these windows is admissible: one batch of N
        assert array_calls == [(self.N,)]
        assert stack_calls == []

    def test_batches_are_bounded(self):
        # a huge --states asks for one bounded batch of draws at a time;
        # the first request ends the run before anything is drawn
        sizes = []

        class Drawn(Exception):
            pass

        class Rng:
            def uniform(self, lo, hi):
                sizes.append((len(lo), len(hi)))
                raise Drawn

        eff = cli._effective_config(build_parser().parse_args(["verify"]))
        with pytest.raises(Drawn):
            cli._verify_checks(cli._build_model(eff), eff, Rng(), 10 ** 15)
        assert sizes == [(2 * cli._VERIFY_BATCH, 2 * cli._VERIFY_BATCH)]
        assert cli._VERIFY_BATCH <= 1024


class TestVerify:
    @pytest.mark.parametrize("extra", [
        ["--model", "ideal"],
        VDW_FLAGS,
        ["--model", "berthelot", "--a", "1.5", "--b", "0.2",
         "--r-gas", "2.0", "--cv", "2.5"],
    ])
    def test_all_checks_pass(self, capsys, extra):
        rc, out, _ = run(capsys, ["verify", *extra])
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 7

    def test_json_report(self, capsys, tmp_path):
        target = tmp_path / "verify.json"
        rc, _, _ = run(capsys, ["verify", *VDW_FLAGS, "--seed", "3",
                                "--states", "10", "--out", str(target)])
        assert rc == 0
        doc = json.loads(target.read_text())
        assert all(chk["pass"] for chk in doc["checks"])
        assert all(chk["residual"] <= chk["tol"] for chk in doc["checks"])


    @pytest.mark.parametrize("window, ran", [
        (["--vmin", "0.25", "--vmax", "0.28"], True),
        (["--vmin", "5", "--vmax", "1"], False),
        (["--a", "1.5e-12", "--b", "2e-7", "--vmin", "1e-6", "--vmax",
          "4e-6"], True),
    ], ids=["near-covolume", "reversed", "small-units"])
    def test_samples_only_its_window(self, monkeypatch, capsys, window, ran):
        volumes = []

        def array_stack(model, chart, x1, x2, *,
                        _original=ConstitutiveModel.array_stack):
            volumes.extend(np.ravel(x2).tolist())
            return _original(model, chart, x1, x2)

        def derivative_stack(model, state, *,
                             _original=ConstantCv.derivative_stack,
                             **kwargs):
            volumes.append(state.x2)
            return _original(model, state, **kwargs)
        monkeypatch.setattr(ConstitutiveModel, "array_stack", array_stack)
        monkeypatch.setattr(ConstantCv, "derivative_stack", derivative_stack)
        argv = ["verify", *VDW_FLAGS, *window, "--states", "20"]
        rc, _, err = run(capsys, argv)
        # a run exits 0, or 2 where an absolute tolerance fails in small
        # units; a reversed window is a bad request
        assert (rc in (0, 2), rc == 1) == (ran, not ran), err
        vmin = float(argv[argv.index("--vmin") + 1])
        vmax = float(argv[argv.index("--vmax") + 1])
        assert all(vmin <= v <= vmax for v in volumes)
        assert bool(volumes) == ran


class TestConfigPrecedence:
    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\n"
                       "model = vdw\n"
                       "a = 9.9\n"
                       "b = 0.2\n"
                       "r_gas = 2.0\n"
                       "cv0 = 2.5\n")
        rc, out, _ = run(capsys, ["curvature-grid", "--config", str(cfg),
                                  "--a", "1.5", "--smin", "2.2",
                                  "--smax", "3.0", "--vmin", "0.9",
                                  "--vmax", "1.3", "--n", "3"])
        assert rc == 0
        meta, _, _ = parse_csv(out)
        assert float(meta["a"]) == 1.5
        assert float(meta["b"]) == 0.2
        assert meta["model"] == "vdw"

    def test_config_supplies_model(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = ideal\nr_gas = 1.0\ncv0 = 1.5\n")
        rc, out, _ = run(capsys, ["curvature-grid", "--config", str(cfg),
                                  "--n", "3"])
        assert rc == 0
        meta, _, _ = parse_csv(out)
        assert meta["model"] == "ideal"
        assert float(meta["r_gas"]) == 1.0


class TestEachCommandTakesWhatItReads:
    """Each command takes only the flags it reads, and its header echoes
    each of them, less the --out and --config paths."""

    REQUIRED = {"geodesic": ["--start-s", "2.5", "--start-v", "1.4",
                             "--t-end", "0.5", "--samples", "3"],
                "curvature-grid": ["--n", "2"], "surface": ["--n", "2"],
                "locus": ["--vmin", "0.3", "--vmax", "3", "--n", "2"],
                "verify": ["--states", "2"]}
    # what the run found, beside what it read
    RESULTS = {"geodesic": {"termination"}}
    # flag-command pairs that each command refuses
    REFUSED = {
        "locus": ["--chart", "--smin", "--smax"],
        "critical": ["--chart", "--smin", "--smax", "--vmin", "--vmax", "--n",
                     "--format"],
        "geodesic": ["--chart", "--smin", "--smax", "--vmin", "--vmax",
                     "--n"],
        "verify": ["--chart", "--n", "--format"],
    }
    VALUES = {"--chart": "sv", "--n": "3", "--format": "csv"}

    @staticmethod
    def subparser(command):
        action = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
        return action.choices[command]

    @pytest.mark.parametrize("model", ["vdw", "custom"])
    @pytest.mark.parametrize("command", ["curvature-grid", "surface", "locus",
                                         "critical", "geodesic", "verify"])
    def test_header_echoes_every_flag_read(self, capsys, tmp_path, command,
                                           model):
        cfg, target = tmp_path / "run.cfg", tmp_path / "out"
        cfg.write_text("u0 = 0.5\n")
        gas = VDW_FLAGS if model == "vdw" else cases.CUSTOM
        rc, _, _ = run(capsys, [command, *gas, *self.REQUIRED.get(command, []),
                                "--config", str(cfg), "--out", str(target)])
        assert rc == 0
        text = target.read_text()
        if command in ("critical", "verify"):
            header = set(json.loads(text)["meta"])
        else:
            assert text.startswith(f"# thermogeom {thermogeom.__version__}\n")
            header = set(parse_csv(text)[0]) | {"version"}
        dests = {action.dest for action in self.subparser(command)._actions}
        expected = (dests - {"help", "out", "config"}
                    - ({"f1", "f2"} if model == "vdw" else set())
                    | {"u0", "s0", "command", "version"}
                    | self.RESULTS.get(command, set()))
        assert {"model", "a", "b", "r_gas", "cv0"} <= dests
        assert header == expected

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in REFUSED.items()
        for flag in flags])
    def test_flag_it_does_not_read_exits_one(self, capsys, command, flag):
        argv = [command, *VDW_FLAGS, *self.REQUIRED.get(command, []),
                flag, self.VALUES.get(flag, "1.0")]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err


# a grid's axes: finite floats, with the extremes of the range
AXIS_VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([-0.0, 5e-324, -5e-324, 1e308,
                                         -1e308]))
# the fields after a grid's axis columns, as lists or as tuples
AXIS_FIELDS = st.one_of(
    st.floats(), st.none(), st.booleans(), st.integers(), st.text(),
    st.sampled_from([math.nan, math.inf, -math.inf, '"', "\n", "%s",
                     "],\n      [", "\\", "é → ☃", ""]))


@st.composite
def axis_tables(draw):
    """Two axes and one row of fields per cell, row-major."""
    x1 = draw(st.lists(AXIS_VALUES, min_size=1, max_size=4))
    x2 = draw(st.lists(AXIS_VALUES, min_size=1, max_size=4))
    width = draw(st.integers(0, 5))
    row = st.lists(AXIS_FIELDS, min_size=width, max_size=width)
    fields = draw(st.lists(st.one_of(row, row.map(tuple)),
                           min_size=len(x1) * len(x2),
                           max_size=len(x1) * len(x2)))
    return x1, x2, fields


# two axes and each cell's fields: extreme axis values, rows of every
# field type and width, and a string that looks like a JSON row separator
AXIS_TABLE = ([-0.0, 5e-324, 1e308], [-1e308, 1.0 / 3.0],
              [(math.nan, None, "degenerate"), [True, 7, -math.inf], (),
               ['100%s "quoted"\nline', "],\n      [", 0.1], (None,),
               [math.inf]])


def with_axes(x1, x2, fields):
    """The full rows of a grid table: each cell's axis values, then its
    fields."""
    return [[a, b, *f] for (a, b), f in zip(itertools.product(x1, x2),
                                            fields)]


class TestCsvRows:
    """A CSV row is printed through one %-template; it is byte for byte
    the per-cell ``_fmt`` join it replaces.  With a grid's axes, the axis
    values are formatted once and each row carries its fields alone."""

    ROWS = [
        [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, 1.0 / 3.0],
        [1.5, "singular", None, "degenerate", -2.5e-300, None,
         "positive_definite", None],
        [None, None, None],
        ["100%s", True, 7, np.float64(0.1), -np.float64(0.0)],
        [],
    ]

    @staticmethod
    def _per_cell(rows):
        return [",".join("" if cell is None else cli._fmt(cell)
                         for cell in row) for row in rows]

    @staticmethod
    def _rendered(rows):
        text = cli._render_csv({"version": "0"}, ["c"], rows)
        return text.splitlines()[2:] if rows else []

    def test_mixed_rows(self):
        assert self._rendered(self.ROWS) == self._per_cell(self.ROWS)

    @settings(max_examples=300)
    @given(st.lists(st.lists(st.one_of(
        st.floats(), st.none(),
        st.sampled_from(["singular", "degenerate", "frame_singular"])),
        min_size=1, max_size=8), min_size=1, max_size=4))
    def test_random_rows(self, rows):
        assert self._rendered(rows) == self._per_cell(rows)

    @staticmethod
    def _per_cell_text(rows):
        return "\n".join(["# thermogeom 0", "c",
                          *TestCsvRows._per_cell(rows)]) + "\n"

    @settings(max_examples=300)
    @given(axis_tables())
    @example(AXIS_TABLE)
    def test_axis_rows(self, table):
        text = cli._render_csv({"version": "0"}, ["c"], table[2],
                               axes=table[:2])
        assert text == self._per_cell_text(with_axes(*table))


class TestJsonRows:
    """A JSON table's rows go through the C encoder and are spliced into
    the document, which stays byte for byte
    ``json.dumps(doc, indent=2, sort_keys=True)``."""

    CELLS = st.one_of(
        st.floats(), st.none(), st.booleans(), st.integers(), st.text(),
        st.sampled_from([-0.0, math.nan, math.inf, -math.inf, '"', "\n",
                         "],\n      [", "[]", "{}", "\\", "é → ☃", ""]))
    META = {"version": "0", "command": "curvature-grid", "f1": "1-V"}

    @staticmethod
    def _dumped(meta, columns, rows, notes):
        doc = {"meta": meta, "columns": columns, "rows": rows}
        if notes:
            doc["notes"] = notes
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("notes", [None, [], ["termination: completed"]])
    @pytest.mark.parametrize("rows", [
        [], [[]], [[1.0], []], [[], [None, -0.0]],
        [[0.0, -0.0, math.nan, math.inf, -math.inf, None, 7, True,
          "degenerate", 'a "quoted"\nline', "[1, 2]", "Ünïcödé"]],
    ])
    def test_tables(self, rows, notes):
        assert cli._render_json(self.META, ["s", "v"], rows, notes) \
            == self._dumped(self.META, ["s", "v"], rows, notes)

    @settings(max_examples=300)
    @given(rows=st.lists(st.lists(CELLS, max_size=6), max_size=5),
           notes=st.one_of(st.none(), st.lists(st.text(), max_size=3)))
    def test_random_tables(self, rows, notes):
        columns = [f"c{i}" for i in range(max(map(len, rows), default=0))]
        assert cli._render_json(self.META, columns, rows, notes) \
            == self._dumped(self.META, columns, rows, notes)

    @settings(max_examples=300)
    @given(table=axis_tables(),
           notes=st.one_of(st.none(), st.lists(st.text(), max_size=3)))
    @example(AXIS_TABLE, None)
    @example(AXIS_TABLE, ["termination: completed"])
    def test_axis_tables(self, table, notes):
        rows = with_axes(*table)
        columns = [f"c{i}" for i in range(len(rows[0]))]
        assert cli._render_json(self.META, columns, table[2], notes,
                                table[:2]) \
            == self._dumped(self.META, columns, rows, notes)


def _per_cell_heatmap(meta, x1, x2, cells):
    """The heatmap as it was drawn before, one formatted rectangle a cell."""
    n1, n2 = len(x1), len(x2)
    cw = (cli._WIDTH - 2 * cli._MARGIN) / n2
    ch = (cli._HEIGHT - 2 * cli._MARGIN) / n1
    return cli._svg(meta, [
        f'<rect x="{cli._MARGIN + j * cw:.2f}" '
        f'y="{cli._HEIGHT - cli._MARGIN - (i + 1) * ch:.2f}" '
        f'width="{cw:.2f}" height="{ch:.2f}" fill="{cells[i * n2 + j]}"/>'
        for i in range(n1) for j in range(n2)])


@settings(max_examples=100)
@given(n1=st.integers(1, 80), n2=st.integers(1, 80))
def test_heatmap_equals_the_per_cell_drawing(n1, n2):
    meta = {"version": "0", "command": "surface"}
    cells = [f"#{k:06x}" for k in range(n1 * n2)]
    assert cli._render_svg_heatmap(meta, [0.0] * n1, [0.0] * n2, cells) \
        == _per_cell_heatmap(meta, [0.0] * n1, [0.0] * n2, cells)


def test_heatmap_colours_follow_the_cells(capsys):
    # f1 = 1 - V ends every cell past V = 1 ("domain", grey); r_closed2d
    # colours the others, red where positive and blue where negative
    argv = ["curvature-grid", "--model", "custom", "--cv", "2.5",
            "--f1", "1-V", "--f2", "0.6/V", "--vmin", "0.5",
            "--vmax", "1.3", "--smin", "1", "--smax", "2", "--n", "4"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    rows = parse_csv(out)[2]
    want = ["#999999" if row["signature"] == "domain"
            else "#b2182b" if float(row["r_closed2d"]) > 0.0
            else "#2166ac" if float(row["r_closed2d"]) < 0.0
            else "#f7f7f7" for row in rows]
    assert "#999999" in want and len(set(want)) > 1
    rc, out, _ = run(capsys, [*argv, "--format", "svg"])
    assert rc == 0
    fills = [el.get("fill") for el in ET.fromstring(out)
             if el.tag.endswith("rect") and el.get("fill") != "white"
             and el.get("fill") != "none"]
    assert fills == want


class TestJsonFormat:
    def test_grid_document_shape(self, capsys):
        rc, out, _ = run(capsys, ["curvature-grid", "--n", "4",
                                  "--format", "json"])
        assert rc == 0
        doc = json.loads(out)
        assert set(doc) == {"meta", "columns", "rows"}
        assert len(doc["rows"]) == 16
        assert doc["meta"]["command"] == "curvature-grid"
        assert len(doc["rows"][0]) == len(doc["columns"])

    def test_svg_heatmap_is_xml(self, capsys):
        rc, out, _ = run(capsys, ["curvature-grid", "--n", "4",
                                  "--format", "svg"])
        assert rc == 0
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")
        assert len(list(root)) > 16


def _fresh_interpreter(*args, **run_args):
    """Run python with ``args`` in a new process that imports this tree;
    ``run_args`` go to ``subprocess.run``."""
    src = str(Path(thermogeom.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60,
                          **run_args)


def test_geodesic_past_its_step_budget_fails_in_bounded_memory():
    # t_end = 1e300 from the README start is never reached: the run fails
    # after STEP_BUDGET accepted steps, within the timeout and under an
    # address-space limit of 1.5 GiB, set on the child alone
    resource = pytest.importorskip("resource")
    limit = 3 * 2**29

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    done = _fresh_interpreter(
        "-m", "thermogeom.cli", "geodesic", "--model", "vdw", "--a", "1.5",
        "--b", "0.2", "--r-gas", "2", "--cv", "2.5", "--start-s", "2.5",
        "--start-v", "1.4", "--start-sdot", "0.05", "--start-vdot", "0.1",
        "--t-end", "1e300", preexec_fn=cap_address_space)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (f"numeric failure: integration failed: "
                           f"{STEP_BUDGET} steps did not reach "
                           f"t_end = 1e+300\n")


GEODESIC_STOPS = {
    "locus_proximity": ["geodesic", "--model", "vdw", "--a", "1.5",
                        "--b", "0.2", "--r-gas", "2", "--cv", "2.5",
                        "--start-s", "2.5", "--start-v", "1.4",
                        "--start-sdot", "-0.3", "--samples", "3"],
    "domain_exit": ["geodesic", "--model", "custom", "--cv", "2",
                    "--f1", "(V+0.5)^-0.8", "--start-s", "1",
                    "--start-v", "0.5", "--start-vdot", "-0.05",
                    "--t-end", "60", "--samples", "3"],
}


def test_geodesics_load_no_scipy():
    # geodesics integrate in the package: importing scipy would cost
    # about twice the rest of a geodesic run's start-up
    code = "\n".join([
        "import sys",
        "from thermogeom import cli",
        f"for argv in {list(GEODESIC_STOPS.values())!r}:",
        "    assert cli.main(argv) == 0",
        "    loaded = [m for m in sys.modules if m.startswith('scipy')]",
        "    assert loaded == [], loaded",
    ])
    done = _fresh_interpreter("-c", code)
    assert done.returncode == 0, done.stderr
    for reason in GEODESIC_STOPS:
        assert f"# termination = {reason}\n" in done.stdout


BERTHELOT_FLAGS = ["--model", "berthelot", "--a", "1.5", "--b", "0.2",
                   "--r-gas", "2", "--cv", "2.5"]
CUSTOM_FLAGS = ["--model", "custom", "--cv", "2.5", "--f1", "(V-0.2)^-0.8",
                "--f2", "0.6/V"]
# locus and critical, each method, for gases with and without closed forms
NUMPY_FREE_RUNS = [
    *[["locus", *gas, "--vmin", "0.3", "--vmax", "3", "--n", "12", *method]
      for gas in (VDW_FLAGS, BERTHELOT_FLAGS, CUSTOM_FLAGS)
      for method in ([], ["--method", "scan"])],
    *[["critical", *gas, *method] for gas in (VDW_FLAGS, BERTHELOT_FLAGS)
      for method in ([], ["--method", "numeric"])],
]


def test_locus_and_critical_run_without_numpy(capsys):
    # the CLI imports no numpy, and locus and critical never need it: with
    # numpy unimportable each prints, byte for byte, what it prints beside
    # a loaded numpy
    code = "\n".join([
        "import contextlib, io, json, sys",
        "import thermogeom.cli",
        "loaded = {'numpy', 'thermogeom._rk45'} & set(sys.modules)",
        "assert not loaded, loaded",
        "sys.modules['numpy'] = None",
        "runs = []",
        f"for argv in {NUMPY_FREE_RUNS!r}:",
        "    with contextlib.redirect_stdout(io.StringIO()) as out:",
        "        runs.append([thermogeom.cli.main(argv), out.getvalue()])",
        "print(json.dumps(runs))",
    ])
    done = _fresh_interpreter("-c", code)
    assert done.returncode == 0, done.stderr
    assert "numpy" in sys.modules
    assert json.loads(done.stdout) == [
        [rc, out] for rc, out, _ in (run(capsys, argv)
                                     for argv in NUMPY_FREE_RUNS)]


def test_cli_import_loads_no_logging():
    # nothing in the package logs, and importing logging costs about 5 ms
    # of every command's start-up
    done = _fresh_interpreter("-c", "import sys, thermogeom.cli; "
                              "assert 'logging' not in sys.modules")
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("flag", [
    "--t-end=nan", "--t-end=inf", "--t-end=-inf",
    "--tol=nan", "--tol=inf", "--tol=0", "--tol=-1e-10"])
def test_bad_geodesic_time_or_tolerance_exits_one(flag):
    # a NaN time or tolerance, an infinite time or a zero tolerance used to
    # keep the integrator stepping forever; in a fresh interpreter, such a
    # hang fails the test at the timeout instead of stalling the suite
    done = _fresh_interpreter("-m", "thermogeom.cli", "geodesic", *VDW_FLAGS,
                              "--start-s", "2.5", "--start-v", "1.4", flag)
    assert done.returncode == 1
    assert done.stdout == ""
    name = flag[2:].split("=")[0].replace("-", "_")
    assert done.stderr.startswith(f"error: {name} must be finite")
    assert len(done.stderr.splitlines()) == 1



class TestCachedParser:
    """One parser per process: parsing must leave no state in it."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_usage_error_then_golden_case(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["geodesic", "--model", "bogus", "--start-s", "2.5",
                  "--start-v", "1.4"])
        assert err.value.code == 1
        capsys.readouterr()
        name = "geodesic-vdw-csv"
        assert cases.run_case(name) == cases.golden_path(name).read_text(
            encoding="utf-8")

    @pytest.mark.parametrize("argv", [["--help"], ["geodesic", "--help"]])
    def test_help_matches_fresh_interpreter(self, capsys, monkeypatch,
                                            argv):
        monkeypatch.setenv("COLUMNS", "80")  # help wraps to the terminal
        main(["curvature-grid", "--model", "ideal", "--n", "2"])
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 0
        fresh = _fresh_interpreter("-m", "thermogeom.cli", *argv)
        assert fresh.returncode == 0, fresh.stderr
        assert capsys.readouterr().out == fresh.stdout
