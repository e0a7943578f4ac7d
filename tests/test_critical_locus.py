"""Degeneracy locus, critical points, reduced curves, cubic root machinery."""
import math
import random

import numpy as np
import pytest

from thermogeom import (
    Berthelot,
    Chart,
    ConstantCv,
    DomainError,
    GasParameters,
    NoCriticalPoint,
    NoRoot,
    NumericEnergy,
    RootKind,
    StatePoint,
    VanDerWaals,
    coexistence_curve,
    critical_point,
    degeneracy_locus,
    reduced_curves,
    spinodal_slope,
    vdw_volume_roots,
)
from thermogeom.critical_locus import (
    _bracketed_root,
    _critical_volume_numeric,
    _scan_locus_entropy,
    _scan_window,
    locus_entropy,
)
from thermogeom.eos_models import relative_det

from conftest import PARAMS


def sv(s, v):
    return StatePoint(Chart.ENTROPY_VOLUME, s, v)


def locus_det_residual(model, smp):
    """|relative determinant| of the metric at a locus sample."""
    stack = model.derivative_stack(sv(smp.s, smp.v), check_singular=False)
    return abs(relative_det(stack.e11, stack.e12, stack.e22))


def custom_vdw():
    """The van der Waals gas of PARAMS written as a custom model."""
    return ConstantCv("(V-0.2)^-0.8", "0.6/V", cv=2.5)


def vdw_energy(s, v):
    """U(S, V) of the van der Waals gas of PARAMS, for NumericEnergy."""
    a, b, r, cv = PARAMS.a, PARAMS.b, PARAMS.r_gas, PARAMS.cv0
    if v <= b:
        raise DomainError(f"volume {v} is below the covolume {b}")
    return (v - b) ** (-r / cv) * math.exp(s / cv) - a / v


def vdw_partials(s, v):
    """The ten exact partials of ``vdw_energy``, a NumericEnergy scheme."""
    a, b, r, cv = PARAMS.a, PARAMS.b, PARAMS.r_gas, PARAMS.cv0
    if v <= b:
        raise DomainError(f"volume {v} is below the covolume {b}")
    n, w, e = -r / cv, v - b, math.exp(s / cv)
    f, f1 = w ** n * e, n * w ** (n - 1) * e
    f2 = n * (n - 1) * w ** (n - 2) * e
    f3 = n * (n - 1) * (n - 2) * w ** (n - 3) * e
    return (f - a / v, f / cv, f1 + a / v ** 2,
            f / cv ** 2, f1 / cv, f2 - 2.0 * a / v ** 3,
            f / cv ** 3, f1 / cv ** 2, f2 / cv, f3 + 6.0 * a / v ** 4)


class TestDegeneracyLocus:
    def test_vdw_samples_annihilate_determinant(self, vdw_model):
        poly = degeneracy_locus(vdw_model, (0.5, 4.0), n_samples=24)
        assert len(poly.samples) == 24
        for smp in poly.samples:
            assert abs(locus_det_residual(vdw_model, smp)) < 1e-9

    def test_determinant_changes_sign_across_locus(self, vdw_model):
        v = 1.2
        s_star = locus_entropy(vdw_model, v)
        eps = 1e-4
        above = vdw_model.derivative_stack(
            sv(s_star + eps, v), check_singular=False).det
        below = vdw_model.derivative_stack(
            sv(s_star - eps, v), check_singular=False).det
        assert above * below < 0.0

    def test_scan_and_closed_form_methods_agree(self, vdw_model):
        auto = degeneracy_locus(vdw_model, (0.8, 3.0), n_samples=12)
        scan = degeneracy_locus(vdw_model, (0.8, 3.0), n_samples=12,
                                method="scan")
        for a, b in zip(auto.samples, scan.samples):
            assert a.v == b.v
            assert a.s == pytest.approx(b.s, rel=1e-9, abs=1e-11)

    def test_berthelot_locus_annihilates_determinant(self, berthelot_model):
        poly = degeneracy_locus(berthelot_model, (0.7, 3.0), n_samples=12)
        for smp in poly.samples:
            assert abs(locus_det_residual(berthelot_model, smp)) < 1e-9
            assert smp.t > 0.0

    def test_berthelot_scan_agrees(self, berthelot_model):
        auto = degeneracy_locus(berthelot_model, (0.7, 3.0), n_samples=8)
        scan = degeneracy_locus(berthelot_model, (0.7, 3.0), n_samples=8,
                                method="scan")
        for a, b in zip(auto.samples, scan.samples):
            assert a.s == pytest.approx(b.s, rel=1e-8, abs=1e-10)

    def test_ideal_gas_has_empty_locus(self, ideal_model):
        with pytest.raises(NoRoot):
            degeneracy_locus(ideal_model, (0.5, 4.0))

    def test_polyline_parameterization_note(self, vdw_model):
        poly = degeneracy_locus(vdw_model, (0.8, 2.0), n_samples=4)
        assert "volume" in poly.note


# models with a closed-form locus and critical point
MODELS = {"vdw": lambda: VanDerWaals(PARAMS), "custom": custom_vdw,
          "berthelot": lambda: Berthelot(PARAMS)}


class TestLocusContinuation:
    """``method="scan"``: continuation in V with scan fallback."""

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_matches_closed_form_at_every_sample(self, name):
        model = MODELS[name]()
        exact = degeneracy_locus(model, (0.5, 4.0), n_samples=24)
        traced = degeneracy_locus(model, (0.5, 4.0), n_samples=24,
                                  method="scan")
        for want, got in zip(exact.samples, traced.samples):
            assert got.v == want.v
            for field in ("s", "t", "p"):
                assert getattr(got, field) == pytest.approx(
                    getattr(want, field), rel=1e-12), (field, got.v)

    def test_ideal_gas_has_empty_locus(self, ideal_model):
        with pytest.raises(NoRoot):
            degeneracy_locus(ideal_model, (0.5, 4.0), method="scan")

    def test_corrector_failure_falls_back_to_scan(self):
        class MissesEachNewVolume(VanDerWaals):
            # the first stack at each volume is the corrector's predicted S
            def __init__(self, params):
                super().__init__(params)
                self.seen = set()

            def derivative_stack(self, state, **kwargs):
                if state.x2 not in self.seen:
                    self.seen.add(state.x2)
                    raise DomainError("first probe at this volume")
                return super().derivative_stack(state, **kwargs)

        model = MissesEachNewVolume(PARAMS)
        line = degeneracy_locus(model, (0.5, 4.0), n_samples=12,
                                method="scan")
        plain = VanDerWaals(PARAMS)
        window = _scan_window(plain)
        for smp in line.samples:
            assert smp.s == _scan_locus_entropy(plain, smp.v, window)
            assert abs(locus_det_residual(plain, smp)) < 1e-12
        assert len(model.seen) == 12

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_stack_calls(self, monkeypatch, name, n):
        # one scan (181 probes plus its refinement) for the first volume,
        # then a few corrector steps per sample
        calls = []
        for cls in (ConstantCv, Berthelot):
            def counted(model, state, *, _original=cls.derivative_stack,
                        **kwargs):
                calls.append(state)
                return _original(model, state, **kwargs)
            monkeypatch.setattr(cls, "derivative_stack", counted)
        line = degeneracy_locus(MODELS[name](), (0.5, 4.0), n_samples=n,
                                method="scan")
        assert len(line.samples) == n
        assert len(calls) <= 181 + 30 + 6 * n


class TestBracketedRoot:
    def test_cube_root_converges_in_few_calls(self):
        calls = []

        def f(x):
            calls.append(x)
            return x ** 3 - 2.0
        root = _bracketed_root(f, 1.0, 2.0)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)
        # each end of the bracket is evaluated once, for the sign check
        # and for Brent's method both
        assert len(calls) == 9
        assert calls[:2] == [1.0, 2.0]
        assert root == 1.2599210498948732

    def test_noisy_function_lands_near_its_root(self):
        calls = []

        def f(x):
            # deterministic noise of 1e-9, like a finite-difference floor
            calls.append(x)
            return x - 1.0 / 3.0 + random.Random(x).uniform(-1e-9, 1e-9)
        assert _bracketed_root(f, 0.0, 1.0) == pytest.approx(1.0 / 3.0,
                                                             abs=1e-8)
        assert len(calls) < 100

    def test_bracket_without_sign_change_raises(self):
        with pytest.raises(NoRoot):
            _bracketed_root(lambda x: x * x + 1.0, -1.0, 2.0)


class TestCriticalVolumeGaps:
    def test_inadmissible_volumes_are_gaps(self):
        def dtdv(v):
            # locus temperature peaks at V = 0.6; no locus below V = 0.3
            if v < 0.3:
                raise DomainError(f"f1(V) must be positive at V={v}")
            return 0.6 - v
        assert _critical_volume_numeric(dtdv, (1e-2, 1e2)) == pytest.approx(
            0.6, rel=1e-10)

    def test_no_admissible_volume_is_a_domain_error(self):
        def dtdv(v):
            raise DomainError(f"f1(V) must be positive at V={v}")
        with pytest.raises(DomainError, match="at V=0.01$"):
            _critical_volume_numeric(dtdv, (1e-2, 1e2))

    def test_custom_model_with_negative_f1(self):
        model = ConstantCv("0-1", None, cv=2.5)
        with pytest.raises(DomainError, match="must be positive"):
            critical_point(model)


class TestCriticalPoints:
    def test_vdw_closed_form_scalings(self, vdw_model, params):
        cp = critical_point(vdw_model)
        a, b, r = params.a, params.b, params.r_gas
        assert cp.v_c == pytest.approx(3.0 * b, rel=1e-12)
        assert cp.p_c == pytest.approx(a / (27.0 * b * b), rel=1e-12)
        assert cp.t_c == pytest.approx(8.0 * a / (27.0 * b * r), rel=1e-12)
        assert cp.negative_branch is None

    def test_vdw_numeric_confirms_closed_form(self, vdw_model):
        exact = critical_point(vdw_model)
        numeric = critical_point(vdw_model, method="numeric")
        assert numeric.v_c == pytest.approx(exact.v_c, rel=1e-10)
        assert numeric.p_c == pytest.approx(exact.p_c, rel=1e-10)
        assert numeric.t_c == pytest.approx(exact.t_c, rel=1e-10)

    @pytest.mark.parametrize("gas", [VanDerWaals, Berthelot])
    @pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3,
                                       1e6, 1e9, 1e12])
    def test_numeric_critical_volume_does_not_depend_on_units(self, gas,
                                                              scale):
        # b = 0.2 L and a = 1.5 L^2 put V_c at 3b = 0.6 L in any unit L
        model = gas(GasParameters(a=1.5 * scale ** 2, b=0.2 * scale,
                                  r_gas=2.0, cv0=2.5))
        v_c = critical_point(model, method="numeric").v_c
        assert v_c == pytest.approx(0.6 * scale, rel=1e-13)

    def test_vdw_numeric_window_may_start_below_the_covolume(self, vdw_model,
                                                            params):
        # volumes at or below b are gaps of the shared volume check; at
        # them (V - b)^-0.8 used to be complex, and comparing it raised
        # TypeError
        numeric = critical_point(vdw_model, method="numeric",
                                 v_window=(0.5 * params.b, 10.0 * params.b))
        assert numeric.v_c == pytest.approx(3.0 * params.b, rel=1e-10)

    def test_vdw_locus_temperature_peaks_at_critical_volume(self, vdw_model):
        cp = critical_point(vdw_model)
        t_at = {}
        for v in (cp.v_c - 1e-3, cp.v_c, cp.v_c + 1e-3):
            s_star = locus_entropy(vdw_model, v)
            t_at[v] = vdw_model.derivative_stack(
                sv(s_star, v), check_singular=False).t
        assert t_at[cp.v_c] > t_at[cp.v_c - 1e-3]
        assert t_at[cp.v_c] > t_at[cp.v_c + 1e-3]
        assert t_at[cp.v_c] == pytest.approx(cp.t_c, rel=1e-12)

    def test_berthelot_closed_form_scalings(self, berthelot_model, params):
        cp = critical_point(berthelot_model)
        a, b, r = params.a, params.b, params.r_gas
        assert cp.v_c == pytest.approx(3.0 * b, rel=1e-12)
        assert cp.p_c ** 2 == pytest.approx(a * r / (216.0 * b ** 3),
                                            rel=1e-12)
        assert cp.t_c ** 2 == pytest.approx(8.0 * a / (27.0 * r * b),
                                            rel=1e-12)
        # the square roots admit a simultaneous sign flip; the mirrored pair
        # is reported rather than silently dropped
        assert cp.negative_branch == pytest.approx((-cp.p_c, -cp.t_c),
                                                   rel=1e-14)

    def test_berthelot_numeric_confirms_closed_form(self, berthelot_model):
        exact = critical_point(berthelot_model)
        numeric = critical_point(berthelot_model, method="numeric")
        assert numeric.v_c == pytest.approx(exact.v_c, rel=1e-10)
        assert numeric.t_c == pytest.approx(exact.t_c, rel=1e-10)
        assert numeric.p_c == pytest.approx(exact.p_c, rel=1e-10)

    def test_ideal_gas_has_no_critical_point(self, ideal_model):
        with pytest.raises(NoCriticalPoint):
            critical_point(ideal_model)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_numeric_path_matches_closed_form_to_1e_12(self, name):
        # dT/dV of the closed-form locus is polished by Illinois steps
        # (vdW, custom) or by Newton on its exact derivative (Berthelot)
        model = MODELS[name]()
        exact = critical_point(
            Berthelot(PARAMS) if name == "berthelot" else VanDerWaals(PARAMS))
        numeric = critical_point(model, method="numeric")
        for field in ("v_c", "t_c", "p_c"):
            assert getattr(numeric, field) == pytest.approx(
                getattr(exact, field), rel=1e-12), field

    def test_generic_path_with_exact_partials(self, params):
        # the generic path solves dT/dV = 0 along the traced locus; with
        # exact partials nothing but rounding limits it
        a, b, r = params.a, params.b, params.r_gas
        model = NumericEnergy(vdw_energy, scheme=vdw_partials)
        cp = critical_point(model, v_window=(1.5 * b, 15.0 * b))
        assert cp.v_c == pytest.approx(3.0 * b, rel=1e-12)
        assert cp.t_c == pytest.approx(8.0 * a / (27.0 * b * r), rel=1e-12)
        assert cp.p_c == pytest.approx(a / (27.0 * b * b), rel=1e-12)

    def test_generic_path_starts_at_first_admissible_volume(self, params):
        # the default window (1e-2, 1e2) begins below the covolume, where
        # the energy raises DomainError at every entropy
        a, b, r = params.a, params.b, params.r_gas
        cp = critical_point(NumericEnergy(vdw_energy, scheme=vdw_partials))
        assert cp.v_c == pytest.approx(3.0 * b, rel=1e-12)
        assert cp.t_c == pytest.approx(8.0 * a / (27.0 * b * r), rel=1e-12)
        assert cp.p_c == pytest.approx(a / (27.0 * b * b), rel=1e-12)

    def test_generic_path_with_no_admissible_volume(self, params):
        model = NumericEnergy(vdw_energy, scheme=vdw_partials)
        with pytest.raises(DomainError, match="no admissible state"):
            critical_point(model, v_window=(0.5 * params.b, 0.9 * params.b))

    def test_scan_without_admissible_state_is_a_domain_error(self, params):
        model = NumericEnergy(vdw_energy, scheme=vdw_partials)
        with pytest.raises(DomainError, match="no admissible state"):
            _scan_locus_entropy(model, 0.5 * params.b, _scan_window(model))

    def test_generic_path_with_finite_differences(self, params):
        # finite-difference stacks carry about 1e-8 noise; the critical
        # volume sits at a flat maximum, so it is known to about the
        # square root of the temperature error
        a, b, r = params.a, params.b, params.r_gas
        cp = critical_point(NumericEnergy(vdw_energy),
                            v_window=(1.5 * b, 15.0 * b))
        assert cp.v_c == pytest.approx(3.0 * b, rel=3.2e-3)
        assert cp.t_c == pytest.approx(8.0 * a / (27.0 * b * r), rel=1e-5)


class TestReducedCurves:
    def test_vdw_reference_point(self):
        pt = reduced_curves("vdw", 2.0)
        assert pt.p_r == pytest.approx(0.5, rel=1e-14)
        assert pt.t_r == pytest.approx(25.0 / 32.0, rel=1e-14)

    @pytest.mark.parametrize("kind", ["vdw", "berthelot"])
    def test_both_families_pass_through_critical_point(self, kind):
        pt = reduced_curves(kind, 1.0)
        assert pt.p_r == pytest.approx(1.0, rel=1e-12)
        assert pt.t_r == pytest.approx(1.0, rel=1e-12)

    def test_berthelot_reference_point(self):
        pt = reduced_curves("berthelot", 2.0)
        assert pt.p_r == pytest.approx(
            2.0 * (3.0 * 2.0 - 2.0) / (2.0 ** 1.5 * (3.0 * 2.0 - 1.0)),
            rel=1e-14)
        assert pt.t_r == pytest.approx(
            (3.0 * 2.0 - 1.0) / (2.0 * 2.0 ** 1.5), rel=1e-14)

    def test_berthelot_curve_goes_negative_below_two_thirds(self):
        # the signed form crosses zero at v_r = 2/3
        assert reduced_curves("berthelot", 0.6).p_r < 0.0
        assert reduced_curves("berthelot", 2.0 / 3.0).p_r == pytest.approx(
            0.0, abs=1e-14)

    @pytest.mark.parametrize("kind", ["vdw", "berthelot"])
    def test_domain_wall(self, kind):
        with pytest.raises(DomainError):
            reduced_curves(kind, 1.0 / 3.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError):
            reduced_curves("nope", 2.0)


class TestSpinodalSlope:
    def test_reference_value(self):
        assert spinodal_slope(2.0) == pytest.approx(1.6, rel=1e-14)

    @pytest.mark.parametrize("v_r", [0.8, 1.5, 2.0, 3.0])
    def test_matches_chain_rule_differences(self, v_r):
        h = 1e-6
        plus = reduced_curves("vdw", v_r + h)
        minus = reduced_curves("vdw", v_r - h)
        fd = (plus.p_r - minus.p_r) / (plus.t_r - minus.t_r)
        assert spinodal_slope(v_r) == pytest.approx(fd, rel=1e-8)

    def test_blows_up_at_domain_wall(self):
        with pytest.raises(DomainError):
            spinodal_slope(1.0 / 3.0)


class TestVolumeRoots:
    @pytest.mark.parametrize("p_r", [0.2, 0.5, 0.9, 1.0])
    def test_pressure_roots_back_substitute(self, p_r):
        roots = vdw_volume_roots(RootKind.PRESSURE, p_r)
        assert roots.values, "expected at least one physical root"
        for v in roots.values:
            assert v > 1.0 / 3.0
            assert abs(p_r * v ** 3 - 3.0 * v + 2.0) < 1e-10

    @pytest.mark.parametrize("t_r", [0.5, 0.8, 0.95, 1.0])
    def test_temperature_roots_back_substitute(self, t_r):
        roots = vdw_volume_roots(RootKind.TEMPERATURE, t_r)
        assert roots.values
        for v in roots.values:
            assert v > 1.0 / 3.0
            assert abs(4.0 * t_r * v ** 3 - 9.0 * v ** 2 + 6.0 * v - 1.0) < 1e-10

    def test_values_sorted_ascending(self):
        roots = vdw_volume_roots(RootKind.TEMPERATURE, 0.9)
        assert list(roots.values) == sorted(roots.values)

    def test_exact_special_pressure_point(self):
        # p_r = 1/2 factors by hand: roots sqrt(3)-1 and 2
        roots = vdw_volume_roots(RootKind.PRESSURE, 0.5)
        assert roots.values[0] == pytest.approx(math.sqrt(3.0) - 1.0,
                                                rel=1e-12)
        assert roots.values[1] == pytest.approx(2.0, rel=1e-12)

    def test_critical_values_collapse_to_one(self):
        for kind, val in ((RootKind.PRESSURE, 1.0), (RootKind.TEMPERATURE, 1.0)):
            roots = vdw_volume_roots(kind, val)
            for v in roots.values:
                assert v == pytest.approx(1.0, abs=1e-7)

    def test_printed_alternate_forms_flagged(self):
        # the closed trigonometric expressions reproduce at most one branch;
        # every non-solving branch carries an explanatory note
        roots = vdw_volume_roots(RootKind.PRESSURE, 0.5)
        assert roots.trig_values
        assert roots.notes
        best = min(abs(t - r) for t in roots.trig_values
                   for r in roots.values)
        assert best < 1e-9  # one branch does agree with the cubic

    @pytest.mark.parametrize("kind,value", [
        (RootKind.PRESSURE, 0.0),
        (RootKind.PRESSURE, 1.5),
        (RootKind.TEMPERATURE, -0.1),
        (RootKind.TEMPERATURE, 1.5),
    ])
    def test_window_enforced(self, kind, value):
        with pytest.raises(DomainError):
            vdw_volume_roots(kind, value)


class TestCoexistenceBranches:
    def test_branches_meet_at_critical_point(self):
        curve = coexistence_curve("vdw", [1.0])
        smp = curve.samples[0]
        for v, p in zip(smp.volumes, smp.pressures):
            assert v == pytest.approx(1.0, abs=1e-7)
            assert p == pytest.approx(1.0, abs=1e-6)

    def test_vdw_branches_round_trip_temperature(self):
        curve = coexistence_curve("vdw", [0.8, 0.9, 0.97])
        for smp in curve.samples:
            assert len(smp.volumes) == 2
            small, large = smp.volumes
            assert small < 1.0 < large
            for v, p in zip(smp.volumes, smp.pressures):
                pt = reduced_curves("vdw", v)
                assert pt.t_r == pytest.approx(smp.t_r, rel=1e-10)
                assert pt.p_r == pytest.approx(p, rel=1e-10)

    def test_berthelot_branches_round_trip_temperature(self):
        curve = coexistence_curve("berthelot", [0.9, 0.95])
        for smp in curve.samples:
            assert len(smp.volumes) == 2
            for v, p in zip(smp.volumes, smp.pressures):
                pt = reduced_curves("berthelot", v)
                assert pt.t_r == pytest.approx(smp.t_r, rel=1e-9)
                assert pt.p_r == pytest.approx(p, rel=1e-9)

    def test_branch_ordering_documented(self):
        curve = coexistence_curve("vdw", [0.9])
        assert "volume" in curve.note
