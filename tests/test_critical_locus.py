"""Degeneracy locus, critical points, reduced curves, cubic root machinery."""
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from thermogeom import (
    Berthelot,
    Chart,
    ConstantCv,
    DomainError,
    GasParameters,
    IdealGas,
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
    _critical_volume,
    _first_root,
    _scan_locus_entropy,
    _scan_window,
    closed_form_critical_point,
    locus_entropy,
)
from thermogeom.curvature import (
    curvature_report,
    curvature_routes,
    model_closed_form,
    scalar_curvature_closed2d,
)
from thermogeom._rk45 import _ROOT_RTOL, _brentq
from thermogeom.eos_models import FD_STEP_FIRST, FD_STEP_SECOND, FD_STEP_THIRD
from thermogeom.eos_models import float_grid, hessian_jet, relative_det
from thermogeom.errors import STATE_ERRORS
from thermogeom.metric_core import signature_kind, weinhold_metric

from conftest import PARAMS


def sv(s, v):
    return StatePoint(Chart.ENTROPY_VOLUME, s, v)


def locus_det_residual(model, smp):
    """|relative determinant| of the metric at a locus sample."""
    stack = model.derivative_stack(sv(smp.s, smp.v), check_singular=False)
    return abs(relative_det(stack.e11, stack.e12, stack.e22))


def count_probes(monkeypatch):
    """The (S, V) of every evaluation of a model, in call order: each
    probe, by whatever route it reads the model.  A central NumericEnergy's
    Hessian-only probe calls U without ``_fields``."""
    calls = []
    for cls in (ConstantCv, Berthelot, NumericEnergy):
        def counted(model, chart, x1, v, _original=cls._fields):
            calls.append((x1, v))
            return _original(model, chart, x1, v)
        monkeypatch.setattr(cls, "_fields", counted)

    def hessian(model, s, v, _original=NumericEnergy._hessian):
        if model.scheme == "central":
            calls.append((s, v))
        return _original(model, s, v)
    monkeypatch.setattr(NumericEnergy, "_hessian", hessian)
    return calls


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

    @pytest.mark.parametrize("method", ["auto", "scan"])
    def test_volumes_without_a_point_are_left_out(self, method):
        # f2'' = (V-1)^2 - 0.01 < 0 on (0.9, 1.1): no locus at V = 1.0,
        # and the continuation goes on past it from the sample before
        model = ConstantCv("(V-0.2)^-0.8", "(V-1)^4/12-0.005*V^2", cv=2.5)
        poly = degeneracy_locus(model, (0.5, 2.0), n_samples=9,
                                method=method)
        volumes = float_grid(0.5, 2.0, 9, geometric=True)
        assert [smp.v for smp in poly.samples] == volumes[:4] + volumes[5:]
        assert poly.note == ("parameterized by volume; no locus point at "
                             "1 of 9 volumes")
        for smp in poly.samples:
            assert smp.s == pytest.approx(model.locus_state(smp.v)[0],
                                          rel=1e-12)


# gases with a locus over part of V in (0.5, 3): the custom one has no
# point where f2'' = 1.2/V^3 - 0.2 is negative, past V = 6^(1/3)
SIGNATURE_GASES = {
    "vdw": lambda: VanDerWaals(PARAMS),
    "berthelot": lambda: Berthelot(PARAMS),
    "custom": lambda: ConstantCv("(V-0.2)^-0.8", "0.6/V-0.1*V^2", cv=2.5),
}


class TestSignatureChange:
    """The paper's claim: the Weinhold metric changes signature at the
    degeneracy locus.  Every point the locus reports, by either method,
    separates two signature kinds along S and is degenerate itself."""

    @pytest.mark.parametrize("method", ["auto", "scan"])
    @pytest.mark.parametrize("gas", sorted(SIGNATURE_GASES))
    def test_every_locus_point_separates_two_signatures(self, gas, method):
        model = SIGNATURE_GASES[gas]()
        poly = degeneracy_locus(model, (0.5, 3.0), n_samples=16,
                                method=method)
        assert poly.samples
        for smp in poly.samples:
            delta = 1e-3 * max(1.0, abs(smp.s))
            below, above = (
                signature_kind(weinhold_metric(model, sv(s, smp.v)))
                for s in (smp.s - delta, smp.s + delta))
            assert below is not above, smp
            # within the locus corrector's residual
            jet = hessian_jet(model, smp.s, smp.v)
            assert abs(relative_det(*jet[5:8])) <= 1e-6, smp


# constant-cv gases U = f1 e^(S/cv) - cv f2 with f1 = (V-0.2)^-0.8, so
# f1 f1'' - f1'^2 = 0.8 (V-0.2)^-3.6; each with f2'' by hand
SIGN_GASES = {
    "vdw": (lambda: VanDerWaals(PARAMS), lambda v: 1.2 / v**3),
    "custom": (SIGNATURE_GASES["custom"], lambda v: 1.2 / v**3 - 0.2),
}
ROUTES = ("r_tensorial", "r_closed2d", "r_elementary", "r_model_closed")


class TestSignAndExistence:
    """The paper's sign condition for constant cv: R has the sign of
    f2''·(f1 f1'' − f1'²), a function of V alone, and on the locus
    e^(S/cv) = cv f1 f2''/(f1 f1'' − f1'²), so the locus has a point at V
    exactly where R > 0.  The custom gas changes sign at V = 6^(1/3)."""

    @staticmethod
    def sign(gas, v):
        return math.copysign(1.0, SIGN_GASES[gas][1](v) * 0.8
                             * (v - 0.2) ** -3.6)

    @pytest.mark.parametrize("gas", sorted(SIGN_GASES))
    def test_scan_locus_exists_where_the_sign_is_positive(self, gas):
        model = SIGN_GASES[gas][0]()
        poly = degeneracy_locus(model, (0.5, 3.0), n_samples=16,
                                method="scan")
        volumes = float_grid(0.5, 3.0, 16, geometric=True)
        assert [smp.v for smp in poly.samples] == [
            v for v in volumes if self.sign(gas, v) > 0.0]

    @pytest.mark.parametrize("gas", sorted(SIGN_GASES))
    def test_every_route_has_the_predicted_sign(self, gas):
        model = SIGN_GASES[gas][0]()
        checked = set()
        for s in np.linspace(-3.0, 5.0, 17).tolist():
            for v in np.geomspace(0.5, 3.0, 13).tolist():
                # away from the locus, where the tensorial route loses digits
                if abs(relative_det(*hessian_jet(model, s, v)[5:8])) <= 1e-3:
                    continue
                report = curvature_report(model, sv(s, v))
                for route in ROUTES:
                    r = getattr(report, route)
                    if abs(r) > 1e-8:
                        assert math.copysign(1.0, r) == self.sign(gas, v), (
                            route, s, v, r)
                        checked.add((route, r > 0.0))
        want = {True} if gas == "vdw" else {True, False}
        assert checked == {(route, pos) for route in ROUTES for pos in want}

    def test_custom_gas_changes_sign_at_the_cube_root_of_6(self):
        model = SIGN_GASES["custom"][0]()
        for v, want in ((1.8, 0.024), (1.84, -0.027)):
            r = curvature_report(model, sv(1.0, v)).r_closed2d
            assert r == pytest.approx(want, abs=5e-4)
            assert math.copysign(1.0, r) == self.sign("custom", v)

    def test_custom_locus_ends_at_the_cube_root_of_6(self):
        # f2'' = 1.2/V^3 - 0.2 vanishes there: the locus ends on R = 0
        model = SIGN_GASES["custom"][0]()
        below, above = (6.0 ** (1.0 / 3.0) * (1.0 + d) for d in (-1e-6, 1e-6))
        assert math.isfinite(model.locus_state(below)[0])
        with pytest.raises(NoRoot):
            model.locus_state(above)
        for v, sign in ((below, 1.0), (above, -1.0)):
            stack = model.derivative_stack(sv(1.0, v))
            r = scalar_curvature_closed2d(weinhold_metric(model, stack))
            assert math.copysign(1.0, r) == sign == self.sign("custom", v)


class TestBerthelotSignAndPole:
    """The Berthelot gas of PARAMS.  In the T-V chart its Weinhold metric
    is diagonal, and R = 2a N / (cv^2 T^3 V (r T^2 V^3 - 2a w^2)^2) with
    w = V - b and N = T^4 V^4 r P + a T^2 V w^2 (r V^2 - cv w^2)
    + 2 a^2 w^4, P the polynomial of ``Berthelot.closed_curvature``.  So
    for a > 0 R has the sign of N, and the locus is a double pole: the
    denominator's factor vanishes at the locus temperature."""

    T = np.geomspace(0.05, 20.0, 60)
    V = np.geomspace(0.21, 50.0, 60)

    @pytest.mark.parametrize("chart", ["tv", "sv"])
    def test_every_route_has_the_sign_of_n(self, chart):
        model = Berthelot(PARAMS)
        t, v = np.meshgrid(self.T, self.V, indexing="ij")
        st = (model.array_stack(Chart.TEMPERATURE_VOLUME, t, v)
              if chart == "tv" else model.array_stack(
                  Chart.ENTROPY_VOLUME, model._entropy(t, v), v))
        _, *routes = curvature_routes(model, st)
        a, b, r = PARAMS.a, PARAMS.b, PARAMS.r_gas
        t, v, cv, w = st.t, st.v, st.cv, st.v - PARAMS.b
        p_poly = (2.0 * cv - r) * v * v - 3.0 * cv * b * v + cv * b * b
        n = (t ** 4 * v ** 4 * r * p_poly
             + a * t * t * v * w * w * (r * v * v - cv * w * w)
             + 2.0 * a * a * w ** 4)
        assert (n > 0.0).any() and (n < 0.0).any()
        for route, values in zip(ROUTES, routes):
            shown = np.abs(values) > 1e-8
            assert shown.any(), route
            assert (np.sign(values[shown]) == np.sign(n[shown])).all(), route

    def test_locus_temperature_is_a_root_of_the_pole_factor(self):
        model = Berthelot(PARAMS)
        a, b, r = PARAMS.a, PARAMS.b, PARAMS.r_gas
        for v in self.V.tolist():
            t = model.locus_state(v)[1]
            terms = (r * t * t * v ** 3, 2.0 * a * (v - b) ** 2)
            assert abs(terms[0] - terms[1]) <= 1e-12 * max(terms), v


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
            # the first probe at each volume is the corrector's predicted S
            def __init__(self, params):
                super().__init__(params)
                self.seen = set()

            def _fields(self, chart, x1, v):
                if v not in self.seen:
                    self.seen.add(v)
                    raise DomainError("first probe at this volume")
                return super()._fields(chart, x1, v)

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
        # then a few corrector steps per sample; at least the hundred or so
        # entropies up to the scan's bracket, and two corrector probes, a
        # step and its check, per later sample
        calls = count_probes(monkeypatch)
        line = degeneracy_locus(MODELS[name](), (0.5, 4.0), n_samples=n,
                                method="scan")
        assert len(line.samples) == n
        assert 100 + 2 * (n - 1) <= len(calls) <= 181 + 30 + 6 * n


class TestFirstRoot:
    """``_first_root``, the one scan of every root search."""

    def test_cube_root_converges_in_few_calls(self):
        calls = []

        def f(x):
            calls.append(x)
            return x ** 3 - 2.0
        root = _first_root(f, [1.0, 2.0])
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)
        # each end of the bracket is evaluated once: Brent's method starts
        # from the values the scan holds
        assert len(calls) == 9
        assert calls[:2] == [1.0, 2.0]
        assert root == 1.2599210498948732

    def test_noisy_function_lands_near_its_root(self):
        calls = []

        def f(x):
            # deterministic noise of 1e-9, like a finite-difference floor
            calls.append(x)
            return x - 1.0 / 3.0 + random.Random(x).uniform(-1e-9, 1e-9)
        assert _first_root(f, [0.0, 1.0]) == pytest.approx(1.0 / 3.0,
                                                           abs=1e-8)
        assert len(calls) < 100

    def test_no_sign_change_is_no_root(self):
        assert _first_root(lambda x: x * x + 1.0, [-1.0, 0.5, 2.0]) is None
        # a falling scan takes no rise
        assert _first_root(lambda x: x, [-1.0, 1.0], falling=True) is None

    def test_stops_at_its_first_bracket(self):
        calls = []

        def f(x):
            calls.append(x)
            return (x - 2.5) * (x - 6.5)
        assert _first_root(f, [float(x) for x in range(10)]) == 2.5
        assert max(calls) <= 3.0

    def test_exact_zero_followed_by_a_value(self):
        def scan(values, **kwargs):
            return _first_root(lambda x: values[int(x)],
                               [float(x) for x in range(len(values))],
                               **kwargs)
        assert scan([1.0, 0.0, 1.0]) == 1.0
        assert scan([1.0, 0.0, math.nan]) is None
        # a falling scan takes only + to -
        assert scan([1.0, 0.0, -1.0], falling=True) is None
        assert scan([1.0, -1.0, 0.0], falling=True) is not None

    def test_state_error_is_a_gap(self):
        def f(x):
            if x < 0.0:
                raise ZeroDivisionError(f"at x={x}")
            return x - 1.0
        assert _first_root(f, [-1.0, 0.0, 2.0]) == 1.0
        # a gap between opposite signs brackets nothing
        assert _first_root(lambda x: f(x) if x else f(-1.0),
                           [-1.0, 0.0, 2.0]) is None

    @pytest.mark.parametrize("error", [DomainError, ValueError,
                                       ZeroDivisionError, OverflowError])
    def test_error_at_every_state_raises_the_first(self, error):
        def f(x):
            raise error(f"at x={x}")
        with pytest.raises(error, match="at x=-1.0$"):
            _first_root(f, [-1.0, 0.0, 2.0])

    def test_raises_only_when_every_point_raised(self):
        def f(x):
            if x < 0.0:
                raise DomainError(f"at x={x}")
            return math.nan
        assert _first_root(f, [-1.0, 0.0, 2.0]) is None

    def test_search_outcome_is_no_state_error(self):
        def f(x):
            if x > 0.0:
                raise NoRoot(f"at x={x}")
            return x
        with pytest.raises(NoRoot):
            _first_root(f, [-1.0, 0.0, 2.0])

    def test_vdw_entropy_scan_stops_at_its_bracket(self, monkeypatch):
        # the scan stops at its first bracket: 100 probes with Brent's
        # refinement, against the 181 grid points of a full scan
        calls = count_probes(monkeypatch)
        model = VanDerWaals(PARAMS)
        s = _scan_locus_entropy(model, 1.0, _scan_window(model))
        assert s == 1.7423847407563309
        assert 90 <= len(calls) <= 110

    def test_central_numeric_scan_stops_at_its_bracket(self, monkeypatch):
        # 95 Hessian-only probes up to the bracket, then the jet at both of
        # its ends and at each of Brent's 25 steps through the finite-
        # difference noise: 122 probes
        calls = count_probes(monkeypatch)
        model = NumericEnergy(vdw_energy)
        s = _scan_locus_entropy(model, 1.0, _scan_window(model))
        assert s == pytest.approx(1.7423847407563309, rel=1e-7)
        assert 110 <= len(calls) <= 130


def full_jet_scan(model, v, s_window):
    """The entropy scan with every point read through the full jet, as it
    was before the scan read the Hessian alone: a transcription kept as the
    oracle of ``TestHessianOnlyScan``."""
    def det_at(s):
        e11, e12, e22 = hessian_jet(model, s, v)[5:8]
        return e11 * e22 - e12 * e12

    xs = np.linspace(*s_window, 181).tolist()
    first, raised = None, 0
    x0 = f0 = math.nan
    for x in xs:
        try:
            fx = det_at(x)
        except STATE_ERRORS as exc:
            first, fx, raised = first or exc, math.nan, raised + 1
        if f0 * fx < 0.0 or f0 == 0.0 and not math.isnan(fx):
            return _brentq(det_at, x0, x, _ROOT_RTOL * max(abs(x0), abs(x)),
                           (f0, fx))
        x0, f0 = x, fx
    if raised == len(xs):
        raise first
    raise NoRoot(f"determinant keeps one sign over S in {s_window} at V={v}")


# The entropies of the vdW scan at V = 1, which brackets its root between
# S93 and S94
SCAN = np.linspace(-50.0, 50.0, 181).tolist()
S94 = SCAN[94]

# The central stencil's offsets from a point, in units of max(|x|, 1): U
# itself, then h1 (first order), h2 (second order, the Hessian), h3 and 2 h3
# (third order), and a point beyond them all.
STENCIL_OFFSETS = (0.0, FD_STEP_FIRST, FD_STEP_SECOND, FD_STEP_THIRD,
                   2.0 * FD_STEP_THIRD, 4.0 * FD_STEP_THIRD)


@st.composite
def strips(draw):
    """An interval of S around a scan point near the vdW bracket at V = 1,
    or of V around 1, whose ends lie between stencil offsets: it covers
    some of that point's stencil points on one side and none of the rest."""
    ends = sorted(draw(st.lists(st.integers(0, 4), min_size=2, max_size=2)))
    lo, hi = (STENCIL_OFFSETS[i] + draw(st.floats(0.1, 0.9))
              * (STENCIL_OFFSETS[i + 1] - STENCIL_OFFSETS[i]) for i in ends)
    axis = draw(st.sampled_from("SV"))
    at = SCAN[draw(st.integers(91, 96))] if axis == "S" else 1.0
    sign, scale = draw(st.sampled_from((-1.0, 1.0))), max(abs(at), 1.0)
    return axis, sorted((at + sign * lo * scale, at + sign * hi * scale))


class TestHessianOnlyScan:
    """The scan reads the Hessian alone and confirms its bracket with the
    full jet; its root bits, its NoRoot or its error equal those of the
    scan that read every point through the jet, for a NumericEnergy whose
    energy raises in strips between the stencil's offsets."""

    @staticmethod
    def outcome(scan, model):
        try:
            return scan(model, 1.0, (-50.0, 50.0)).hex()
        except Exception as exc:  # the error is part of the outcome
            return type(exc).__name__, str(exc)

    @staticmethod
    def energy(cuts):
        def u(s, v):
            for axis, (lo, hi) in cuts:
                if lo < (s if axis == "S" else v) < hi:
                    raise DomainError(f"no energy at ({s!r}, {v!r})")
            return vdw_energy(s, v)
        return u

    # a strip over S94's first-order points leaves its Hessian defined, and
    # the jet there raises; one over V = 1's does so at every entropy
    @example([("S", [S94 * (1.0 + 0.5 * FD_STEP_FIRST),
                     S94 * (1.0 + 2.0 * FD_STEP_FIRST)])])
    @example([("V", [1.0 + 0.5 * FD_STEP_FIRST, 1.0 + 2.0 * FD_STEP_FIRST])])
    @settings(max_examples=60)
    @given(st.lists(strips(), min_size=1, max_size=3))
    def test_outcome_is_the_full_jet_scans(self, cuts):
        model = NumericEnergy(self.energy(cuts))
        assert (self.outcome(_scan_locus_entropy, model)
                == self.outcome(full_jet_scan, model))


VOLUMES = np.geomspace(1e-2, 1e2, 400).tolist()


class TestCriticalVolumeGaps:
    def test_inadmissible_volumes_are_gaps(self):
        def dtdv(v):
            # locus temperature peaks at V = 0.6; no locus below V = 0.3
            if v < 0.3:
                raise DomainError(f"f1(V) must be positive at V={v}")
            return 0.6 - v
        assert _critical_volume(dtdv, VOLUMES) == pytest.approx(0.6,
                                                               rel=1e-10)

    def test_no_admissible_volume_is_a_domain_error(self):
        def dtdv(v):
            raise DomainError(f"f1(V) must be positive at V={v}")
        with pytest.raises(DomainError, match="at V=0.01$"):
            _critical_volume(dtdv, VOLUMES)

    def test_zero_or_gap_at_every_volume_is_an_empty_locus(self):
        def dtdv(v):
            if v < 0.3:
                raise DomainError(f"f1(V) must be positive at V={v}")
            return 0.0
        with pytest.raises(NoCriticalPoint, match="^degeneracy locus is "
                                                  "empty$"):
            _critical_volume(dtdv, VOLUMES)
        with pytest.raises(NoCriticalPoint, match="monotone"):
            _critical_volume(lambda v: dtdv(v) - v, VOLUMES)

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

    def test_generic_path_below_a_math_domain_error(self):
        # log(V - b) raises ValueError below b: every entropy of those
        # volumes is a gap, and the trace starts above b
        a, b, r, cv = 1.5, 0.2, 2.0, 2.5

        def energy(s, v):
            return math.exp((s - r * math.log(v - b)) / cv) - a / v
        cp = critical_point(NumericEnergy(energy))
        assert cp.v_c == pytest.approx(3.0 * b, abs=1e-4)

    def test_generic_path_with_no_admissible_volume(self, params):
        model = NumericEnergy(vdw_energy, scheme=vdw_partials)
        with pytest.raises(DomainError, match="below the covolume"):
            critical_point(model, v_window=(0.5 * params.b, 0.9 * params.b))

    def test_scan_without_admissible_state_is_a_domain_error(self, params):
        model = NumericEnergy(vdw_energy, scheme=vdw_partials)
        with pytest.raises(DomainError, match="below the covolume"):
            _scan_locus_entropy(model, 0.5 * params.b, _scan_window(model))

    def test_generic_path_stops_at_its_bracket(self, monkeypatch):
        # one locus stack per volume up to the bracket and per refinement
        # step, not the hottest of all 200 traced volumes: 392 probes
        calls = count_probes(monkeypatch)
        cp = critical_point(NumericEnergy(vdw_energy, scheme=vdw_partials),
                            v_window=(0.3, 3.0))
        assert cp.v_c == pytest.approx(0.6, rel=1e-12)
        assert 300 <= len(calls) <= 500

    def test_generic_path_with_inadmissible_volumes_and_no_locus(self):
        # the ideal gas raises below V = 0.5 and has no locus above it:
        # every volume is a gap, and only some raised
        def energy(s, v):
            if v < 0.5:
                raise DomainError(f"volume {v} is below 0.5")
            return math.exp(s / 1.5) * v ** (-2.0 / 3.0)
        with pytest.raises(NoCriticalPoint,
                           match="^degeneracy locus is empty$"):
            critical_point(NumericEnergy(energy), v_window=(0.1, 10.0))

    def test_generic_path_with_finite_differences(self, params):
        # finite-difference stacks carry about 1e-8 noise; the critical
        # volume sits at a flat maximum, so it is known to about the
        # square root of the temperature error
        a, b, r = params.a, params.b, params.r_gas
        cp = critical_point(NumericEnergy(vdw_energy),
                            v_window=(1.5 * b, 15.0 * b))
        assert cp.v_c == pytest.approx(3.0 * b, rel=3.2e-3)
        assert cp.t_c == pytest.approx(8.0 * a / (27.0 * b * r), rel=1e-5)


class TestClosedFormHooks:
    HOOKS = ("closed_curvature", "locus_state", "locus_dtdv",
             "critical_closed_form", "det_split")
    CONSTANT_CV = {"closed_curvature", "locus_state", "locus_dtdv",
                   "det_split"}

    @pytest.mark.parametrize("cls, owned", [
        (ConstantCv, CONSTANT_CV),
        (IdealGas, CONSTANT_CV),
        (VanDerWaals, CONSTANT_CV | {"critical_closed_form"}),
        (Berthelot, {"closed_curvature", "locus_state", "locus_dtdv",
                     "critical_closed_form"}),
        (NumericEnergy, set()),
    ])
    def test_each_gas_owns_its_closed_forms(self, cls, owned):
        for hook in self.HOOKS:
            assert (getattr(cls, hook) is not None) == (hook in owned), hook

    @pytest.mark.parametrize("model, window, square_root", [
        (IdealGas(GasParameters(r_gas=2.0, cv0=1.5)), (-75.0, 75.0), False),
        (VanDerWaals(PARAMS), (-125.0, 125.0), False),
        (ConstantCv("(V-0.2)^-0.8", "0.6/V", cv=1.75), (-87.5, 87.5), False),
        (Berthelot(GasParameters(a=1.5, b=0.2, r_gas=2.0, cv0=4.0)),
         (-200.0, 200.0), True),
        (NumericEnergy(vdw_energy), (-50.0, 50.0), False),
    ], ids=["ideal", "vdw", "custom", "berthelot", "numeric"])
    def test_locus_facts(self, model, window, square_root):
        # the scan's entropy window spans 50 entropy_scale on each side
        assert _scan_window(model) == window
        assert model.square_root_locus is square_root

    def test_numeric_energy_takes_the_generic_routes(self, vdw_model):
        model = NumericEnergy(vdw_energy, scheme=vdw_partials)
        assert locus_entropy(model, 1.2) == _scan_locus_entropy(
            model, 1.2, _scan_window(model))
        assert locus_entropy(model, 1.2) == pytest.approx(
            locus_entropy(vdw_model, 1.2), rel=1e-12)
        auto = degeneracy_locus(model, (0.8, 3.0), n_samples=4)
        assert auto == degeneracy_locus(model, (0.8, 3.0), n_samples=4,
                                        method="scan")
        assert auto.branch == "principal"
        window = (1.5 * PARAMS.b, 15.0 * PARAMS.b)
        cp = critical_point(model, v_window=window)
        assert cp == critical_point(model, method="numeric", v_window=window)
        assert cp.negative_branch is None
        assert closed_form_critical_point(model) is None
        assert model_closed_form(model, sv(2.5, 1.4)) is None

    @pytest.mark.parametrize("call, allowed", [
        (lambda m: degeneracy_locus(m, (0.3, 3.0), 4, method="closed"),
         "'auto', 'scan'"),
        (lambda m: degeneracy_locus(m, (0.3, 3.0), 4, method="numeric"),
         "'auto', 'scan'"),
        (lambda m: critical_point(m, method="exact"), "'auto', 'numeric'"),
        (lambda m: critical_point(m, method="scan"), "'auto', 'numeric'"),
    ])
    def test_unknown_method_is_rejected(self, vdw_model, call, allowed):
        with pytest.raises(ValueError, match=f"unknown method .*{allowed}"):
            call(vdw_model)

    @pytest.mark.parametrize("name", ["vdw", "berthelot", "ideal", "custom"])
    @pytest.mark.parametrize("at", [
        lambda b: math.nan, lambda b: math.inf, lambda b: -math.inf,
        lambda b: 0.5 * b, lambda b: b,
    ], ids=["nan", "inf", "-inf", "half-covolume", "covolume"])
    def test_bad_volume_is_a_domain_error(self, name, at):
        model = {"ideal": lambda: IdealGas(PARAMS), **MODELS}[name]()
        v = at(model.covolume)
        match = "exceed the covolume" if math.isfinite(v) else "finite"
        for hook in (locus_entropy, lambda m, v: m.locus_dtdv(v)):
            with pytest.raises(DomainError, match=match):
                hook(model, v)

    @pytest.mark.parametrize("name", ["vdw", "berthelot"])
    @pytest.mark.parametrize("a, b, message", [
        (0.0, 0.2, "degeneracy locus is empty"),
        (1.5, 0.0, "locus temperature is monotone over the window"),
    ])
    def test_numeric_branch_without_attraction_or_covolume(self, name, a, b,
                                                           message):
        gas = {"vdw": VanDerWaals, "berthelot": Berthelot}[name]
        model = gas(GasParameters(a=a, b=b, r_gas=2.0, cv0=2.5))
        with pytest.raises(NoCriticalPoint, match=message):
            critical_point(model, method="numeric")
        with pytest.raises(NoCriticalPoint, match="locus is empty or monotone"):
            closed_form_critical_point(model)


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
