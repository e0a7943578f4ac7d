"""Curvature routes against frozen references and finite-difference geometry."""
import itertools
import math

import numpy as np
import pytest

from thermogeom import (
    Berthelot,
    Chart,
    ConstantCv,
    DomainError,
    GasParameters,
    IdealGas,
    MetricTensor2,
    NumericEnergy,
    SingularState,
    StatePoint,
    FlatnessClass,
    VanDerWaals,
    curvature_report,
    determinant_report,
    laplace_beltrami_log_t,
    negativity_test,
    parse_expression,
    ruppeiner_direct_curvature,
    ruppeiner_from_weinhold,
    ruppeiner_metric,
    weinhold_metric,
    zero_curvature_classify,
)
from thermogeom.curvature import (
    _ricci,
    berthelot_printed_closed_form,
    scalar_curvature_closed2d,
    scalar_curvature_tensorial,
)
from thermogeom.expressions import ShiftedPower, ZeroFunction

from conftest import PARAMS
from fd_oracles import (
    fd_scalar_curvature,
    metric_arrays,
    sphere_metric,
    vdw_entropy_hessian_fn,
    weinhold_entry_fn,
)


def sv(s, v):
    return StatePoint(Chart.ENTROPY_VOLUME, s, v)


def tv(t, v):
    return StatePoint(Chart.TEMPERATURE_VOLUME, t, v)


# Curvature and determinant frozen from high-precision evaluation at
# a=3/2, b=1/5, r=2, cv=5/2.
VDW_CURVATURE_TABLE = [
    (2.5, 1.4, 6.763182031760986756521, 0.07965467185509448257411),
    (3.0, 2.5, 3.345755284537767372851, 0.01797201530753231627606),
    (2.2, 0.9, 2.674660715897425968914, 0.5750626536004184156144),
]

BERTHELOT_CURVATURE_TABLE = [
    (8 / 3, 1.4, 0.02247113904401274800309),
    (2.5, 4.5, 0.009936429828852882390065),
]

BERTHELOT_PRINTED_TABLE = [
    (8 / 3, 1.4, 0.02372008738804134900852),
    (2.5, 4.5, -0.001247900489424535323571),
]


def test_fd_oracle_normalization_on_sphere():
    # the oracle itself must carry the textbook convention before it can
    # arbitrate between analytic routes
    r = 2.0
    got = fd_scalar_curvature(sphere_metric(r), 1.1, 0.7)
    assert got == pytest.approx(2.0 / (r * r), rel=1e-6)


class TestFrozenReferences:
    @pytest.mark.parametrize("s,v,r_ref,det_ref", VDW_CURVATURE_TABLE)
    def test_vdw_all_routes(self, vdw_model, s, v, r_ref, det_ref):
        rep = curvature_report(vdw_model, sv(s, v))
        assert rep.r_tensorial == pytest.approx(r_ref, rel=1e-12)
        assert rep.r_closed2d == pytest.approx(r_ref, rel=1e-12)
        assert rep.r_elementary == pytest.approx(r_ref, rel=1e-12)
        assert rep.r_model_closed == pytest.approx(r_ref, rel=1e-12)
        assert weinhold_metric(vdw_model, sv(s, v)).det == pytest.approx(
            det_ref, rel=1e-13)

    @pytest.mark.parametrize("t,v,r_ref", BERTHELOT_CURVATURE_TABLE)
    def test_berthelot_true_value(self, berthelot_model, t, v, r_ref):
        rep = curvature_report(berthelot_model, tv(t, v))
        assert rep.r_closed2d == pytest.approx(r_ref, rel=1e-12)
        assert rep.r_model_closed == pytest.approx(r_ref, rel=1e-12)

    @pytest.mark.parametrize("t,v,r_printed", BERTHELOT_PRINTED_TABLE)
    def test_berthelot_published_form_preserved(self, berthelot_model, t, v,
                                                r_printed):
        # the verbatim published polynomial disagrees with every computed
        # route; its value is kept for the record and flagged
        assert berthelot_printed_closed_form(
            berthelot_model, t, v) == pytest.approx(r_printed, rel=1e-12)
        rep = curvature_report(berthelot_model, tv(t, v))
        assert rep.discrepancy

    def test_no_discrepancy_for_vdw(self, vdw_model):
        assert not curvature_report(vdw_model, sv(2.5, 1.4)).discrepancy


class TestRouteAgreement:
    @pytest.mark.parametrize("fixture,window", [
        ("ideal_model", (0.5, 2.5, 0.6, 4.0)),
        ("vdw_model", (2.0, 3.2, 0.8, 1.3)),
        ("berthelot_model", (2.0, 3.0, 1.2, 4.0)),
    ])
    def test_pairwise_residual_small(self, request, rng, fixture, window):
        model = request.getfixturevalue(fixture)
        s_lo, s_hi, v_lo, v_hi = window
        done = 0
        while done < 25:
            s = rng.uniform(s_lo, s_hi)
            v = rng.uniform(v_lo, v_hi)
            try:
                rep = curvature_report(model, sv(s, v))
            except SingularState:
                continue
            assert rep.max_pairwise_residual < 1e-10
            done += 1

    @pytest.mark.parametrize("s,v", [(2.5, 1.4), (2.2, 0.9)])
    def test_vdw_tensorial_confirmed_by_fd(self, vdw_model, s, v):
        fd = fd_scalar_curvature(weinhold_entry_fn(vdw_model), s, v)
        rep = curvature_report(vdw_model, sv(s, v))
        assert rep.r_tensorial == pytest.approx(fd, rel=5e-6)

    def test_berthelot_tensorial_confirmed_by_fd(self, berthelot_model):
        st_ = berthelot_model.derivative_stack(tv(8 / 3, 1.4))
        fd = fd_scalar_curvature(weinhold_entry_fn(berthelot_model),
                                 st_.s, st_.v)
        rep = curvature_report(berthelot_model, tv(8 / 3, 1.4))
        assert rep.r_tensorial == pytest.approx(fd, rel=5e-5, abs=1e-7)


class TestIdealFlatness:
    def test_flat_on_grid_every_route(self, ideal_model):
        for i in range(12):
            for j in range(12):
                s = 1.0 + 2.0 * i / 11
                v = 1.0 + 3.0 * j / 11
                rep = curvature_report(ideal_model, sv(s, v))
                for route in ("r_tensorial", "r_closed2d", "r_elementary",
                              "r_model_closed"):
                    assert abs(getattr(rep, route)) < 1e-10, route


class TestConstantCvClosedForm:
    @pytest.mark.parametrize("s,v,r_ref,det_ref", VDW_CURVATURE_TABLE)
    def test_structural_equals_log_compressibility(self, vdw_model, s, v,
                                                   r_ref, det_ref):
        st = vdw_model.derivative_stack(sv(s, v))
        # the family's structural form, not van der Waals's own
        r_structural = ConstantCv.closed_curvature(vdw_model, st)
        x = st.dk_ds / st.k  # (d ln k / dS)_V
        r_log_k = (st.cv / (2.0 * st.t)) * x * (x + 1.0 / st.cv)
        assert (abs(r_structural - r_log_k)
                < 1e-12 * max(1.0, abs(r_structural)))
        assert r_structural == pytest.approx(r_ref, rel=1e-12)
        assert r_log_k == pytest.approx(r_ref, rel=1e-12)


class TestCurvatureSign:
    def negative_curvature_model(self):
        # mirror-image interaction: the volume part enters with opposite sign
        return ConstantCv(parse_expression("(V-0.2)^-0.8"),
                          parse_expression("-0.6/V"), cv=2.5)

    def test_negative_example_exists(self):
        model = self.negative_curvature_model()
        rep = curvature_report(model, sv(2.5, 1.4))
        assert rep.r_closed2d < 0.0

    @pytest.mark.parametrize("s,v", [(2.5, 1.4), (2.1, 1.0), (2.9, 2.0)])
    def test_predicate_tracks_sign(self, vdw_model, s, v):
        neg = self.negative_curvature_model()
        for model in (vdw_model, neg):
            rep = curvature_report(model, sv(s, v))
            assert negativity_test(model, sv(s, v)) == (rep.r_closed2d < 0.0)

    def test_predicate_false_on_flat_model(self, ideal_model):
        assert negativity_test(ideal_model, sv(1.5, 2.0)) is False


class TestFlatnessClassifier:
    def test_ideal_is_affine_interaction(self, ideal_model):
        assert zero_curvature_classify(ideal_model) is FlatnessClass.AFFINE_F2

    def test_exponential_heat_kernel_family(self):
        model = ConstantCv("0.7*exp(-0.4*V)", "0.3*V^2", cv=2.0)
        assert zero_curvature_classify(model) is FlatnessClass.EXPONENTIAL_F1
        for v in (1.0, 2.0, 3.5):
            rep = curvature_report(model, sv(1.2, v))
            assert abs(rep.r_closed2d) < 1e-9

    def test_vdw_not_flat(self, vdw_model):
        assert zero_curvature_classify(vdw_model) is FlatnessClass.NON_FLAT

    @pytest.mark.parametrize("scale", ["1e-8", "1", "1e8"])
    @pytest.mark.parametrize("f1,f2,expected", [
        ("(V-0.2)^-0.8", "0.6/V", FlatnessClass.NON_FLAT),
        ("0.7*exp(-0.4*V)", "0.3*V^2", FlatnessClass.EXPONENTIAL_F1),
        ("(V-0.2)^-0.8", "0.3*V + 0.1", FlatnessClass.AFFINE_F2),
    ])
    def test_class_does_not_depend_on_the_energy_unit(self, f1, f2, expected,
                                                      scale):
        model = ConstantCv(f"{scale}*({f1})", f"{scale}*({f2})", cv=2.5)
        assert zero_curvature_classify(model) is expected

    def test_vanishing_leading_function_degenerate(self):
        model = ConstantCv(ZeroFunction(), None, cv=2.0)
        assert (zero_curvature_classify(model)
                is FlatnessClass.DEGENERATE_F1_ZERO)


class TestEntropyRepresentation:
    @pytest.mark.parametrize("s,v", [(2.5, 1.4), (3.0, 2.5)])
    def test_direct_curvature_against_analytic_hessian(self, vdw_model, s, v):
        st_ = vdw_model.derivative_stack(sv(s, v))
        raw = vdw_entropy_hessian_fn(PARAMS)

        def entropy_metric(u, v_):
            s_uu, s_uv, s_vv = raw(u, v_)
            return -s_uu, -s_uv, -s_vv

        fd = fd_scalar_curvature(entropy_metric, st_.u, st_.v)
        direct = ruppeiner_direct_curvature(vdw_model, sv(s, v))
        assert direct == pytest.approx(fd, rel=5e-6)

    @pytest.mark.parametrize("s,v", [(2.5, 1.4), (3.0, 2.5), (2.2, 0.9)])
    def test_conformal_rescaling_route(self, vdw_model, s, v):
        direct = ruppeiner_direct_curvature(vdw_model, sv(s, v))
        analytic = ruppeiner_from_weinhold(vdw_model, sv(s, v))
        fd = ruppeiner_from_weinhold(vdw_model, sv(s, v), scheme="fd")
        assert analytic == pytest.approx(direct, rel=1e-10)
        assert fd == pytest.approx(direct, rel=1e-5)


def _vdw_energy(s, v):
    q = PARAMS
    return (v - q.b) ** (-q.r_gas / q.cv0) * math.exp(s / q.cv0) - q.a / v


class TestStackOrState:
    """The per-state functions give the same result from a state as from
    the stack already evaluated there."""

    MODELS = {
        "ideal": (IdealGas(PARAMS), sv(1.5, 2.0)),
        "vdw": (VanDerWaals(PARAMS), sv(2.5, 1.4)),
        "berthelot-sv": (Berthelot(PARAMS), sv(2.4, 2.2)),
        "berthelot-tv": (Berthelot(PARAMS), tv(1.2, 2.2)),
        "custom": (ConstantCv("(V-0.2)^-0.8", "0.6/V", cv=2.5),
                   sv(2.5, 1.4)),
        "numeric": (NumericEnergy(_vdw_energy), sv(2.5, 1.4)),
    }
    ROUTES = {
        "curvature_report": curvature_report,
        "determinant_report": determinant_report,
        "ruppeiner_direct_curvature": ruppeiner_direct_curvature,
        "ruppeiner_from_weinhold": ruppeiner_from_weinhold,
        "ruppeiner_from_weinhold-fd":
            lambda model, at: ruppeiner_from_weinhold(model, at, scheme="fd"),
        "laplace_beltrami_log_t": laplace_beltrami_log_t,
        "laplace_beltrami_log_t-fd":
            lambda model, at: laplace_beltrami_log_t(model, at, scheme="fd"),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_stack_gives_state_result(self, model, route):
        model, state = self.MODELS[model]
        fn = self.ROUTES[route]
        assert fn(model, model.derivative_stack(state)) == fn(model, state)

    def test_report_refuses_an_unchecked_stack(self):
        # its ten response coefficients are NaN: two routes would read NaN
        # and the pairwise residual would pass over them
        model = VanDerWaals(GasParameters(a=1.5, b=0.2, r_gas=2.0, cv0=2.5))
        stack = model.derivative_stack(sv(1.0, 1.2), check_singular=False)
        with pytest.raises(DomainError, match="unchecked stack"):
            curvature_report(model, stack)


class TestRiemannConsistency:
    # the index formula of the tensorial route, written out in
    # _riemann_ricci_loops, against the closed 2D route and itself
    def test_scalar_from_full_tensor(self, vdw_model):
        state = sv(2.5, 1.4)
        m = weinhold_metric(vdw_model, state)
        riemann, _ = _riemann_ricci_loops(*metric_arrays(m))
        # two-dimensional identity: R = 2 R_1212 / det
        r1212 = riemann[0][1][0][1]
        lowered = m.e11 * r1212 + m.e12 * riemann[1][1][0][1]
        rep = curvature_report(vdw_model, state)
        assert 2.0 * lowered / m.det == pytest.approx(
            rep.r_closed2d, rel=1e-10)

    def test_ricci_symmetric(self, vdw_model):
        _, ricci = _riemann_ricci_loops(*metric_arrays(
            weinhold_metric(vdw_model, sv(2.2, 0.9))))
        assert ricci[0][1] == pytest.approx(ricci[1][0], rel=1e-12)


class TestLocusBlowUp:
    def test_inverse_square_distance_scaling(self, vdw_model):
        from thermogeom.critical_locus import locus_entropy
        v = 1.2
        s_star = locus_entropy(vdw_model, v)
        r_values = {}
        for d in (1e-3, 1e-4):
            rep = curvature_report(vdw_model, sv(s_star + d, v))
            r_values[d] = abs(rep.r_closed2d)
        # |R| ~ d**-2: one decade in closer distance, two decades in magnitude
        ratio = r_values[1e-4] / r_values[1e-3]
        assert ratio == pytest.approx(100.0, rel=0.05)


# Reference loops: the index formulas written out one term at a time.  The
# einsum contractions of the tensorial route must reproduce them.


def _riemann_ricci_loops(g, dg):
    n = len(g)
    ginv = np.linalg.inv(g)
    riem = np.zeros((n, n, n, n))
    for l in range(n):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    acc = 0.0
                    for m in range(n):
                        for s in range(n):
                            for nn in range(n):
                                acc += (dg[i, j, m] * dg[s, nn, k]
                                        - dg[s, nn, j] * dg[k, i, m]) \
                                    * ginv[m, nn] * ginv[l, s]
                    riem[l, i, j, k] = 0.25 * acc
    ricci = np.zeros((n, n))
    for i in range(n):
        for k in range(n):
            acc = 0.0
            for l in range(n):
                acc += riem[l, i, l, k]
            ricci[i, k] = acc
    return riem, ricci


def _random_hessian_field(n, seed):
    """SPD metric g and fully symmetric third partials dg, both exactly
    symmetric."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    g = a @ a.T + n * np.eye(n)
    base = rng.normal(size=(n, n, n))
    dg = np.empty((n, n, n))
    for idx in itertools.product(range(n), repeat=3):
        dg[idx] = base[tuple(sorted(idx))]
    return 0.5 * (g + g.T), dg


class TestContractionAgainstLoops:
    # in 2D the symmetries of the index formula can hide a slipped index,
    # so the dimension-free contraction is checked at n = 3 and 4 as well
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_riemann_ricci_scalar(self, n, seed):
        g, dg = _random_hessian_field(n, seed)
        _, ricci = _riemann_ricci_loops(g, dg)
        ginv = np.linalg.inv(g)
        want = float(np.sum(ginv * ricci))
        got = float(np.sum(ginv * _ricci(dg, ginv)))
        assert got == pytest.approx(want, rel=1e-12)
        if n == 2:  # and the route, from the record's layout of g and dg
            metric = MetricTensor2(g[0, 0], g[0, 1], g[1, 1], dg[0, 0, 0],
                                   dg[0, 0, 1], dg[0, 1, 1], dg[1, 1, 1])
            assert scalar_curvature_tensorial(metric) == pytest.approx(
                want, rel=1e-12)


def _spread(rng, shape):
    """Signed entries whose magnitudes span 10^-20 to 10^20."""
    return (rng.choice([-1.0, 1.0], shape)
            * 10.0 ** rng.uniform(-20.0, 20.0, shape))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


class TestBatchedContraction:
    # a batch's cells ride on the contraction's last axes; each must round
    # exactly as a single cell does, whatever the magnitudes

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_equals_the_scalar_route(self, seed):
        rng = np.random.default_rng(seed)
        metric = MetricTensor2(*(_spread(rng, 4000) for _ in range(7)))
        batch = scalar_curvature_tensorial(metric)
        cells = [scalar_curvature_tensorial(MetricTensor2(*cell))
                 for cell in zip(*(f.tolist() for f in metric))]
        assert _bits(batch) == _bits(cells)

    def test_broadcast_grid_equals_the_scalar_route(self):
        # a grid's fields vary along one axis or the other, as its
        # entropy and volume terms do
        rng = np.random.default_rng(3)
        shapes = [(30, 1), (1, 40), (30, 1), (1, 40), (30, 40), (30, 1),
                  (1, 40)]
        metric = MetricTensor2(*(_spread(rng, shape) for shape in shapes))
        batch = scalar_curvature_tensorial(metric)
        cells = [scalar_curvature_tensorial(MetricTensor2(*cell))
                 for cell in zip(*(np.broadcast_to(f, (30, 40)).ravel()
                                   .tolist() for f in metric))]
        assert batch.shape == (30, 40)
        assert _bits(batch.ravel()) == _bits(cells)

    @pytest.mark.parametrize("n", [3, 4])
    def test_ricci_batch_equals_each_cell(self, n):
        rng = np.random.default_rng(n)
        cells = []
        for seed in range(200):
            g, dg = _random_hessian_field(n, seed)
            scale = 10.0 ** rng.uniform(-20.0, 20.0, 2)
            cells.append((np.linalg.inv(scale[0] * g), scale[1] * dg))
        ginv = np.stack([c[0] for c in cells], axis=-1)
        dg = np.stack([c[1] for c in cells], axis=-1)
        batch = _ricci(dg, ginv)
        assert batch.shape == (n, n, len(cells))
        assert _bits(np.moveaxis(batch, -1, 0)) == _bits(
            [_ricci(dg_k, ginv_k) for ginv_k, dg_k in cells])


class TestTensorialRoute:
    def test_singular_metric_raises(self):
        with pytest.raises(SingularState, match="not invertible"):
            scalar_curvature_tensorial(
                MetricTensor2(1.0, 1.0, 1.0, 1.0, 2.0, 3.0, 4.0))

    @pytest.mark.parametrize("eps, singular", [(5e-10, True), (2e-9, False)])
    def test_metric_routes_agree_on_degeneracy(self, eps, singular):
        # relative det = eps, inside the singular band at 5e-10 and
        # outside it at 2e-9: both routes decide by the band alone, and a
        # raise carries the metric's own determinant
        metric = MetricTensor2(1.0, 1.0, 1.0 + eps, 1.0, 2.0, 3.0, 4.0)
        for route in (scalar_curvature_closed2d, scalar_curvature_tensorial):
            if singular:
                with pytest.raises(SingularState) as info:
                    route(metric)
                assert info.value.det == metric.det
            else:
                assert math.isfinite(route(metric))

    @pytest.mark.parametrize("fixture,state", [
        ("vdw_model", (2.5, 1.4)),
        ("vdw_model", (2.2, 0.9)),
        ("berthelot_model", (8 / 3, 1.4)),
        ("berthelot_model", (2.4, 2.2)),
    ], ids=["vdw-2.5-1.4", "vdw-2.2-0.9", "berthelot-2.67-1.4",
            "berthelot-2.4-2.2"])
    def test_ruppeiner_metric(self, request, fixture, state):
        # the chain-rule record, closure-checked as it is built, is all the
        # contraction needs
        model = request.getfixturevalue(fixture)
        metric = ruppeiner_metric(model.derivative_stack(sv(*state)))
        assert scalar_curvature_tensorial(metric) == pytest.approx(
            scalar_curvature_closed2d(metric), rel=1e-10)
