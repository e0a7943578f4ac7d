"""Degeneracy decisions do not depend on units.

The van der Waals-like custom gas U = f1(V) e^(S/cv) - cv f2(V) with
f1 = (V-0.2)^-0.8 and f2 = 0.6/V is rescaled: U by a factor lam (f1 and f2
times lam), or V by a factor mu (f1 and f2 read at V/mu, states at mu V).
Whether a state's stack raises SingularState, its eigen_signature kind and
its radial_pairing class must be those of the unscaled gas.  The states
are a 12 x 12 grid over S in [0, 4], V in [0.3, 2], which straddles the
degeneracy locus, plus states on the locus and at relative determinant
about 5e-12 and 5e-8 to either side of it, inside and outside the
singular band.  The scan locus, the numeric critical point and a
geodesic's speeds at lam = 1e-78 and 1e78 are those of the unscaled gas,
with T, p and the speeds times lam.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermogeom import ConstantCv, SingularState, StatePoint, eigen_signature
from thermogeom.cli import main
from thermogeom.critical_locus import (
    critical_point,
    degeneracy_locus,
    locus_entropy,
)
from thermogeom.eos_models import relative_det
from thermogeom.hessian_surface import hessian_point_from_metric, radial_pairing
from thermogeom.metric_core import weinhold_metric

GRID = [(float(s), float(v)) for s in np.linspace(0.0, 4.0, 12)
        for v in np.linspace(0.3, 2.0, 12)]
LOCUS_VOLUMES = (0.4, 0.6, 1.0, 1.6)
LOCUS_OFFSETS = (0.0, -1e-11, 1e-11, -1e-7, 1e-7)


def gas(lam=1.0, mu=1.0):
    return ConstantCv(f"{lam!r}*(V/{mu!r}-0.2)^-0.8",
                      f"{lam!r}*0.6/(V/{mu!r})", cv=2.5)


def decisions(model, mu=1.0):
    """(singular, signature, radial class) at each state, V scaled by mu."""
    states = [(s, mu * v) for s, v in GRID]
    for v in LOCUS_VOLUMES:
        s_star = locus_entropy(model, mu * v)
        states += [(s_star + ds, mu * v) for ds in LOCUS_OFFSETS]
    out = []
    for s, v in states:
        state = StatePoint.entropy_volume(s, v)
        try:
            stack = model.derivative_stack(state)
            singular = False
        except SingularState:
            stack = model.derivative_stack(state, check_singular=False)
            singular = True
        metric = weinhold_metric(model, stack)
        out.append((singular,
                    eigen_signature(metric).kind,
                    radial_pairing(hessian_point_from_metric(metric)).kind))
    return out


UNSCALED = decisions(gas())


def test_unscaled_decisions_cover_every_case():
    singular, signature, _ = (set(col) for col in zip(*UNSCALED))
    assert singular == {False, True}
    assert {kind.value for kind in signature} == {
        "degenerate", "indefinite", "positive_definite"}


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.floats(-8.0, 8.0).map(lambda x: 10.0 ** x))
def test_energy_unit_changes_no_decision(lam):
    assert decisions(gas(lam=lam)) == UNSCALED


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x))
def test_volume_unit_changes_no_singular_or_signature_decision(mu):
    got = [row[:2] for row in decisions(gas(mu=mu), mu)]
    assert got == [row[:2] for row in UNSCALED]


@pytest.mark.parametrize("k", [-520, -600, -1000])
def test_relative_det_survives_underflow(k):
    # entries times 2^k: their products are subnormal (k = -520) or 0, and
    # a product of 0 would read as a degenerate state
    entries = [math.ldexp(x, k) for x in (3.0, 1.25, 0.75)]
    want = relative_det(3.0, 1.25, 0.75)
    assert relative_det(*entries) == want
    # over a grid's arrays, an underflowing cell beside a unit-sized one
    cells = relative_det(*(np.array([x, math.ldexp(x, -k)]) for x in entries))
    assert cells.tolist() == [want, want]


def close(got, want):
    return math.isclose(got, want, rel_tol=1e-13)


@pytest.mark.parametrize("lam", [1e-78, 1e78])
def test_energy_unit_moves_no_scan_locus_sample(lam):
    want = degeneracy_locus(gas(), (0.3, 3.0), 8, method="scan").samples
    got = degeneracy_locus(gas(lam=lam), (0.3, 3.0), 8, method="scan").samples
    assert [smp.v for smp in got] == [smp.v for smp in want]
    for smp, ref in zip(got, want):
        assert close(smp.s, ref.s)
        assert close(smp.t, lam * ref.t) and close(smp.p, lam * ref.p)


@pytest.mark.parametrize("lam", [1e-78, 1e78])
def test_energy_unit_moves_no_numeric_critical_point(lam):
    want = critical_point(gas(), method="numeric")
    got = critical_point(gas(lam=lam), method="numeric")
    assert close(got.v_c, want.v_c)
    assert close(got.t_c, lam * want.t_c) and close(got.p_c, lam * want.p_c)


def test_energy_unit_blanks_no_geodesic_speed(capsys):
    def speeds(lam):
        assert main(["geodesic", "--model", "custom", "--cv", "2.5",
                     "--f1", f"{lam!r}*(V-0.2)^-0.8", "--f2", f"{lam!r}*0.6/V",
                     "--start-s", "2.5", "--start-v", "1.2",
                     "--start-sdot", "-0.2", "--start-vdot", "0",
                     "--t-end", "40", "--samples", "11",
                     "--format", "json"]) == 0
        return [row[-1] for row in json.loads(capsys.readouterr().out)["rows"]]

    want, got = speeds(1.0), speeds(1e-78)
    assert len(got) == len(want) == 11 and None not in got
    for speed, ref in zip(got, want):
        assert math.isclose(speed, 1e-78 * ref, rel_tol=1e-12)
