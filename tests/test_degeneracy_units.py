"""Degeneracy decisions do not depend on units.

The van der Waals-like custom gas U = f1(V) e^(S/cv) - cv f2(V) with
f1 = (V-0.2)^-0.8 and f2 = 0.6/V is rescaled: U by a factor lam (f1 and f2
times lam), or V by a factor mu (f1 and f2 read at V/mu, states at mu V).
Whether a state's stack raises SingularState, its eigen_signature kind and
its radial_pairing class must be those of the unscaled gas.  The states
are a 12 x 12 grid over S in [0, 4], V in [0.3, 2], which straddles the
degeneracy locus, plus states on the locus and at relative determinant
about 5e-12 and 5e-8 to either side of it, inside and outside the
singular band.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermogeom import ConstantCv, SingularState, StatePoint, eigen_signature
from thermogeom.critical_locus import locus_entropy
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
                    eigen_signature(metric, stack).kind,
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
