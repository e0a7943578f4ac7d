"""Timings of one locus volume, one pytest-benchmark case each.  They sit
outside ``testpaths``, so tier-1 does not run them:

    PYTHONPATH=src python -m pytest benchmarks/test_locus_layers.py

For each of four models (vdW, Berthelot, the README custom gas f1 =
(V-0.2)^-0.8, f2 = 0.6/V, and a central-difference ``NumericEnergy``
around the vdW energy) the cases are:

* the entropy scan of the first volume, V = 1, which a continued locus
  runs before its corrector takes over;
* one continued volume, the Newton corrector's step from the locus point
  at V = 1 to the next of 40 volumes spaced geometrically over a decade,
  the spacing of a ``locus --method scan --n 40`` run.

``extra_info`` holds the model evaluations of one run (``_fields`` calls,
and the Hessian-only probes of a central ``NumericEnergy``, which call U
directly) and, for ``NumericEnergy``, its calls of U.
"""
import math

import pytest

from thermogeom import (
    Berthelot,
    ConstantCv,
    DomainError,
    GasParameters,
    NumericEnergy,
    VanDerWaals,
)
from thermogeom.critical_locus import (
    _locus_stack,
    _scan_locus_entropy,
    _scan_window,
)
from thermogeom.eos_models import relative_det

GAS = GasParameters(a=1.5, b=0.2, r_gas=2.0, cv0=2.5)
NEXT_VOLUME = 10.0 ** (1.0 / 39.0)  # the second of 40 volumes over (1, 10)


def vdw_energy(s, v):
    a, b, r, cv = GAS.a, GAS.b, GAS.r_gas, GAS.cv0
    if v <= b:
        raise DomainError(f"volume {v} is below the covolume {b}")
    return (v - b) ** (-r / cv) * math.exp(s / cv) - a / v


MODELS = {
    "vdw": VanDerWaals(GAS),
    "berthelot": Berthelot(GAS),
    "custom": ConstantCv("(V-0.2)^-0.8", "0.6/V", cv=2.5),
    "numeric": NumericEnergy(vdw_energy),
}
# the closed-form locus each scan lands on; NumericEnergy's finite
# differences carry about 1e-8 of noise
EXACT = {"vdw": VanDerWaals(GAS), "berthelot": Berthelot(GAS),
         "custom": VanDerWaals(GAS), "numeric": VanDerWaals(GAS)}


def record(benchmark, monkeypatch, name, run):
    """One untimed run of ``run`` with its model evaluations counted."""
    model, evaluations, u_calls = MODELS[name], [], []
    cls = type(model)

    def fields(self, *args, _original=cls._fields):
        evaluations.append(args)
        return _original(self, *args)
    monkeypatch.setattr(cls, "_fields", fields)
    if name == "numeric":
        def hessian(self, *args, _original=cls._hessian):
            evaluations.append(args)
            return _original(self, *args)
        monkeypatch.setattr(cls, "_hessian", hessian)
        monkeypatch.setattr(model, "u", lambda s, v: u_calls.append(s)
                            or vdw_energy(s, v))
    run()
    monkeypatch.undo()
    benchmark.extra_info["model_evaluations"] = len(evaluations)
    if name == "numeric":
        benchmark.extra_info["u_calls"] = len(u_calls)


@pytest.mark.parametrize("name", list(MODELS))
def test_first_volume_scan(benchmark, monkeypatch, name):
    model = MODELS[name]
    window = _scan_window(model)
    s = benchmark(_scan_locus_entropy, model, 1.0, window)
    assert s == pytest.approx(EXACT[name].locus_state(1.0)[0], rel=1e-7)
    record(benchmark, monkeypatch, name,
           lambda: _scan_locus_entropy(model, 1.0, window))


@pytest.mark.parametrize("name", list(MODELS))
def test_continued_volume(benchmark, monkeypatch, name):
    model = MODELS[name]
    window = _scan_window(model)
    near = _locus_stack(model, 1.0, window, None)
    stack = benchmark(_locus_stack, model, NEXT_VOLUME, window, near)
    assert abs(relative_det(*stack[5:8])) <= 1e-6
    assert stack.s == pytest.approx(
        EXACT[name].locus_state(NEXT_VOLUME)[0], rel=1e-7)
    record(benchmark, monkeypatch, name,
           lambda: _locus_stack(model, NEXT_VOLUME, window, near))
