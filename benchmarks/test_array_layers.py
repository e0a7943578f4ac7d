"""Timings of the array passes a grid command runs, one pytest-benchmark
case each.  They sit outside ``testpaths``, so tier-1 does not run them:

    PYTHONPATH=src python -m pytest benchmarks/test_array_layers.py

The cases:

* the tensorial curvature route on a 400-cell batch (a 20 x 20 vdW grid
  straddling the degeneracy locus);
* the Berthelot S-V temperature inversion on 20,000 seeded states, S in
  [-125, 125] and V in [0.21, 10];
* a 64 x 64 Berthelot S-V ``curvature-grid``, in-process, output captured.
"""
import contextlib
import io

import numpy as np
import pytest

from thermogeom import cli
from thermogeom.curvature import scalar_curvature_tensorial
from thermogeom.eos_models import Berthelot, Chart, GasParameters, make_model
from thermogeom.metric_core import weinhold_metric

GAS = GasParameters(a=1.5, b=0.2, r_gas=2.0, cv0=2.5)
BERTHELOT = ["--model", "berthelot", "--a", "1.5", "--b", "0.2",
             "--r-gas", "2", "--cv", "2.5"]


@pytest.fixture(scope="module")
def vdw_batch():
    model = make_model("vdw", GAS)
    s, v = np.linspace(1.5, 3.5, 20)[:, None], np.linspace(0.5, 1.8, 20)
    return weinhold_metric(model, model.array_stack(Chart.ENTROPY_VOLUME,
                                                    s, v))


def test_tensorial_400_cells(benchmark, vdw_batch):
    r = benchmark(scalar_curvature_tensorial, vdw_batch)
    assert r.shape == (400,)


def test_berthelot_inversion_20000_states(benchmark):
    rng = np.random.default_rng(31)
    s = rng.uniform(-125.0, 125.0, 20000)
    v = rng.uniform(0.21, 10.0, 20000)
    t = benchmark(Berthelot(GAS)._temperature_from_entropy, s, v)
    assert np.all(t > 0.0)


def test_berthelot_sv_grid_64(benchmark):
    argv = ["curvature-grid", *BERTHELOT, "--smin=-6", "--smax=-2",
            "--vmin", "0.4", "--vmax", "1.4", "--n", "64"]

    def run():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = cli.main(argv)
        return rc, out.getvalue()

    rc, out = benchmark(run)
    assert rc == 0 and out.count("\n") > 64 * 64
