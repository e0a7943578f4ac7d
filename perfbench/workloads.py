"""Seeded job lists for the three benchmark workloads.

Every job is either one CLI invocation (``argv`` for ``thermogeom.cli.main``)
or one library call where the CLI has no route: a ``NumericEnergy`` model,
which the CLI cannot build, or a custom-model critical point in a volume
window, for which ``critical`` has no flag.  Gas parameters are jittered around a=1.5, b=0.2, R=2, cv=2.5 and
every window is placed from closed forms, so the same seed gives the same
jobs and different seeds give jobs of nearly the same cost.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

NOMINAL = {"a": 1.5, "b": 0.2, "r": 2.0, "cv": 2.5}
JITTER = 0.05
# The custom model keeps the README form f1 = (V-b)^-0.8, f2 = c/V; it is a
# van der Waals gas with R = 0.8 cv and a = c cv.
CUSTOM_EXPONENT = 0.8

WORKLOADS = ("sweep", "locus", "geodesic")


@dataclass(frozen=True)
class Gas:
    model: str  # ideal, vdw, berthelot or custom
    a: float
    b: float
    r: float
    cv: float

    def custom_functions(self) -> tuple[str, str]:
        """f1 and f2 expressions of the custom model."""
        return f"(V-{self.b!r})^-{CUSTOM_EXPONENT!r}", f"{self.a / self.cv!r}/V"

    def flags(self) -> list[str]:
        if self.model == "custom":
            f1, f2 = self.custom_functions()
            return ["--model", "custom", "--cv", repr(self.cv),
                    "--f1", f1, "--f2", f2]
        if self.model == "ideal":
            return ["--model", "ideal", "--r-gas", repr(self.r),
                    "--cv", repr(self.cv)]
        return ["--model", self.model, "--a", repr(self.a), "--b", repr(self.b),
                "--r-gas", repr(self.r), "--cv", repr(self.cv)]

    def critical(self) -> tuple[float, float]:
        """Closed-form (V_c, T_c); the ideal gas borrows its vdW partner's."""
        if self.model == "berthelot":
            return 3.0 * self.b, math.sqrt(8.0 * self.a / (27.0 * self.r * self.b))
        return 3.0 * self.b, 8.0 * self.a / (27.0 * self.b * self.r)

    def entropy(self, t: float, v: float) -> float:
        """Closed-form S(T, V) with s0 = 0."""
        if self.model == "berthelot":
            return (self.cv * math.log(t) + self.r * math.log(v - self.b)
                    - self.a / (v * t * t))
        return self.cv * math.log(self.cv * t) + self.r * math.log(v - self.b)

    def locus_temperature(self, v: float) -> float:
        """Closed-form temperature where the metric determinant vanishes."""
        w = v - self.b
        if self.model == "berthelot":
            return (w / v) * math.sqrt(2.0 * self.a / (self.r * v))
        return 2.0 * self.a * w * w / (self.r * v ** 3)

    def locus_entropy(self, v: float) -> float:
        return self.entropy(self.locus_temperature(v), v)


def opt(flag: str, value: float) -> str:
    # "--flag=value": argparse takes a separate "-1e-05" for an option name
    return f"{flag}={value!r}"


def jitter_gas(rng: random.Random, model: str) -> Gas:
    a, b, r, cv = (NOMINAL[k] * (1.0 + rng.uniform(-JITTER, JITTER))
                   for k in ("a", "b", "r", "cv"))
    if model == "custom":
        r = CUSTOM_EXPONENT * cv
    return Gas(model, a, b, r, cv)


def nominal_gas(model: str) -> Gas:
    return Gas(model, NOMINAL["a"], NOMINAL["b"], NOMINAL["r"], NOMINAL["cv"])


@dataclass
class Job:
    kind: str
    gas: Gas
    argv: list[str] | None = None  # None for library calls
    size: int = 0  # cells, states or locus points the job produces
    fmt: str = "csv"
    window: tuple[float, float] = (0.0, 0.0)  # volume window of library calls
    label: str = ""

    def __post_init__(self):
        if not self.label:
            self.label = f"{self.kind}:{self.gas.model}"


@dataclass(frozen=True)
class Sizes:
    grid_n: int
    verify_states: int
    locus_n: int
    numeric_locus_n: int
    geodesics_per_model: int


FULL = Sizes(grid_n=20, verify_states=200, locus_n=40, numeric_locus_n=32,
             geodesics_per_model=25)
SMOKE = Sizes(grid_n=4, verify_states=10, locus_n=4, numeric_locus_n=4,
              geodesics_per_model=2)


def _grid_window(gas: Gas, chart: str) -> list[str]:
    # Straddles the degeneracy locus, so positive-definite and indefinite
    # cells both occur (about 40% positive-definite over the six grids).
    v_c, t_c = gas.critical()
    if chart == "tv":
        lo, hi = 0.75 * t_c, 1.15 * t_c
    else:
        s_c = gas.entropy(t_c, v_c)
        lo, hi = s_c - 1.2, s_c + 1.8
    return ["--chart", chart, opt("--smin", lo), opt("--smax", hi),
            opt("--vmin", 0.6 * v_c), opt("--vmax", 2.2 * v_c)]


def sweep_jobs(rng: random.Random, sizes: Sizes) -> list[Job]:
    formats = ("csv", "json", "svg")
    jobs = []
    k = 0
    n = sizes.grid_n
    for model in ("vdw", "custom", "berthelot"):
        gas = jitter_gas(rng, model)
        for chart in ("sv", "tv"):
            window = _grid_window(gas, chart)
            for command in ("curvature-grid", "surface"):
                fmt = formats[k % 3]
                k += 1
                argv = [command, *gas.flags(), *window, "--n", str(n),
                        "--format", fmt]
                jobs.append(Job(command, gas, argv, size=n * n, fmt=fmt,
                                label=f"{command}:{model}:{chart}:{fmt}"))
    # verify runs where it passes on every seed (ideal, Berthelot); its
    # known failures on vdw and custom are the defect probe's, see
    # defect_jobs
    for model in ("ideal", "berthelot"):
        gas = jitter_gas(rng, model)
        argv = ["verify", *gas.flags(), "--states", str(sizes.verify_states),
                "--seed", str(rng.randrange(1 << 30))]
        jobs.append(Job("verify", gas, argv, size=sizes.verify_states,
                        label=f"verify:{model}"))
    return jobs


def locus_jobs(rng: random.Random, sizes: Sizes) -> list[Job]:
    jobs = []
    for i, model in enumerate(("vdw", "berthelot", "custom")):
        gas = jitter_gas(rng, model)
        v_c, _ = gas.critical()
        window = [opt("--vmin", 0.6 * v_c), opt("--vmax", 6.0 * v_c)]
        fmt = ("csv", "json")[i % 2]
        jobs.append(Job("locus-scan", gas,
                        ["locus", *gas.flags(), "--method", "scan", *window,
                         "--n", str(sizes.locus_n), "--format", fmt],
                        size=sizes.locus_n, fmt=fmt,
                        label=f"locus-scan:{model}:{fmt}"))
        jobs.append(Job("locus-auto", gas,
                        ["locus", *gas.flags(), *window, "--n", "200"],
                        size=200, label=f"locus-auto:{model}"))
        if model == "custom":
            # the CLI's custom critical point is a known defect (see
            # defect_jobs); the library call takes a window above b
            jobs.append(Job("library-critical", gas, size=1,
                            window=(0.6 * v_c, 6.0 * v_c)))
        else:
            jobs.append(Job("critical", gas,
                            ["critical", *gas.flags(), "--method", "numeric"],
                            size=1, label=f"critical:{model}"))
    gas = jitter_gas(rng, "vdw")
    v_c, _ = gas.critical()
    jobs.append(Job("numeric-locus", gas, size=sizes.numeric_locus_n,
                    window=(0.6 * v_c, 6.0 * v_c)))
    # The generic critical-point path bisects a finite-difference slope of
    # finite-difference stacks; its iteration count (65k to 120k stacks)
    # jumps with the parameters, so this one call keeps the nominal gas and
    # every seed times the same work.
    gas = nominal_gas("vdw")
    v_c, _ = gas.critical()
    jobs.append(Job("numeric-critical", gas, size=1,
                    window=(0.5 * v_c, 5.0 * v_c)))
    return jobs


def geodesic_jobs(rng: random.Random, sizes: Sizes) -> list[Job]:
    # Starts lie above the locus and directions cover the circle in equal
    # strata, so about a quarter of the runs stop at locus proximity on
    # every seed and the cost of a pass barely depends on the seed.
    jobs = []
    m = sizes.geodesics_per_model
    for model in ("ideal", "vdw", "custom", "berthelot"):
        gas = jitter_gas(rng, model)
        partner = gas if model != "ideal" else Gas("vdw", gas.a, gas.b, gas.r, gas.cv)
        v_c, _ = gas.critical()
        for i in range(m):
            v = v_c * (1.2 + 1.8 * ((i * 7) % m + rng.random()) / m)
            s = partner.locus_entropy(v) + 0.02 + 0.4 * ((i * 11) % m + rng.random()) / m
            angle = 2.0 * math.pi * (i + rng.random()) / m
            fmt = ("csv", "json")[i % 2]
            argv = ["geodesic", *gas.flags(),
                    opt("--start-s", s), opt("--start-v", v),
                    opt("--start-sdot", 0.15 * math.cos(angle)),
                    opt("--start-vdot", 0.075 * v_c * math.sin(angle)),
                    "--t-end", "10", "--tol", "1e-9", "--format", fmt]
            jobs.append(Job("geodesic", gas, argv, size=1, fmt=fmt,
                            label=f"geodesic:{model}:{i}"))
    return jobs


def defect_jobs() -> list[Job]:
    """Fixed jobs that reproduce the defects known when this benchmark was
    defined.  They run once per run, untimed and outside ``attempted`` and
    ``failed``, so those counts do not depend on how many passes fit in
    ``--seconds``; each one whose check fails counts in ``known_defects``.

    - ``verify`` on vdw fails ``entropy-representation-conformal`` (seed 0)
      and ``coefficient-identity-2`` (seed 1) at 50 states: its tolerances
      are absolute (ROADMAP item 5).
    - ``critical`` on the custom model raises ``TypeError``: the default
      window (1e-2, 1e2) reaches V < b, where ``**`` returns a complex.
    """
    vdw = nominal_gas("vdw")
    custom = Gas("custom", NOMINAL["a"], NOMINAL["b"],
                 CUSTOM_EXPONENT * NOMINAL["cv"], NOMINAL["cv"])
    jobs = [Job("verify", vdw,
                ["verify", *vdw.flags(), "--states", "50", "--seed", str(seed)],
                size=50, label=f"verify:vdw:states=50:seed={seed}")
            for seed in (0, 1)]
    jobs.append(Job("critical", custom, ["critical", *custom.flags()], size=1,
                    label="critical:custom"))
    return jobs


def build(workload: str, seed: int, sizes: Sizes = FULL) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    return {"sweep": sweep_jobs, "locus": locus_jobs,
            "geodesic": geodesic_jobs}[workload](rng, sizes)


def setup_argv(workload: str, seed: int) -> list[str]:
    """One tiny CLI job that stands for a workload in a fresh interpreter."""
    gas = jitter_gas(random.Random(f"{workload}:{seed}"), "vdw")
    v_c, t_c = gas.critical()
    if workload == "sweep":
        return ["curvature-grid", *gas.flags(), *_grid_window(gas, "sv"),
                "--n", "2"]
    if workload == "locus":
        return ["locus", *gas.flags(), "--method", "scan",
                opt("--vmin", 0.6 * v_c), opt("--vmax", 6.0 * v_c), "--n", "2"]
    v = 2.0 * v_c
    return ["geodesic", *gas.flags(), opt("--start-s", gas.locus_entropy(v) + 0.5),
            opt("--start-v", v), "--start-sdot", "0.1", "--t-end", "0.5"]
