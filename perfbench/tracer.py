"""Layer spans recorded from outside the program.

``Tracer.install()`` replaces the public functions of each thermogeom
module, and ``scipy.integrate.solve_ivp``, with wrappers in every module
namespace that binds them, so calls from one layer into another are seen
wherever the caller looked the name up.  Each call records a span (name,
parent span, job, start, end) in memory; ``layer_metrics`` turns the spans
of one pass into per-layer counts, self times and ratios.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# layer -> public functions wrapped in every namespace that binds them
FUNCTIONS = {
    "metric_core": ("weinhold_metric", "eigen_signature", "identity_residuals",
                    "determinant_report"),
    "curvature": ("curvature_report", "scalar_curvature_tensorial",
                  "scalar_curvature_closed2d", "scalar_curvature_elementary",
                  "model_closed_form", "ruppeiner_direct_curvature",
                  "ruppeiner_from_weinhold"),
    "hessian_surface": ("hessian_map", "radial_pairing"),
    "critical_locus": ("degeneracy_locus", "critical_point", "locus_entropy"),
    "geodesics": ("integrate_geodesic", "christoffel_from_stack",
                  "christoffel_elementary", "metric_speed"),
}
# (layer, class, method): methods are wrapped on the class that defines them
METHODS = (
    ("eos_models", "ConstantCv", "derivative_stack"),
    ("eos_models", "Berthelot", "derivative_stack"),
    ("eos_models", "NumericEnergy", "derivative_stack"),
    ("expressions", "Expression", "eval_derivs"),
)
STACK_KINDS = ("vdw", "ideal", "custom", "berthelot_sv", "berthelot_tv", "numeric")
LAYERS = ("cli", "eos_models", "expressions", "metric_core", "curvature",
          "hessian_surface", "critical_locus", "geodesics", "scipy")
STACK = "eos_models.derivative_stack"
DEGENERACY_LOCUS = "critical_locus.degeneracy_locus"
SOLVE_IVP = "scipy.solve_ivp"
TERMINATIONS = ("completed", "locus_proximity", "domain_exit")
IVP_STATUS = {-1: "failed", 0: "completed", 1: "event"}


def _stack_kind(model, state) -> str:
    name = {"constant_cv": "custom"}.get(model.name, model.name)
    if name == "berthelot":
        chart = "tv" if state.chart.value == "temperature_volume" else "sv"
        return f"berthelot_{chart}"
    return name


class Tracer:
    """In-memory spans of the wrapped calls of one pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, job, start, end]
        self.counts: Counter = Counter()
        self.job = -1
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self):
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    def _wrap(self, fn, name, post=None):
        open_ = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            span = [name(args, kwargs) if callable(name) else name,
                    open_[-1] if open_ else -1, self.job, clock(), 0.0]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                open_.pop()
            if post is not None:
                post(self.counts, result)
            return result

        return wrapper

    def _patch(self, namespace, attr, wrapper):
        self._restore.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def _patch_everywhere(self, prefixes, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith(prefixes):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self):
        import scipy.integrate
        import thermogeom
        from thermogeom import cli

        self._patch(cli, "main", self._wrap(cli.main, "cli.main"))
        posts = {"degeneracy_locus": _count_locus_points,
                 "integrate_geodesic": _count_termination}
        for layer, names in FUNCTIONS.items():
            module = sys.modules[f"thermogeom.{layer}"]
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapper = self._wrap(original, f"{layer}.{fn_name}",
                                     posts.get(fn_name))
                self._patch_everywhere(("thermogeom",), original, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(thermogeom, cls_name)
            original = cls.__dict__[meth]
            if meth == "derivative_stack":
                def name(args, kwargs):
                    state = args[1] if len(args) > 1 else kwargs["state"]
                    return f"{STACK}.{_stack_kind(args[0], state)}"
            else:
                name = f"{layer}.{cls_name}.{meth}"
            self._patch(cls, meth, self._wrap(original, name))
        # both where scipy defines it and wherever thermogeom looks it up,
        # so a lazy import inside geodesics is traced too
        original = scipy.integrate.solve_ivp
        wrapper = self._wrap(original, SOLVE_IVP, _count_ivp)
        self._patch_everywhere(("scipy.integrate", "thermogeom"), original, wrapper)

    def uninstall(self):
        while self._restore:
            namespace, attr, value = self._restore.pop()
            setattr(namespace, attr, value)


def _count_locus_points(counts, line):
    counts["locus_points"] += len(line.samples)


def _count_termination(counts, traj):
    counts[f"termination.{traj.termination.value}"] += 1
    counts["affine_time"] += traj.times[-1] - traj.times[0]


def _count_ivp(counts, sol):
    counts["nfev"] += sol.nfev
    counts["njev"] += sol.njev
    counts[f"status.{IVP_STATUS.get(sol.status, 'failed')}"] += 1


def _ratio(num, den):
    return num / den if den else 0.0


def metric_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in output order."""
    units = {"cli.main.calls": "count", "cli.main.self_ms": "ms",
             "cli.bytes_out": "B"}
    for kind in STACK_KINDS:
        units[f"{STACK}.{kind}.calls"] = "count"
        units[f"{STACK}.{kind}.self_ms"] = "ms"
        units[f"{STACK}.{kind}.us_per_call"] = "us"
    for ratio in ("stacks_per_cell", "stacks_per_verify_state",
                  "stacks_per_locus_point", "stacks_per_nfev"):
        units[f"eos_models.{ratio}"] = "1"
    units["expressions.Expression.eval_derivs.calls"] = "count"
    units["expressions.Expression.eval_derivs.self_ms"] = "ms"
    for layer, names in FUNCTIONS.items():
        for fn_name in names:
            units[f"{layer}.{fn_name}.calls"] = "count"
            units[f"{layer}.{fn_name}.self_ms"] = "ms"
    units["curvature.tensorial_share"] = "1"
    units["critical_locus.us_per_locus_point"] = "us"
    units["geodesics.nfev_per_affine_time"] = "1"
    for reason in TERMINATIONS:
        units[f"geodesics.termination.{reason}"] = "count"
    units[f"{SOLVE_IVP}.calls"] = "count"
    units[f"{SOLVE_IVP}.self_ms"] = "ms"
    units[f"{SOLVE_IVP}.nfev"] = "count"
    units[f"{SOLVE_IVP}.njev"] = "count"
    for status in IVP_STATUS.values():
        units[f"{SOLVE_IVP}.status.{status}"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_ms"] = "ms"
        units[f"{layer}.share"] = "1"
    return units


def layer_metrics(spans, counts, jobs) -> dict[str, float]:
    """Per-layer metrics of one traced pass over ``jobs``.

    Self time is a span's duration minus the durations of its child spans;
    spans are strictly nested because every wrapped call is synchronous.
    """
    n = len(spans)
    child = [0.0] * n
    in_locus = [False] * n
    in_ivp = [False] * n
    calls, self_s, incl_s = Counter(), Counter(), Counter()
    stacks_by_kind = Counter()
    stacks_in_locus = stacks_in_ivp = 0
    top_level = 0.0
    for i, (name, parent, job, start, end) in enumerate(spans):
        dur = end - start
        if parent >= 0:
            child[parent] += dur
            in_locus[i] = in_locus[parent]
            in_ivp[i] = in_ivp[parent]
        else:
            top_level += dur
        in_locus[i] = in_locus[i] or name == DEGENERACY_LOCUS
        in_ivp[i] = in_ivp[i] or name == SOLVE_IVP
        calls[name] += 1
        incl_s[name] += dur
        if name.startswith(STACK):
            stacks_by_kind[jobs[job].kind] += 1
            stacks_in_locus += in_locus[i]
            stacks_in_ivp += in_ivp[i]
    layer_self = Counter()
    for (name, _, _, start, end), below in zip(spans, child):
        self_s[name] += end - start - below
        layer_self[name.split(".")[0]] += end - start - below

    size_by_kind = Counter()
    for job in jobs:
        size_by_kind[job.kind] += job.size

    m = {}
    for key, unit in metric_units().items():
        if key.endswith(".calls"):
            m[key] = calls[key[:-len(".calls")]]
        elif key.endswith(".self_ms") and key.count(".") > 1:
            m[key] = 1e3 * self_s[key[:-len(".self_ms")]]
    for kind in STACK_KINDS:
        name = f"{STACK}.{kind}"
        m[f"{name}.us_per_call"] = 1e6 * _ratio(incl_s[name], calls[name])
    m["eos_models.stacks_per_cell"] = _ratio(
        stacks_by_kind["curvature-grid"], size_by_kind["curvature-grid"])
    m["eos_models.stacks_per_verify_state"] = _ratio(
        stacks_by_kind["verify"], size_by_kind["verify"])
    m["eos_models.stacks_per_locus_point"] = _ratio(stacks_in_locus,
                                                    counts["locus_points"])
    m["eos_models.stacks_per_nfev"] = _ratio(stacks_in_ivp, counts["nfev"])
    m["curvature.tensorial_share"] = _ratio(
        incl_s["curvature.scalar_curvature_tensorial"],
        incl_s["curvature.curvature_report"])
    m["critical_locus.us_per_locus_point"] = 1e6 * _ratio(
        incl_s[DEGENERACY_LOCUS], counts["locus_points"])
    m["geodesics.nfev_per_affine_time"] = _ratio(counts["nfev"],
                                                 counts["affine_time"])
    for reason in TERMINATIONS:
        m[f"geodesics.termination.{reason}"] = counts[f"termination.{reason}"]
    m[f"{SOLVE_IVP}.nfev"] = counts["nfev"]
    m[f"{SOLVE_IVP}.njev"] = counts["njev"]
    for status in IVP_STATUS.values():
        m[f"{SOLVE_IVP}.status.{status}"] = counts[f"status.{status}"]
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = 1e3 * layer_self[layer]
        m[f"{layer}.share"] = _ratio(layer_self[layer], top_level)
    return m
