"""thermogeom benchmark: one closed-loop client runs a seeded workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --smoke

A run repeats the workload's fixed job list in passes until ``--seconds``
have elapsed.  Jobs are CLI invocations through ``thermogeom.cli.main``
with output captured in memory, plus library calls where the CLI has no
route.  Each job also runs, interleaved, on ``frozen_thermogeom``, a copy
of the program kept as it was when this benchmark was defined; ``run_rel``
is the program's time over the frozen copy's, which cancels the host's
speed.  Every output is checked after timing ends, and a fixed known-defect
probe runs once, untimed, outside ``attempted`` and ``failed``.  The
human-readable report goes to stdout and the last line is one JSON object
with the metrics:
end-to-end ones with ``--trace 0``, per-layer ones with ``--trace 1``.
``--smoke`` runs all workloads at a small size and checks that every
metric is emitted with its unit.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads, so the 2x2 linear algebra
# of the curvature routes starts no thread pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 5
MIN_PASSES = 3

END_TO_END = {"setup_s": "s", "run_rel": "1", "peak_rss_mb": "MB"}
# Workload-level results that exist on one workload only, so they are
# reported with the per-layer metrics instead of as gated end-to-end ones
# (every end-to-end metric must be measured, and non-zero, on every workload).
WORKLOAD_RESULTS = {
    "run_s": "s", "grid_cells_per_s": "1/s", "surface_cells_per_s": "1/s",
    "verify_states_per_s": "1/s", "locus_points_per_s": "1/s",
    "critical_points_per_s": "1/s", "critical_rel_err": "1",
    "affine_time_per_s": "1/s", "geodesics_per_s": "1/s", "fail_ratio": "1",
    "known_defects": "count",
}
CRITICAL_KINDS = ("critical", "library-critical", "numeric-critical")
RESULTS_OF = {
    "sweep": ("run_s", "grid_cells_per_s", "surface_cells_per_s", "verify_states_per_s"),
    "locus": ("run_s", "locus_points_per_s", "critical_points_per_s", "critical_rel_err"),
    "geodesic": ("run_s", "affine_time_per_s", "geodesics_per_s"),
}


def per_layer_units() -> dict[str, str]:
    return {**tracer.metric_units(), **WORKLOAD_RESULTS, "trace_overhead": "1"}


@dataclass
class Outcome:
    code: object = None  # exit code of a CLI job
    error: str | None = None  # exception raised by the job
    out: str = ""  # captured stdout of a CLI job
    value: object = None  # result of a library call

    def key(self) -> tuple:
        text = self.out if self.value is None else repr(self.value)
        return self.code, self.error, hashlib.blake2b(text.encode()).hexdigest()


def numeric_vdw(gas, tg):
    """NumericEnergy around a closed-form van der Waals energy callback."""
    a, b, r, cv = gas.a, gas.b, gas.r, gas.cv

    def energy(s, v):
        if v <= b:
            raise tg.DomainError(f"volume {v} is below the covolume {b}")
        return (v - b) ** (-r / cv) * math.exp(s / cv) - a / v

    return tg.NumericEnergy(energy)


def execute(job, tg) -> Outcome:
    if job.argv is None:
        try:
            if job.kind == "library-critical":
                return Outcome(code=0, value=tg.critical_point(
                    checks.library_model(job.gas, tg), v_window=job.window))
            model = numeric_vdw(job.gas, tg)
            if job.kind == "numeric-locus":
                value = tg.degeneracy_locus(model, job.window, job.size,
                                            method="scan")
            else:
                value = tg.critical_point(model, v_window=job.window)
        except Exception as exc:  # a failed operation, counted and reported
            return Outcome(error=f"{type(exc).__name__}: {exc}")
        return Outcome(code=0, value=value)
    out, err = io.StringIO(), io.StringIO()
    outcome = Outcome()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome.code = tg.cli.main(job.argv)
        except SystemExit as exc:
            outcome.code = exc.code
        except Exception as exc:  # a traceback a user would see
            outcome.error = f"{type(exc).__name__}: {exc}"
    outcome.out = out.getvalue()
    return outcome


@dataclass
class Measurement:
    times: list[list[float]]
    seen: list[dict]  # per job: outcome key -> [outcome, executions]
    passes: int = 0
    ref_times: list[list[float]] = field(default_factory=list)
    best_pass: tuple = (math.inf, [], Counter())  # (seconds, spans, counts)

    def job_seconds(self) -> list[float]:
        """Fastest time of each job over the passes.

        Interference on a shared host only ever adds time and comes in
        bursts, so the fastest pass of a job is its most repeatable time;
        the median moves with the share of slow bursts.
        """
        return [min(t) for t in self.times]

    def run_s(self) -> float:
        return sum(self.job_seconds())

    def ref_s(self) -> float:
        """``run_s`` of the frozen copy of the program on the same jobs."""
        return sum(min(t) for t in self.ref_times)

    def run_rel(self) -> float:
        """Program time over frozen-copy time on the same jobs.

        A job runs on both copies back to back in every pass, so each pair
        of times shares the state of the host; the median of a job's paired
        ratios drops the passes a burst hit on one side only.  Jobs are
        weighted by the frozen copy's fastest time.
        """
        num = den = 0.0
        for cur, ref in zip(self.times, self.ref_times):
            weight = min(ref)
            num += weight * statistics.median(c / r for c, r in zip(cur, ref))
            den += weight
        return num / den

    def first_outcomes(self) -> list[Outcome]:
        return [next(iter(seen.values()))[0] for seen in self.seen]


def measure(jobs, tg, seconds, min_passes, trace=None, frozen=None) -> Measurement:
    """Run passes over ``jobs`` until ``seconds`` have elapsed.

    With ``frozen``, each job also runs on the frozen copy of the program,
    right before it on even passes and right after it on odd ones, so both
    copies see the same state of the host.
    """
    m = Measurement([[] for _ in jobs], [{} for _ in jobs],
                    ref_times=[[] for _ in jobs])
    clock = time.perf_counter
    deadline = clock() + seconds
    while m.passes < min_passes or clock() < deadline:
        pass_s = 0.0
        for i, job in enumerate(jobs):
            if frozen is not None and m.passes % 2 == 0:
                m.ref_times[i].append(_timed(job, frozen))
            if trace is not None:
                trace.job = i
            start = clock()
            outcome = execute(job, tg)
            elapsed = clock() - start
            pass_s += elapsed
            m.times[i].append(elapsed)
            m.seen[i].setdefault(outcome.key(), [outcome, 0])[1] += 1
            if frozen is not None and m.passes % 2 == 1:
                m.ref_times[i].append(_timed(job, frozen))
        m.passes += 1
        if trace is not None:
            spans, counts = trace.reset()
            if pass_s < m.best_pass[0]:
                m.best_pass = (pass_s, spans, counts)
    return m


def _timed(job, package) -> float:
    start = time.perf_counter()
    execute(job, package)
    return time.perf_counter() - start


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: dict = field(default_factory=dict)  # job label -> problems


def evaluate(jobs, measurements, tg) -> Verdict:
    """Check every distinct output of every job.

    A job fails when it raises, exits with a code other than 0 or its
    output fails the check.  The run is incorrect when a job reports
    success with an output that fails its check, or when one job gives
    different outputs on different passes.
    """
    verdict = Verdict()
    for i, job in enumerate(jobs):
        seen = {}
        for m in measurements:
            for key, (outcome, count) in m.seen[i].items():
                seen.setdefault(key, [outcome, 0])[1] += count
        if len(seen) > 1:
            verdict.correct = False
            verdict.problems[job.label] = ["output differs between passes"]
        for outcome, count in seen.values():
            problems = checks.check(job, outcome, tg)
            verdict.attempted += count
            if problems:
                verdict.failed += count
                verdict.problems.setdefault(job.label, problems)
                if outcome.error is None and outcome.code == 0:
                    verdict.correct = False
    return verdict


def probe_defects(tg) -> tuple[int, list[str]]:
    """Run the known-defect jobs once, untimed; returns how many still fail
    their check, and one report line per job."""
    failing, lines = 0, []
    for job in workloads.defect_jobs():
        problems = checks.check(job, execute(job, tg), tg)
        failing += bool(problems)
        lines.append(f"    {'STILL FAILS' if problems else 'now passes'} "
                     f"{job.label}: {'; '.join(problems) or 'check passed'}")
    return failing, lines


def workload_results(jobs, m: Measurement, verdict: Verdict) -> dict:
    """Throughput of each kind of job, from the fastest time of each job.

    Work is counted for jobs that ran to an output, whether or not the
    output passed its check; a job that raised produced nothing.
    """
    work, busy = Counter(), Counter()
    rel_err = affine = 0.0
    for job, secs, outcome in zip(jobs, m.job_seconds(), m.first_outcomes()):
        busy[job.kind] += secs
        if outcome.error is not None or outcome.code not in (0, 2):
            continue
        work[job.kind] += job.size
        if job.kind in CRITICAL_KINDS:
            v_c, t_c = job.gas.critical()
            got = ((outcome.value.v_c, outcome.value.t_c) if outcome.value is not None
                   else checks.critical_values(outcome.out))
            rel_err = max(rel_err, abs(got[0] - v_c) / v_c,
                          abs(got[1] - t_c) / t_c)
        elif job.kind == "geodesic":
            affine += checks.geodesic_affine_time(job, outcome.out)

    def rate(total, *kinds):
        seconds = sum(busy[k] for k in kinds)
        return total / seconds if seconds else 0.0

    def work_rate(*kinds):
        return rate(sum(work[k] for k in kinds), *kinds)

    return {
        "grid_cells_per_s": work_rate("curvature-grid"),
        "surface_cells_per_s": work_rate("surface"),
        "verify_states_per_s": work_rate("verify"),
        "locus_points_per_s": work_rate("locus-scan", "numeric-locus"),
        "critical_points_per_s": work_rate(*CRITICAL_KINDS),
        "critical_rel_err": rel_err,
        "affine_time_per_s": rate(affine, "geodesic"),
        "geodesics_per_s": work_rate("geodesic"),
        "fail_ratio": verdict.failed / verdict.attempted,
    }


def setup_times(workload: str, seed: int, runs: int) -> list[float]:
    """Wall time of fresh interpreters that import the CLI, build the model
    and run one tiny job of the workload; imports deferred into the first
    call still count.  One extra untimed run first writes bytecode caches."""
    cmd = [sys.executable, "-m", "thermogeom.cli",
           *workloads.setup_argv(workload, seed)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times = []
    for i in range(runs + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120, check=False)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up job failed ({proc.returncode}): "
                               f"{proc.stderr.decode(errors='replace')[-500:]}")
        if i:
            times.append(elapsed)
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_spans(workload, seed, jobs, spans):
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"spans-{workload}-{seed}.json"
    t0 = spans[0][3] if spans else 0.0
    doc = {"jobs": [job.label for job in jobs],
           "fields": ["name", "parent", "job", "start_s", "end_s"],
           "spans": [[n, p, j, round(s - t0, 9), round(e - t0, 9)]
                     for n, p, j, s, e in spans]}
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return path


def run_workload(workload, seed, seconds, trace, tg, sizes=workloads.FULL,
                 setup_runs=SETUP_RUNS, min_passes=MIN_PASSES):
    """Measure one workload; returns (metrics, verdict, report lines)."""
    jobs = workloads.build(workload, seed, sizes)
    report = [f"workload {workload}, seed {seed}: {len(jobs)} jobs per pass, "
              f"one closed-loop client"]
    if not trace:
        setup = setup_times(workload, seed, setup_runs)
        plain = measure(jobs, tg, seconds, min_passes, frozen=load_frozen())
        rss = peak_rss_mb()
        verdict = evaluate(jobs, [plain], tg)
        metrics = {"setup_s": statistics.median(setup),
                   "run_rel": plain.run_rel(), "peak_rss_mb": rss}
        report.append(f"  setup_s runs: {', '.join(f'{t:.4f}' for t in setup)}")
        report.append(f"  run_s {plain.run_s():.4f} s, frozen copy {plain.ref_s():.4f} s "
                      f"(sums of per-job fastest times over {plain.passes} passes, "
                      f"ratio {plain.run_s() / plain.ref_s():.4f})")
    else:
        frozen = load_frozen()
        plain = measure(jobs, tg, seconds / 2, max(2, min_passes - 1),
                        frozen=frozen)
        spans_tracer = tracer.Tracer()
        spans_tracer.install()
        try:
            traced = measure(jobs, tg, seconds / 2, 1, trace=spans_tracer,
                             frozen=frozen)
        finally:
            spans_tracer.uninstall()
        verdict = evaluate(jobs, [plain, traced], tg)
        _, spans, counts = traced.best_pass
        metrics = tracer.layer_metrics(spans, counts, jobs)
        metrics["cli.bytes_out"] = sum(len(o.out.encode())
                                       for o in plain.first_outcomes())
        # both against the untraced frozen copy, so host speed cancels
        metrics["trace_overhead"] = traced.run_rel() / plain.run_rel()
        path = write_spans(workload, seed, jobs, spans)
        report.append(f"  {len(spans)} spans of the fastest traced pass "
                      f"written to {path.relative_to(ROOT)}")
        report.append(f"  traced passes: {traced.passes}")
    metrics.update(workload_results(jobs, plain, verdict))
    metrics["known_defects"], defect_lines = probe_defects(tg)
    metrics["run_s"] = plain.run_s()
    pass_s = [sum(t[k] for t in plain.times) for k in range(plain.passes)]
    report.append(f"  untimed checks: {verdict.attempted} operations attempted, "
                  f"{verdict.failed} failed, correct={verdict.correct}")
    for label, problems in verdict.problems.items():
        report.append(f"    FAILED {label}: {'; '.join(problems)}")
    report.append(f"  known-defect probe, untimed and not in attempted/failed: "
                  f"{metrics['known_defects']} of {len(defect_lines)} still fail")
    report.extend(defect_lines)
    report.append(f"  passes: {plain.passes}; pass seconds: min {min(pass_s):.4f}, "
                  f"median {statistics.median(pass_s):.4f}, max {max(pass_s):.4f}; "
                  f"sum of per-job medians "
                  f"{sum(statistics.median(t) for t in plain.times):.4f}")
    return metrics, verdict, report


def result_line(metrics, units, verdict) -> str:
    return json.dumps({
        "correct": verdict.correct, "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}})


def print_metrics(metrics, units):
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")


def load_thermogeom():
    """Import thermogeom from this checkout's src, never from elsewhere."""
    if not (SRC / "thermogeom" / "cli.py").is_file():
        raise ImportError(f"no thermogeom sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import thermogeom
    from thermogeom import cli  # noqa: F401  (bound as thermogeom.cli)

    if Path(thermogeom.__file__).resolve().parent != SRC / "thermogeom":
        raise ImportError(f"thermogeom imported from {thermogeom.__file__}, "
                          f"not from {SRC}")
    return thermogeom


def load_frozen():
    """The copy of thermogeom frozen at the commit that defined this
    benchmark; ``run_rel`` divides by its time on the same jobs."""
    import frozen_thermogeom
    from frozen_thermogeom import cli  # noqa: F401  (bound as .cli)

    return frozen_thermogeom


def declared_units() -> tuple[dict, dict] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def smoke(tg) -> int:
    """All workloads at a small size, one pass each, traced and untraced;
    fails unless every metric is emitted with the unit BENCHMARK.json
    declares for it."""
    declared = declared_units()
    expected = (END_TO_END, per_layer_units())
    if declared is not None and declared != expected:
        print("BENCHMARK.json does not declare the metrics the benchmark emits")
        return 1
    ok = True
    for workload in workloads.WORKLOADS:
        for trace, units in ((0, expected[0]), (1, expected[1])):
            start = time.perf_counter()
            metrics, verdict, report = run_workload(
                workload, 0, 0, trace, tg, sizes=workloads.SMOKE, setup_runs=1,
                min_passes=1)
            line = json.loads(result_line(metrics, units, verdict))
            emitted = {k: v["unit"] for k, v in line["metrics"].items()}
            finite = all(isinstance(v["value"], (int, float))
                         and math.isfinite(v["value"])
                         for v in line["metrics"].values())
            missing = sorted(set(units) - set(metrics))
            good = emitted == units and finite and not missing
            ok = ok and good
            print(f"{workload} trace={trace}: {len(emitted)} metrics, "
                  f"{verdict.failed}/{verdict.attempted} failed, "
                  f"{time.perf_counter() - start:.1f} s, "
                  f"{'ok' if good else 'MISSING ' + ', '.join(missing)}")
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"),
                        help="'all' runs the three workloads one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a small size and check "
                             "that every metric is emitted")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        tg = load_thermogeom()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(tg)
    units = per_layer_units() if args.trace else END_TO_END
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in chosen:
        metrics, verdict, report = run_workload(workload, args.seed,
                                                args.seconds, args.trace, tg)
        shown = dict(units)
        if not args.trace:
            shown.update((k, WORKLOAD_RESULTS[k])
                         for k in RESULTS_OF[workload]
                         + ("fail_ratio", "known_defects"))
        print("\n".join(report))
        print_metrics(metrics, shown)
        print(result_line(metrics, units, verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
