"""Correctness checks on captured job outputs, run after timing ends.

``check(job, outcome, tg)`` returns a list of problems; an empty list
means the output passed.  ``tg`` is the imported ``thermogeom`` package,
used to rebuild the model for the locus determinant check.
"""

from __future__ import annotations

import json
import math
import re

# Same tolerances the program applies to itself: curvature-route agreement
# is verify's 1e-8, the locus determinant tolerance is
# critical_locus.LOCUS_DET_TOL and a closed-form critical match is 1e-8.
ROUTE_TOL = 1e-8
LOCUS_DET_TOL = 1e-9
CRITICAL_TOL = 1e-8
# Metric speed is conserved along a geodesic; at --tol 1e-9 its drift over
# t_end = 10 stays near 1e-5, and a wrong connection drifts by O(1).
SPEED_DRIFT_TOL = 1e-3
# NumericEnergy differentiates by finite differences, which limits its
# stacks to about 1e-8 and its curvature to about 4e-6 relative error.
# The critical volume sits at a flat maximum of the locus temperature, so
# its error is about the square root of the temperature error.
NUMERIC_TOL = 1e-5
NUMERIC_VC_TOL = math.sqrt(NUMERIC_TOL)

SIGNATURES = {"positive_definite", "negative_definite", "indefinite", "degenerate"}
RADIAL = {"radially_convex", "radially_concave", "tangent", "degenerate",
          "frame_singular"}
# Berthelot has no coefficient-identity-3 line; the ideal gas adds flatness
VERIFY_LINES = {"ideal": 9, "vdw": 8, "custom": 8, "berthelot": 7}
VERIFY_LINE = re.compile(r"^([a-z0-9-]+): residual (\S+) \(tol (\S+)\) (PASS|FAIL)$")


def _table(out: str, fmt: str) -> tuple[list[str], list[list]]:
    """Columns and rows of a csv or json table as the CLI prints them."""
    if fmt == "json":
        doc = json.loads(out)
        return doc["columns"], doc["rows"]
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    columns = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        row = []
        for cell in ln.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell or None)
        rows.append(row)
    return columns, rows


def _svg_cells(out: str) -> int:
    # background and frame are the two rects that are not cells
    return out.count("<rect ") - 2


def _relative(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def check_grid(job, out: str) -> list[str]:
    if job.fmt == "svg":
        cells = _svg_cells(out)
        return [] if cells == job.size else [f"{cells} svg cells, want {job.size}"]
    columns, rows = _table(out, job.fmt)
    problems = []
    if len(rows) != job.size:
        problems.append(f"{len(rows)} rows, want {job.size}")
    routes = [columns.index(c) for c in columns if c.startswith("r_")]
    sig = columns.index("signature")
    worst = 0.0
    for row in rows:
        if row[sig] not in SIGNATURES:
            problems.append(f"unknown signature {row[sig]!r}")
            break
        if row[sig] == "degenerate":
            continue
        values = [row[i] for i in routes if row[i] is not None]
        scale = max(1.0, max(abs(x) for x in values))
        worst = max(worst, (max(values) - min(values)) / scale)
    if not worst <= ROUTE_TOL:
        problems.append(f"curvature routes disagree by {worst:.3e}")
    return problems


def check_surface(job, out: str) -> list[str]:
    if job.fmt == "svg":
        cells = _svg_cells(out)
        return [] if cells == job.size else [f"{cells} svg cells, want {job.size}"]
    columns, rows = _table(out, job.fmt)
    problems = []
    if len(rows) != job.size:
        problems.append(f"{len(rows)} rows, want {job.size}")
    kind = columns.index("radial_class")
    if any(row[kind] not in RADIAL for row in rows):
        problems.append("unknown radial class")
    return problems


def check_verify(job, out: str) -> list[str]:
    lines = out.splitlines()
    want = VERIFY_LINES[job.gas.model]
    parsed = [VERIFY_LINE.match(ln) for ln in lines]
    if len(lines) != want or not all(parsed):
        return [f"{len(lines)} verify lines, want {want} PASS/FAIL lines"]
    return [f"{m.group(1)} FAIL (residual {m.group(2)}, tol {m.group(3)})"
            for m in parsed if m.group(4) == "FAIL"]


def _det_residual(model, s: float, v: float, tg) -> float:
    st = model.derivative_stack(tg.StatePoint.entropy_volume(s, v),
                                check_singular=False)
    scale = max(abs(st.e11 * st.e22), st.e12 * st.e12, 1.0)
    return abs(st.det) / scale


def library_model(gas, tg):
    if gas.model == "custom":
        return tg.ConstantCv(*gas.custom_functions(), cv=gas.cv)
    return tg.make_model(gas.model, tg.GasParameters(
        a=gas.a, b=gas.b, r_gas=gas.r, cv0=gas.cv))


def _ascending(vols) -> bool:
    return all(x < y for x, y in zip(vols, vols[1:]))


def check_locus(job, out: str, tg) -> list[str]:
    columns, rows = _table(out, job.fmt)
    problems = []
    if len(rows) != job.size:
        problems.append(f"{len(rows)} locus points, want {job.size}")
    iv, i_s = columns.index("v"), columns.index("s")
    if not _ascending([row[iv] for row in rows]):
        problems.append("volumes are not ascending")
    model = library_model(job.gas, tg)
    worst = max((_det_residual(model, row[i_s], row[iv], tg) for row in rows),
                default=0.0)
    if not worst <= LOCUS_DET_TOL:
        problems.append(f"relative determinant residual {worst:.3e} > "
                        f"{LOCUS_DET_TOL:.0e}")
    return problems


def critical_values(out: str) -> tuple[float, float]:
    values = dict(ln.split(" = ") for ln in out.splitlines()[:3])
    return float(values["V_c"]), float(values["T_c"])


def check_critical(job, out: str) -> list[str]:
    v_c, t_c = job.gas.critical()
    got_v, got_t = critical_values(out)
    problems = [f"{name} {got!r} vs closed form {want!r}"
                for name, got, want in (("V_c", got_v, v_c), ("T_c", got_t, t_c))
                if not _relative(got, want) <= CRITICAL_TOL]
    if job.gas.model != "custom":
        matches = [ln for ln in out.splitlines() if ln.startswith("closed-form ")]
        if len(matches) != 3 or any("(match," not in ln for ln in matches):
            problems.append("closed-form match lines missing or MISMATCH")
    return problems


def check_library_critical(job, cp) -> list[str]:
    v_c, t_c = job.gas.critical()
    return [f"{name} {got!r} vs closed form {want!r}"
            for name, got, want in (("V_c", cp.v_c, v_c), ("T_c", cp.t_c, t_c))
            if not _relative(got, want) <= CRITICAL_TOL]


def check_geodesic(job, out: str) -> list[str]:
    columns, rows = _table(out, job.fmt)
    if len(rows) < 2:
        return [f"{len(rows)} geodesic samples"]
    ispeed = columns.index("speed")
    speeds = [row[ispeed] for row in rows]
    if any(x is None or not math.isfinite(x) for x in speeds):
        return ["metric speed missing or not finite"]
    drift = max(abs(x - speeds[0]) for x in speeds) / abs(speeds[0])
    if not drift <= SPEED_DRIFT_TOL:
        return [f"metric speed drifts by {drift:.3e}"]
    return []


def geodesic_affine_time(job, out: str) -> float:
    columns, rows = _table(out, job.fmt)
    it = columns.index("t")
    return rows[-1][it] - rows[0][it]


def check_numeric_locus(job, line) -> list[str]:
    samples = line.samples
    problems = []
    if len(samples) != job.size:
        problems.append(f"{len(samples)} locus points, want {job.size}")
    if not _ascending([smp.v for smp in samples]):
        problems.append("volumes are not ascending")
    gas = job.gas
    worst = 0.0
    for smp in samples:
        worst = max(worst,
                    abs(smp.s - gas.locus_entropy(smp.v)) / max(1.0, abs(smp.s)),
                    _relative(smp.t, gas.locus_temperature(smp.v)))
    if not worst <= NUMERIC_TOL:
        problems.append(f"locus off the closed form by {worst:.3e}")
    return problems


def check_numeric_critical(job, cp) -> list[str]:
    v_c, t_c = job.gas.critical()
    problems = []
    if not _relative(cp.v_c, v_c) <= NUMERIC_VC_TOL:
        problems.append(f"V_c {cp.v_c!r} vs closed form {v_c!r}")
    if not _relative(cp.t_c, t_c) <= NUMERIC_TOL:
        problems.append(f"T_c {cp.t_c!r} vs closed form {t_c!r}")
    return problems


def check(job, outcome, tg) -> list[str]:
    """Problems with one outcome: an exception, an exit code other than 0,
    or an output that fails its command's check."""
    if outcome.error is not None:
        return [outcome.error]
    if outcome.code != 0:
        problems = [f"exit code {outcome.code}"]
        if job.kind == "verify":
            problems += check_verify(job, outcome.out)
        return problems
    try:
        if job.kind == "curvature-grid":
            return check_grid(job, outcome.out)
        if job.kind == "surface":
            return check_surface(job, outcome.out)
        if job.kind == "verify":
            return check_verify(job, outcome.out)
        if job.kind in ("locus-scan", "locus-auto"):
            return check_locus(job, outcome.out, tg)
        if job.kind == "critical":
            return check_critical(job, outcome.out)
        if job.kind == "geodesic":
            return check_geodesic(job, outcome.out)
        if job.kind == "numeric-locus":
            return check_numeric_locus(job, outcome.value)
        if job.kind == "library-critical":
            return check_library_critical(job, outcome.value)
        if job.kind == "numeric-critical":
            return check_numeric_critical(job, outcome.value)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    raise ValueError(f"no check for job kind {job.kind!r}")
