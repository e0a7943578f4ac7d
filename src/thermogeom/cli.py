"""Command-line front end.

Subcommands produce curvature grids, degeneracy-locus polylines,
critical-point reports, geodesic traces, Hessian-surface classifications,
and a verification suite, as CSV, JSON, or simple SVG.  Output is
deterministic: fixed float formatting, fixed row order, and a metadata
header carrying the library version and the effective configuration.

Exit codes: 0 success, 1 validation error or a request too large for
memory, 2 verification failure, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .critical_locus import (
    closed_form_critical_point,
    critical_point,
    degeneracy_locus,
)
from .curvature import (
    curvature_report,
    curvature_routes,
    ruppeiner_direct_curvature,
    ruppeiner_from_weinhold,
)
from .eos_models import (
    Chart,
    ConstantCv,
    GasParameters,
    IdealGas,
    StatePoint,
    VanDerWaals,
    make_model,
    parse_config_text,
)
from .errors import (
    DomainError,
    FrameSingular,
    NoCriticalPoint,
    NoRoot,
    SingularState,
    StepFailure,
    ThermogeomError,
    UnsupportedModel,
)
from .expressions import ExpressionError, as_smooth
from .geodesics import (
    GeodesicState,
    christoffel_elementary,
    christoffel_from_stack,
    integrate_geodesic,
    metric_speed,
)
from .hessian_surface import (
    hessian_point_from_metric,
    ideal_conic_residual,
    radial_pairing,
    vdw_surface_residual,
)
from .metric_core import (
    determinant_report,
    identity_residuals,
    signature_kind,
    weinhold_metric,
)

_DEFAULTS = {
    "model": "ideal",
    **asdict(GasParameters()),
    "chart": "sv",
    "smin": 1.0,
    "smax": 3.0,
    "vmin": 1.0,
    "vmax": 4.0,
    "n": 16,
    "format": "csv",
}


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; the contract wants 1.

    A negative number in exponent notation ("-1e-05") is a flag value, not
    an option name.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache  # parsing leaves no state in the parser
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thermogeom",
        description="Thermodynamic metric geometry toolkit")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")

    common = _Parser(add_help=False)
    grp = common.add_argument_group("model")
    grp.add_argument("--model", choices=["ideal", "vdw", "berthelot",
                                         "custom"])
    grp.add_argument("--a", type=float, help="attraction parameter")
    grp.add_argument("--b", type=float, help="covolume")
    grp.add_argument("--r-gas", dest="r_gas", type=float, help="gas constant")
    grp.add_argument("--cv", dest="cv0", type=float,
                     help="constant-volume heat capacity")
    grp.add_argument("--f1", help="expression in V for the exponential-part "
                                  "factor of a custom constant-cv model")
    grp.add_argument("--f2", help="expression in V for the additive energy "
                                  "term of a custom constant-cv model")
    grp.add_argument("--config", help="key = value file; flags win on "
                                      "conflict")
    grid = common.add_argument_group("grid")
    grid.add_argument("--chart", choices=["sv", "tv"])
    grid.add_argument("--smin", type=float, help="first-coordinate lower "
                                                 "bound (S, or T for --chart tv)")
    grid.add_argument("--smax", type=float)
    grid.add_argument("--vmin", type=float)
    grid.add_argument("--vmax", type=float)
    grid.add_argument("--n", type=int, help="points per axis")
    out = common.add_argument_group("output")
    out.add_argument("--out", help="output path (default: stdout)")
    out.add_argument("--format", choices=["csv", "json", "svg"])

    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    sub.add_parser("curvature-grid", parents=[common],
                   help="determinant, curvature routes, and signature on "
                        "a state grid")

    p_locus = sub.add_parser("locus", parents=[common],
                             help="trace the degeneracy locus over volume")
    p_locus.add_argument("--method", choices=["auto", "scan"], default="auto")

    p_crit = sub.add_parser("critical", parents=[common],
                            help="critical point with closed-form check")
    p_crit.add_argument("--method", choices=["auto", "numeric"],
                        default="auto")

    p_geo = sub.add_parser("geodesic", parents=[common],
                           help="integrate one geodesic")
    p_geo.add_argument("--start-s", type=float, required=True)
    p_geo.add_argument("--start-v", type=float, required=True)
    p_geo.add_argument("--start-sdot", type=float, default=0.0)
    p_geo.add_argument("--start-vdot", type=float, default=0.0)
    p_geo.add_argument("--t-end", type=float, default=10.0)
    p_geo.add_argument("--tol", type=float, default=1e-10)
    p_geo.add_argument("--samples", type=int, default=101,
                       help="dense-output rows")

    sub.add_parser("surface", parents=[common],
                   help="radial classification of the Hessian image "
                        "surface on a grid")

    p_ver = sub.add_parser("verify", parents=[common],
                           help="identity and route-agreement suite")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--states", type=int, default=25)
    return parser


# ---------------------------------------------------------------------------
# configuration and model assembly

def _effective_config(args) -> dict:
    eff = dict(_DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            eff.update(parse_config_text(fh.read()))
    for key in ("model", "a", "b", "r_gas", "cv0", "chart",
                "smin", "smax", "vmin", "vmax", "n", "format", "f1", "f2"):
        value = getattr(args, key, None)
        if value is not None:
            eff[key] = value
    eff["command"] = args.command
    return eff


def _build_model(eff: dict):
    params = GasParameters(a=eff["a"], b=eff["b"], r_gas=eff["r_gas"],
                           cv0=eff["cv0"], u0=eff["u0"], s0=eff["s0"])
    if eff["model"] == "custom":
        if not eff.get("f1"):
            raise DomainError("--model custom requires --f1")
        f2 = as_smooth(eff["f2"]) if eff.get("f2") else None
        return ConstantCv(as_smooth(eff["f1"]), f2, cv=eff["cv0"],
                          u0=eff["u0"])
    return make_model(eff["model"], params)


def _grid_axes(eff: dict, model) -> tuple[list[float], list[float]]:
    n = int(eff["n"])
    if n < 2:
        raise DomainError("grid needs at least 2 points per axis")
    smin, smax = float(eff["smin"]), float(eff["smax"])
    vmin, vmax = float(eff["vmin"]), float(eff["vmax"])
    if not (smax > smin and vmax > vmin):
        raise DomainError("ranges must satisfy smin < smax and vmin < vmax")
    b = model.covolume
    if vmin <= b:
        clipped = b + 0.05 * (vmax - b)
        if clipped >= vmax:
            raise DomainError(f"volume range {vmin}..{vmax} lies outside "
                              f"the admissible domain V > {b}")
        print(f"warning: clipping vmin from {vmin} to {clipped} "
              f"(covolume {b})", file=sys.stderr)
        vmin = clipped
    if eff["chart"] == "tv" and smin <= 0.0:
        clipped = 0.05 * smax
        if clipped >= smax:
            raise DomainError("temperature range must be positive")
        print(f"warning: clipping temperature minimum from {smin} to "
              f"{clipped}", file=sys.stderr)
        smin = clipped
    # an overflowing span gives non-finite values, which StatePoint rejects
    with np.errstate(all="ignore"):
        x1 = [float(x) for x in np.linspace(smin, smax, n)]
        x2 = [float(x) for x in np.linspace(vmin, vmax, n)]
    return x1, x2


# What the scalar route can raise at a state: a domain or stack check, a
# libm call, a float division by zero.  Over a grid, numpy's division and
# invalid-operation flags stand in for the last.
_CELL_ERRORS = (ThermogeomError, ArithmeticError, ValueError)


def _grid(eff: dict, model, cell_values):
    """Axes and per-cell results of a grid command.

    ``cell_values(stack)`` gives the printed values of a stack's cells.
    The grid is evaluated in one array pass.  If anything in it raises,
    the grid is evaluated again on the scalar route, one state at a time:
    there a SingularState or FrameSingular ends only its own cell, and any
    other error ends the run, the first one in row-major order.  Each cell
    comes back row-major as ((x1, x2), error, values), with error None for
    a cell that printed and values None for one that ended.
    """
    x1s, x2s = _grid_axes(eff, model)
    chart = (Chart.TEMPERATURE_VOLUME if eff["chart"] == "tv"
             else Chart.ENTROPY_VOLUME)
    states = [(x1, x2) for x1 in x1s for x2 in x2s]
    try:
        # overflow and underflow are silent, as for floats
        with np.errstate(divide="raise", invalid="raise", over="ignore",
                         under="ignore"):
            columns = [np.broadcast_to(x, len(states)).tolist() for x in
                       cell_values(model.grid_stack(chart, x1s, x2s))]
        return x1s, x2s, [(state, None, values)
                          for state, values in zip(states, zip(*columns))]
    except _CELL_ERRORS:
        pass
    cells = []
    # numpy calls on the scalar route stay as silent as its float arithmetic
    with np.errstate(all="ignore"):
        for x1, x2 in states:
            try:
                cells.append(((x1, x2), None, cell_values(
                    model.derivative_stack(StatePoint(chart, x1, x2)))))
            except (SingularState, FrameSingular) as exc:
                cells.append(((x1, x2), exc, None))
    return x1s, x2s, cells


# ---------------------------------------------------------------------------
# output plumbing

def _meta(eff: dict) -> dict:
    keys = ("command", "model", "a", "b", "r_gas", "cv0", "u0", "s0",
            "chart", "smin", "smax", "vmin", "vmax", "n", "format",
            "f1", "f2", "method", "seed")
    out = {"version": __version__}
    for key in keys:
        if key in eff:
            out[key] = eff[key]
    return out


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_table(args, meta: dict, columns: list[str], rows: list[list],
                svg, notes: list[str] | None = None) -> None:
    """Render a table in the chosen format and write it out.

    ``svg`` draws the picture; it is called only when svg is chosen.
    """
    if meta["format"] == "svg":
        text = svg()
    elif meta["format"] == "json":
        text = _render_json(meta, columns, rows, notes)
    else:
        text = _render_csv(meta, columns, rows, notes)
    _emit(text, args.out)


def _render_csv(meta: dict, columns: list[str], rows: list[list],
                notes: list[str] | None = None) -> str:
    lines = [f"# thermogeom {meta['version']}"]
    for key in sorted(k for k in meta if k != "version"):
        lines.append(f"# {key} = {_fmt(meta[key])}")
    for note in notes or []:
        lines.append(f"# note: {note}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join("" if cell is None else _fmt(cell)
                              for cell in row))
    return "\n".join(lines) + "\n"


def _render_json(meta: dict, columns: list[str], rows: list[list],
                 notes: list[str] | None = None) -> str:
    doc = {"meta": meta, "columns": columns, "rows": rows}
    if notes:
        doc["notes"] = notes
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _svg_header(width: int, height: int) -> list[str]:
    return [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>']


def _render_svg_polyline(meta: dict, points: list[tuple[float, float]],
                         x_label: str, y_label: str) -> str:
    width, height, margin = 640, 480, 60
    body = _svg_header(width, height)
    body.append(f"<!-- thermogeom {meta['version']} "
                f"command={meta.get('command', '')} -->")
    if points:
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0

        def sx(x):
            return margin + (x - x_lo) / x_span * (width - 2 * margin)

        def sy(y):
            return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
        body.append(f'<polyline points="{pts}" fill="none" '
                    f'stroke="#1f6fb4" stroke-width="1.5"/>')
        body.append(f'<text x="{width // 2}" y="{height - 12}" '
                    f'font-size="12" text-anchor="middle">{x_label} '
                    f'[{_fmt(x_lo)}, {_fmt(x_hi)}]</text>')
        body.append(f'<text x="14" y="{height // 2}" font-size="12" '
                    f'transform="rotate(-90 14 {height // 2})" '
                    f'text-anchor="middle">{y_label} '
                    f'[{_fmt(y_lo)}, {_fmt(y_hi)}]</text>')
    body.append(f'<rect x="{margin}" y="{margin}" '
                f'width="{width - 2 * margin}" height="{height - 2 * margin}" '
                f'fill="none" stroke="#333333"/>')
    body.append("</svg>")
    return "\n".join(body) + "\n"


def _render_svg_heatmap(meta: dict, x1: list[float], x2: list[float],
                        cells: list[str]) -> str:
    width, height, margin = 640, 480, 60
    n1, n2 = len(x1), len(x2)
    cw = (width - 2 * margin) / n2
    ch = (height - 2 * margin) / n1
    body = _svg_header(width, height)
    body.append(f"<!-- thermogeom {meta['version']} "
                f"command={meta.get('command', '')} -->")
    for i in range(n1):
        for j in range(n2):
            color = cells[i * n2 + j]
            x = margin + j * cw
            y = height - margin - (i + 1) * ch
            body.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw:.2f}" '
                        f'height="{ch:.2f}" fill="{color}"/>')
    body.append(f'<rect x="{margin}" y="{margin}" '
                f'width="{width - 2 * margin}" height="{height - 2 * margin}" '
                f'fill="none" stroke="#333333"/>')
    body.append("</svg>")
    return "\n".join(body) + "\n"


def _cell_color(value, singular: bool) -> str:
    if singular:
        return "#999999"
    if value is None:
        return "#f7f7f7"
    if value > 0.0:
        return "#b2182b"
    if value < 0.0:
        return "#2166ac"
    return "#f7f7f7"


# ---------------------------------------------------------------------------
# subcommands

def cmd_curvature_grid(args, eff, model) -> int:
    def cell_values(st):
        metric, r_tensorial, r_closed2d, r_elementary, r_model = (
            curvature_routes(model, st))
        return (metric.det, r_tensorial, r_closed2d, r_elementary, r_model,
                signature_kind(metric, st.cv))

    x1s, x2s, cells = _grid(eff, model, cell_values)
    c1 = "t" if eff["chart"] == "tv" else "s"
    columns = [c1, "v", "det", "r_tensorial", "r_closed2d", "r_elementary",
               "r_model_closed", "signature"]
    rows = []
    colors = []
    for (x1, x2), exc, values in cells:
        if exc is None:
            det, r_tensorial, r_closed2d, r_elementary, r_model, kind = values
            rows.append([x1, x2, det, r_tensorial, r_closed2d, r_elementary,
                         r_model, kind.value])
            colors.append(_cell_color(r_closed2d, False))
        else:
            rows.append([x1, x2, 0.0 if exc.det is None else exc.det,
                         "singular", "singular", "singular", "singular",
                         "degenerate"])
            colors.append(_cell_color(None, True))
    meta = _meta(eff)
    _emit_table(args, meta, columns, rows,
                lambda: _render_svg_heatmap(meta, x1s, x2s, colors))
    return 0


def cmd_locus(args, eff, model) -> int:
    eff["method"] = args.method
    columns = ["v", "s", "t", "p"]
    meta = _meta(eff)
    try:
        line = degeneracy_locus(model, (eff["vmin"], eff["vmax"]),
                                int(eff["n"]), method=args.method)
    except NoRoot as exc:
        print("empty locus", file=sys.stderr)
        samples, notes = (), [f"empty locus: {exc}"]
    else:
        samples, notes = line.samples, [f"branch: {line.branch}", line.note]
    rows = [[smp.v, smp.s, smp.t, smp.p] for smp in samples]
    _emit_table(args, meta, columns, rows,
                lambda: _render_svg_polyline(
                    meta, [(smp.v, smp.p) for smp in samples], "v", "p"),
                notes)
    return 0


def cmd_critical(args, eff, model) -> int:
    eff["method"] = args.method
    if eff["format"] == "svg":
        raise DomainError("critical does not support svg output")
    try:
        cp = critical_point(model, method=args.method)
        exact = closed_form_critical_point(model)
    except NoCriticalPoint as exc:
        print(f"no critical point: {exc}")
        return 0
    closed = None if exact is None else (exact.v_c, exact.p_c, exact.t_c)
    lines = [f"V_c = {_fmt(cp.v_c)}",
             f"p_c = {_fmt(cp.p_c)}",
             f"T_c = {_fmt(cp.t_c)}"]
    ok = True
    if closed is not None:
        for name, got, want in (("V_c", cp.v_c, closed[0]),
                                ("p_c", cp.p_c, closed[1]),
                                ("T_c", cp.t_c, closed[2])):
            rel = abs(got - want) / max(1.0, abs(want))
            match = rel <= 1e-8
            ok = ok and match
            lines.append(f"closed-form {name}: {_fmt(want)} "
                         f"({'match' if match else 'MISMATCH'}, "
                         f"rel {rel:.3e})")
    if cp.negative_branch is not None:
        lines.append(f"negative branch: p_c = {_fmt(cp.negative_branch[0])}, "
                     f"T_c = {_fmt(cp.negative_branch[1])} (discarded)")
    print("\n".join(lines))
    if args.out:
        meta = _meta(eff)
        doc = {"meta": meta,
               "v_c": cp.v_c, "p_c": cp.p_c, "t_c": cp.t_c,
               "negative_branch": cp.negative_branch,
               "closed_form": closed}
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0 if ok else 2


def cmd_geodesic(args, eff, model) -> int:
    if args.samples < 2:
        raise DomainError("need at least 2 samples")
    init = GeodesicState(s=args.start_s, v=args.start_v,
                         s_dot=args.start_sdot, v_dot=args.start_vdot)
    traj = integrate_geodesic(model, init, args.t_end, tol=args.tol)
    columns = ["t", "s", "v", "s_dot", "v_dot", "speed"]
    rows = []
    pts = []
    ts = np.linspace(traj.times[0], traj.times[-1], args.samples)
    for t, (s, v, sd, vd) in zip(ts.tolist(), traj.interpolant(ts).T.tolist()):
        try:
            stack = model.derivative_stack(
                StatePoint.entropy_volume(s, v), check_singular=False)
            speed = metric_speed(stack, sd, vd)
        except ThermogeomError:
            speed = None
        rows.append([t, s, v, sd, vd, speed])
        pts.append((s, v))
    meta = _meta(eff)
    meta["termination"] = traj.termination.value
    _emit_table(args, meta, columns, rows,
                lambda: _render_svg_polyline(meta, pts, "s", "v"),
                [f"termination: {traj.termination.value}"])
    return 0


def cmd_surface(args, eff, model) -> int:
    def cell_values(st):
        metric = weinhold_metric(model, st)
        rp = radial_pairing(hessian_point_from_metric(metric))
        extra = None
        if isinstance(model, VanDerWaals):
            extra = vdw_surface_residual(metric, model.params)[1]
        elif isinstance(model, IdealGas):
            extra = ideal_conic_residual(metric, st.cp, model.params.r_gas)
        return rp.pairing, rp.kind, metric.det, extra

    x1s, x2s, cells = _grid(eff, model, cell_values)
    c1 = "t" if eff["chart"] == "tv" else "s"
    columns = [c1, "v", "pairing", "radial_class", "cone_residual",
               "model_surface_residual"]
    rows = []
    colors = []
    for (x1, x2), exc, values in cells:
        if exc is None:
            pairing, kind, det, extra = values
            rows.append([x1, x2, pairing, kind.value, det, extra])
            colors.append(_cell_color(-pairing, False))
        else:
            marker = ("degenerate" if isinstance(exc, SingularState)
                      else "frame_singular")
            rows.append([x1, x2, None, marker, None, None])
            colors.append(_cell_color(None, True))
    meta = _meta(eff)
    _emit_table(args, meta, columns, rows,
                lambda: _render_svg_heatmap(meta, x1s, x2s, colors))
    return 0


def _verify_checks(model, eff, rng, n_states):
    b = model.covolume
    v_lo = max(eff["vmin"], b + 0.1 * max(1.0, b))
    v_hi = max(eff["vmax"], v_lo + 1.0)
    s_lo, s_hi = eff["smin"], eff["smax"]

    # the admissibility probe's stacks feed every check of their state
    stacks = []
    attempts = 0
    while len(stacks) < n_states and attempts < 100 * n_states:
        attempts += 1
        s = float(rng.uniform(s_lo, s_hi))
        v = float(rng.uniform(v_lo, v_hi))
        try:
            stacks.append(model.derivative_stack(
                StatePoint.entropy_volume(s, v)))
        except ThermogeomError:
            continue
    if not stacks:
        raise SingularState("no admissible states found for verification")

    route = ident1 = ident2 = ident3 = cpcv = 0.0
    detres = chris = conf = flat = 0.0
    for stack in stacks:
        report = curvature_report(model, stack)
        route = max(route, report.max_pairwise_residual)
        flat = max(flat, abs(report.r_closed2d))

        res = identity_residuals(model, stack)
        ident1 = max(ident1, abs(res.id1))
        ident2 = max(ident2, abs(res.id2))
        if res.id3 is not None:
            ident3 = max(ident3, abs(res.id3))
        cpcv = max(cpcv, abs(res.cp_cv))

        rep = determinant_report(model, stack)
        detres = max(detres, abs(rep.residual_kvc), abs(rep.residual_dpdv))

        ce = christoffel_elementary(stack, stack, stack.v)
        ck = christoffel_from_stack(stack)
        for got, want in ((ce.g111, ck.g111), (ce.g112, ck.g112),
                          (ce.g122, ck.g122), (ce.g211, ck.g211),
                          (ce.g212, ck.g212), (ce.g222, ck.g222)):
            chris = max(chris, abs(got - want) / max(1.0, abs(want)))

        direct = ruppeiner_direct_curvature(model, stack)
        conf = max(conf, abs(
            direct - ruppeiner_from_weinhold(model, stack,
                                             scheme="analytic")))

    checks = [
        ("curvature-route-agreement", route, 1e-8),
        ("coefficient-identity-1", ident1, 1e-10),
        ("coefficient-identity-2", ident2, 1e-10),
        ("cp-cv-relation", cpcv, 1e-10),
        ("determinant-identities", detres, 1e-10),
        ("christoffel-route-agreement", chris, 1e-9),
        ("entropy-representation-conformal", conf, 1e-8),
    ]
    if isinstance(model, ConstantCv):
        checks.insert(4, ("coefficient-identity-3", ident3, 1e-10))
    if isinstance(model, IdealGas):
        checks.append(("flatness", flat, 1e-10))
    return checks


def cmd_verify(args, eff, model) -> int:
    if args.states < 1:
        raise DomainError(f"need at least 1 state, got {args.states}")
    eff["seed"] = args.seed
    if eff["format"] == "svg":
        raise DomainError("verify does not support svg output")
    rng = np.random.default_rng(args.seed)
    checks = _verify_checks(model, eff, rng, args.states)
    failed = False
    lines = []
    for name, residual, tol in checks:
        ok = residual <= tol
        failed = failed or not ok
        lines.append(f"{name}: residual {residual:.3e} (tol {tol:.1e}) "
                     f"{'PASS' if ok else 'FAIL'}")
    print("\n".join(lines))
    if args.out:
        meta = _meta(eff)
        doc = {"meta": meta,
               "checks": [{"name": n, "residual": r, "tol": t,
                           "pass": r <= t} for n, r, t in checks]}
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 2 if failed else 0


_DISPATCH = {
    "curvature-grid": cmd_curvature_grid,
    "locus": cmd_locus,
    "critical": cmd_critical,
    "geodesic": cmd_geodesic,
    "surface": cmd_surface,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        eff = _effective_config(args)
        model = _build_model(eff)
        return _DISPATCH[args.command](args, eff, model)
    except (DomainError, UnsupportedModel, ExpressionError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SingularState, NoRoot, NoCriticalPoint, StepFailure,
            FrameSingular, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
