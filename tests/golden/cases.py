"""Golden command-line cases and the rule that compares them.

Each case is a name and an argv for ``thermogeom.cli.main``.  Its recording,
``<name>.out`` in this directory, holds ``exit <code>`` on the first line and
the command's stdout after it.  A fresh run matches its recording when all
text outside numbers is equal and every number agrees to a relative
``REL_TOL``.  ``test_golden.py`` checks every case; ``regen.py`` rewrites the
recordings.
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

from thermogeom.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent
REL_TOL = 1e-14

_GAS = ["--a", "1.5", "--b", "0.2", "--r-gas", "2.0", "--cv", "2.5"]
IDEAL = ["--model", "ideal", "--r-gas", "2.0", "--cv", "2.5"]
VDW = ["--model", "vdw", *_GAS]
BERTHELOT = ["--model", "berthelot", *_GAS]
# the van der Waals gas above, written as a custom constant-cv model
CUSTOM = ["--model", "custom", "--cv", "2.5",
          "--f1", "(V-0.2)^-0.8", "--f2", "0.6/V"]

# windows that straddle the degeneracy locus of the gases above
VDW_SV = ["--smin", "0.5", "--smax", "2.5", "--vmin", "0.4", "--vmax", "1.3"]
VDW_TV = ["--chart", "tv", "--smin", "0.8", "--smax", "1.4",
          "--vmin", "0.4", "--vmax", "1.3"]
BERTHELOT_SV = ["--smin", "-4.5", "--smax", "-1.0",
                "--vmin", "0.4", "--vmax", "1.3"]
BERTHELOT_TV = ["--chart", "tv", "--smin", "0.8", "--smax", "1.3",
                "--vmin", "0.4", "--vmax", "1.3"]
IDEAL_TV = ["--chart", "tv", "--smin", "0.5", "--smax", "2.0"]

GEODESIC = ["--start-sdot", "0.05", "--start-vdot", "0.1",
            "--t-end", "2.0", "--samples", "11"]
VDW_START = ["--start-s", "2.5", "--start-v", "1.4"]


def _grid(command, prefix):
    return {
        f"{prefix}-ideal-sv-csv": [command, *IDEAL, "--n", "4"],
        f"{prefix}-ideal-tv-json": [command, *IDEAL, *IDEAL_TV, "--n", "3",
                                    "--format", "json"],
        f"{prefix}-vdw-sv-csv": [command, *VDW, *VDW_SV, "--n", "5"],
        f"{prefix}-vdw-sv-json": [command, *VDW, *VDW_SV, "--n", "3",
                                  "--format", "json"],
        f"{prefix}-vdw-sv-svg": [command, *VDW, *VDW_SV, "--n", "3",
                                 "--format", "svg"],
        f"{prefix}-vdw-tv-csv": [command, *VDW, *VDW_TV, "--n", "4"],
        f"{prefix}-berthelot-sv-csv": [command, *BERTHELOT, *BERTHELOT_SV,
                                       "--n", "4"],
        f"{prefix}-berthelot-tv-csv": [command, *BERTHELOT, *BERTHELOT_TV,
                                       "--n", "4"],
        f"{prefix}-custom-sv-csv": [command, *CUSTOM, *VDW_SV, "--n", "4"],
    }


CASES = {
    **_grid("curvature-grid", "grid"),
    # vmin below the covolume is clipped, with a warning on stderr
    "grid-vdw-vmin-clip-csv": ["curvature-grid", *VDW, "--smin", "1.5",
                               "--smax", "2.5", "--vmin", "0.1",
                               "--vmax", "1.3", "--n", "3"],
    **_grid("surface", "surface"),
    "locus-vdw-csv": ["locus", *VDW, "--vmin", "0.3", "--vmax", "3.0",
                      "--n", "6"],
    "locus-vdw-json": ["locus", *VDW, "--vmin", "0.3", "--vmax", "3.0",
                       "--n", "4", "--format", "json"],
    "locus-vdw-svg": ["locus", *VDW, "--vmin", "0.3", "--vmax", "3.0",
                      "--n", "6", "--format", "svg"],
    "locus-vdw-scan-csv": ["locus", *VDW, "--method", "scan",
                           "--vmin", "0.3", "--vmax", "3.0", "--n", "3"],
    "locus-berthelot-csv": ["locus", *BERTHELOT, "--vmin", "0.3",
                            "--vmax", "3.0", "--n", "6"],
    "locus-custom-csv": ["locus", *CUSTOM, "--vmin", "0.3", "--vmax", "3.0",
                         "--n", "6"],
    # the ideal gas has no degeneracy locus: an empty table with a note
    "locus-ideal-empty-csv": ["locus", *IDEAL],
    "locus-ideal-empty-json": ["locus", *IDEAL, "--format", "json"],
    "locus-ideal-empty-svg": ["locus", *IDEAL, "--format", "svg"],
    "critical-vdw-auto": ["critical", *VDW],
    "critical-vdw-numeric": ["critical", *VDW, "--method", "numeric"],
    "critical-berthelot-auto": ["critical", *BERTHELOT],
    "critical-berthelot-numeric": ["critical", *BERTHELOT,
                                   "--method", "numeric"],
    "critical-ideal": ["critical", *IDEAL],
    "geodesic-vdw-csv": ["geodesic", *VDW, *VDW_START, *GEODESIC],
    "geodesic-vdw-json": ["geodesic", *VDW, *VDW_START, *GEODESIC,
                          "--format", "json"],
    "geodesic-vdw-svg": ["geodesic", *VDW, *VDW_START, *GEODESIC,
                         "--format", "svg"],
    "geodesic-ideal-csv": ["geodesic", *IDEAL, "--start-s", "1.5",
                           "--start-v", "2.0", *GEODESIC],
    "geodesic-berthelot-csv": ["geodesic", *BERTHELOT, "--start-s", "-1.0",
                               "--start-v", "1.4", *GEODESIC],
    "geodesic-custom-csv": ["geodesic", *CUSTOM, *VDW_START, *GEODESIC],
    "verify-ideal": ["verify", *IDEAL, "--states", "10"],
    "verify-vdw": ["verify", *VDW, "--states", "10"],
    "verify-berthelot": ["verify", *BERTHELOT, "--states", "10"],
    "verify-custom": ["verify", *CUSTOM, "--states", "10"],
    # exits 2: coefficient-identity-2 exceeds its absolute tolerance
    "verify-vdw-states20-seed1": ["verify", *VDW, "--states", "20",
                                  "--seed", "1"],
}


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.out"


def run_case(name: str) -> str:
    """Exit code line plus stdout of one case, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(CASES[name])
    return f"exit {code}\n{out.getvalue()}"


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _numbers_agree(got: str, want: str) -> bool:
    x, y = float(got), float(want)
    return x == y or abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def _line_matches(got: str, want: str) -> bool:
    if got == want:
        return True
    if NUMBER.split(got) != NUMBER.split(want):
        return False
    got_nums, want_nums = NUMBER.findall(got), NUMBER.findall(want)
    return all(_numbers_agree(g, w) for g, w in zip(got_nums, want_nums))


def mismatches(got: str, want: str) -> list[str]:
    """Lines of ``got`` that do not match the recording ``want``."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    problems = [f"line {i}: {g!r} vs recorded {w!r}"
                for i, (g, w) in enumerate(zip(got_lines, want_lines), 1)
                if not _line_matches(g, w)]
    if len(got_lines) != len(want_lines):
        problems.append(f"{len(got_lines)} lines vs {len(want_lines)} recorded")
    return problems
