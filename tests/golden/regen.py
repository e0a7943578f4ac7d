"""Rewrite the golden CLI recordings from the current code.

Run by hand from anywhere:

    python3 tests/golden/regen.py

It imports thermogeom from this checkout's ``src``, runs every case in
``cases.py`` in-process, writes each ``<case>.out`` that is new or that the
golden test would fail, and deletes recordings that no case names.  A
recording whose bytes changed but which would still pass the golden test is
kept as it is and listed as "kept, within tolerance", so rounding noise of
one machine never rewrites a recording.  For each changed output it prints
the largest relative change of a number, and the largest absolute change
among numbers recorded below ``TINY`` in magnitude (where a relative change
means nothing, e.g. a curvature of 0), each with its line and column, so a
rounding-only regeneration can be reviewed at a glance.  Not collected by
pytest.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

from cases import (  # noqa: E402
    CASES,
    GOLDEN_DIR,
    NUMBER,
    golden_path,
    mismatches,
    run_case,
)

TINY = 1e-12


def number_changes(new: str, old: str) -> list[str]:
    """Largest changes of the numbers between two recordings, with places.

    Lines are compared pairwise; a line whose text outside numbers differs
    is reported as a text change instead.  Columns count characters of the
    new line from 1.
    """
    rel = tiny = (0.0, None)
    text_changes = []
    new_lines, old_lines = new.split("\n"), old.split("\n")
    for lineno, (got, want) in enumerate(zip(new_lines, old_lines), 1):
        if got == want:
            continue
        if NUMBER.split(got) != NUMBER.split(want):
            text_changes.append(lineno)
            continue
        for match, recorded in zip(NUMBER.finditer(got), NUMBER.findall(want)):
            x, y = float(match.group()), float(recorded)
            place = (lineno, match.start() + 1)
            if abs(y) < TINY:
                if abs(x - y) > tiny[0]:
                    tiny = (abs(x - y), place)
            elif abs(x - y) > rel[0] * max(abs(x), abs(y)):
                rel = (abs(x - y) / max(abs(x), abs(y)), place)
    out = [f"largest {kind} change {change:.2g} at line {place[0]} col {place[1]}"
           for kind, (change, place) in (("relative", rel),
                                         (f"absolute below {TINY:g}", tiny))
           if place is not None]
    if text_changes:
        out.append(f"text changed on {len(text_changes)} line(s), "
                   f"first line {text_changes[0]}")
    if len(new_lines) != len(old_lines):
        out.append(f"{len(new_lines)} lines vs {len(old_lines)} recorded")
    return out


def main() -> int:
    changed, touched = [], 0
    for name in CASES:
        path = golden_path(name)
        text = run_case(name)
        if path.is_file():
            old = path.read_text(encoding="utf-8")
            if old == text:
                continue
            kept = not mismatches(text, old)
            how = "; ".join(["kept, within tolerance" if kept
                             else "outside tolerance",
                             *number_changes(text, old)])
        else:
            kept, how = False, "new"
        if not kept:
            path.write_text(text, encoding="utf-8")
            touched += 1
        changed.append(f"{path.name}: {how}")
    for path in sorted(GOLDEN_DIR.glob("*.out")):
        if path.stem not in CASES:
            path.unlink()
            touched += 1
            changed.append(f"{path.name}: deleted, no such case")
    for line in changed:
        print(line)
    print(f"{touched} of {len(CASES)} recordings written or deleted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
