"""Rewrite the golden CLI recordings from the current code.

Run by hand from anywhere:

    python3 tests/golden/regen.py

It imports thermogeom from this checkout's ``src``, runs every case in
``cases.py`` in-process, writes each ``<case>.out`` whose bytes changed,
deletes recordings that no case names, and lists every file it touched.
A changed file is marked "within tolerance" when the old recording would
still have passed the golden test.  Not collected by pytest.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

from cases import CASES, GOLDEN_DIR, golden_path, mismatches, run_case  # noqa: E402


def main() -> int:
    changed = []
    for name in CASES:
        path = golden_path(name)
        text = run_case(name)
        if path.is_file():
            old = path.read_text(encoding="utf-8")
            if old == text:
                continue
            how = ("within tolerance" if not mismatches(text, old)
                   else "outside tolerance")
        else:
            how = "new"
        path.write_text(text, encoding="utf-8")
        changed.append(f"{path.name}: {how}")
    for path in sorted(GOLDEN_DIR.glob("*.out")):
        if path.stem not in CASES:
            path.unlink()
            changed.append(f"{path.name}: deleted, no such case")
    for line in changed:
        print(line)
    print(f"{len(changed)} of {len(CASES)} recordings changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
