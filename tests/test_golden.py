"""Every CLI subcommand against its recorded output.

The recordings live in ``tests/golden``; ``tests/golden/cases.py`` lists the
argv of each and the comparison rule (exact text, numbers to rel 1e-14,
same exit code).  After an intended output change, regenerate them with
``python3 tests/golden/regen.py`` and review the diff.
"""
import pytest

from golden.cases import CASES, golden_path, mismatches, run_case


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_recording(name):
    path = golden_path(name)
    assert path.is_file(), f"no recording {path.name}; run tests/golden/regen.py"
    problems = mismatches(run_case(name), path.read_text(encoding="utf-8"))
    assert not problems, "\n".join(problems[:10])


def test_every_recording_has_a_case():
    stray = [p.name for p in golden_path("x").parent.glob("*.out")
             if p.stem not in CASES]
    assert not stray
