"""The mutation list stays aligned with the source it mutates.

``mutants/run.py`` applies each mutant of ``mutants/mutants.json`` to a copy
of the tree and requires its tests to fail; it is too slow for this suite.
This test only checks that every mutant still names one place: a refactor
that moves or rewrites a guard must update its mutant too.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = json.loads((ROOT / "mutants" / "mutants.json").read_text(encoding="utf-8"))


def test_every_mutant_old_text_occurs_exactly_once_in_src():
    sources = {path: path.read_text(encoding="utf-8") for path in (ROOT / "src").rglob("*.py")}
    assert len({m["name"] for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m["old"] != m["new"], m["name"]
        assert sources[ROOT / m["file"]].count(m["old"]) == 1, m["name"]
        assert sum(text.count(m["old"]) for text in sources.values()) == 1, m["name"]
        assert m["tests"] and all((ROOT / t).is_file() for t in m["tests"]), m["name"]
