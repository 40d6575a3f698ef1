"""Each lemma is stated once and pinned by a mutant.

A lemma is stated in ``src/`` as a docstring paragraph (or a bullet) that
opens with ``<Name> lemma:``, and cited elsewhere, in ``src/`` or the
README, by its name, as in "the packing lemma of ``_packed_brackets``".
Every use of the word "lemma" must name a lemma that is stated exactly
once, and every stated lemma must be the ``"lemma"`` of at least one mutant
of ``mutants/mutants.json``, so that ``mutants/run.py`` shows a test fails
when the guard it justifies is weakened.  A mutant whose guard rests on no
stated lemma has ``"lemma": null``.
"""

import json
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))
MUTANTS = json.loads((ROOT / "mutants" / "mutants.json").read_text(encoding="utf-8"))

STATEMENT = re.compile(r"^[ \t]*(?:- )?([A-Z][\w-]*) lemma:", re.M)
CITATION = re.compile(r"([\w-]+)\s+lemma\b", re.I)


def stated() -> Counter:
    return Counter(
        name.lower() for path in SOURCES for name in STATEMENT.findall(path.read_text(encoding="utf-8"))
    )


def cited() -> dict:
    """Each name cited before the word "lemma", with the files citing it."""
    names: dict = {}
    for path in [*SOURCES, ROOT / "README.md"]:
        text = path.read_text(encoding="utf-8")
        assert len(CITATION.findall(text)) == len(re.findall(r"\blemma\b", text, re.I)), path.name
        for name in CITATION.findall(text):
            names.setdefault(name.lower(), set()).add(path.name)
    return names


def test_every_cited_lemma_is_stated_exactly_once():
    counts = stated()
    assert counts, "no lemma statement found"
    assert {name: n for name, n in counts.items() if n != 1} == {}
    assert {name: files for name, files in cited().items() if name not in counts} == {}


def test_every_stated_lemma_has_a_mutant():
    names = set(stated())
    assert all("lemma" in m for m in MUTANTS), [m["name"] for m in MUTANTS if "lemma" not in m]
    pinned = {m["lemma"] for m in MUTANTS if m["lemma"] is not None}
    assert sorted(pinned - names) == []
    assert sorted(names - pinned) == []
