"""The mutation list and the unrun-statement list stay aligned with the source.

``mutants/run.py`` applies each mutant of ``mutants/mutants.json`` to a copy
of the tree and requires its tests to fail, and ``mutants/linecov.py`` runs
this suite under a tracer and requires every statement it leaves unrun to be
on ``mutants/unrun.json``; both are too slow for this suite.  These tests
only check that every mutant still names one place, and that every listed
statement still occurs and is meant to stay unrun: a refactor that moves or
rewrites a guard must update its entry too.
"""

import ast
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = json.loads((ROOT / "mutants" / "mutants.json").read_text(encoding="utf-8"))
UNRUN = json.loads((ROOT / "mutants" / "unrun.json").read_text(encoding="utf-8"))


def test_every_mutant_old_text_occurs_exactly_once_in_src():
    sources = {path: path.read_text(encoding="utf-8") for path in (ROOT / "src").rglob("*.py")}
    assert len({m["name"] for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m["old"] != m["new"], m["name"]
        assert sources[ROOT / m["file"]].count(m["old"]) == 1, m["name"]
        assert sum(text.count(m["old"]) for text in sources.values()) == 1, m["name"]
        assert m["tests"] and all((ROOT / t).is_file() for t in m["tests"]), m["name"]


def _linecov():
    spec = importlib.util.spec_from_file_location("linecov", ROOT / "mutants" / "linecov.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs_only_under_python_m(module: str, parents: list) -> bool:
    """In ``__main__.py``, or inside an ``if __name__ == "__main__":`` guard."""
    guard = ast.parse('__name__ == "__main__"', mode="eval").body
    return module.endswith("/__main__.py") or any(
        isinstance(p, ast.If) and ast.dump(p.test) == ast.dump(guard) for p in parents
    )


def test_every_listed_unrun_statement_occurs_and_is_meant_to_stay_unrun():
    linecov = _linecov()
    found = {
        key: (node, parents)
        for path in sorted((ROOT / "src").rglob("*.py"))
        for key, node, parents in linecov.statements(path)
    }
    keys = [(e["module"], e["function"], e["statement"]) for e in UNRUN]
    assert keys and len(set(keys)) == len(keys)
    for key in keys:
        assert key in found, key
        node, parents = found[key]
        assert isinstance(node, ast.Raise) or _runs_only_under_python_m(key[0], parents), key


def test_code_lines_skip_blanks_comments_and_docstrings():
    spec = importlib.util.spec_from_file_location("codelines", ROOT / "mutants" / "codelines.py")
    codelines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(codelines)
    source = '''"""A module docstring
over two lines."""

import os  # a trailing comment counts as code


class Shape:
    """A class docstring."""

    # a comment line
    size = max(
        1,
        2,
    )

    def area(self):
        """A function docstring."""
        text = """a string
that is not a docstring"""
        return self.size * len(text)
'''
    # import, class, the four lines of size, def, the two of text, return
    assert codelines.code_lines(source) == 10
