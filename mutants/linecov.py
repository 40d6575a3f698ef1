"""Statement-coverage probe: every statement of ``src/`` that tier-1 leaves unrun must be listed.

Usage, from the repository root:

    python mutants/linecov.py

The probe runs the tier-1 suite (``pytest`` on the ``testpaths`` of
``pyproject.toml``) in this process under ``sys.settrace``, recording the
lines executed in the frames of files under ``src/`` only.  It puts ``src``
on ``sys.path`` and on ``PYTHONPATH``, which the CLI tests' subprocesses
read; those subprocesses are not traced.  Hypothesis runs with a fixed
seed, so the probe is reproducible; a statement that only a generated
example reaches should still get a test of its own, since tier-1 draws
other examples.  A statement ran if any line of its source ran.  The probe prints every unrun statement that
``mutants/unrun.json`` does not list, and exits 1 if there is one, or if
the suite fails.

A statement is keyed by its module (the path under ``src/``), its enclosing
function (the dotted names of the enclosing classes and functions, or
``<module>``) and its text (the source with each run of whitespace made one
space), not by line number, so the list survives edits elsewhere.  Only the
outermost unrun statement of an unrun block is reported.  The list holds
only statements meant to stay unrun: a ``raise`` of an argument check, or a
statement that runs only under ``python -m``.  The probe also prints every
listed statement that the suite runs, and exits 1 if there is one, so the
list holds no stale entry.  ``tests/test_mutants.py``
checks that each listed statement still occurs and is one of these.  The
probe costs about three times the untraced tier-1 run, so it is not part of
tier-1.
"""

from __future__ import annotations

import ast
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
UNRUN = Path(__file__).resolve().parent / "unrun.json"


def _is_docstring(node) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def statements(path: Path):
    """Yield ``(key, node, parents)`` for each statement of the file at
    ``path`` but its docstrings, outermost first; ``key`` is
    ``(module, function, text)`` and ``parents`` the enclosing statements."""
    text = path.read_text(encoding="utf-8")
    lines = [line.encode("utf-8") for line in text.splitlines()]
    module = path.relative_to(SRC).as_posix()

    def source(node) -> str:  # ast.get_source_segment, without splitting the file again per call
        part = lines[node.lineno - 1 : node.end_lineno]
        part[-1] = part[-1][: node.end_col_offset]
        part[0] = part[0][node.col_offset :]
        return " ".join(b" ".join(part).decode("utf-8").split())

    def walk(body, scope, parents):
        for node in body:
            if _is_docstring(node):  # compiles to no line of code
                continue
            yield (module, ".".join(scope) or "<module>", source(node)), node, parents
            inner = [*scope, node.name] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else scope
            for field in ("body", "orelse", "finalbody"):
                yield from walk(getattr(node, field, []), inner, [*parents, node])
            for handler in getattr(node, "handlers", []):
                yield from walk(handler.body, inner, [*parents, node])

    yield from walk(ast.parse(text).body, [], [])


def _first_line(node) -> int:
    return min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])


def unrun(executed: dict) -> list:
    """The keys of the outermost statements of ``src/`` none of whose lines
    is in ``executed`` (file path to the set of its executed lines)."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        lines = executed.get(str(path), set())
        missed = set()
        for key, node, parents in statements(path):
            if any(id(p) in missed for p in parents):
                continue
            if lines.isdisjoint(range(_first_line(node), node.end_lineno + 1)):
                missed.add(id(node))
                found.append(key)
    return found


def _trace_suite() -> tuple:
    """Run tier-1 under the tracer: ``(pytest exit status, executed lines)``."""
    import pytest

    prefix = str(SRC) + os.sep
    executed: dict = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        executed.setdefault(frame.f_code.co_filename, set())
        return local

    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)
    sys.settrace(tracer)
    try:
        # One fixed Hypothesis seed, so that two runs of the probe trace the same examples.
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "--hypothesis-seed=0"])
    finally:
        sys.settrace(None)
    return status, executed


def main() -> int:
    status, executed = _trace_suite()
    if status != 0:
        print(f"the tier-1 suite exited with status {status}; its coverage is not read")
        return 1
    listed = {(e["module"], e["function"], e["statement"]) for e in json.loads(UNRUN.read_text(encoding="utf-8"))}
    missed = unrun(executed)
    new = [key for key in missed if key not in listed]
    stale = sorted(listed.difference(missed))
    for module, function, text in new:
        print(f"unrun and not listed: {module} {function}: {text}")
    for module, function, text in stale:
        print(f"listed but run: {module} {function}: {text}")
    print(f"{len(missed)} unrun statements, {len(missed) - len(new)} of them listed in {UNRUN.name}")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
