"""Run the mutation list: every mutant of a proof-bearing guard must fail its tests.

Usage, from the repository root:

    python mutants/run.py            # every mutant of mutants/mutants.json
    python mutants/run.py NAME ...   # the named mutants only

Each entry of ``mutants.json`` names a file, an exact old text that occurs
once in ``src/``, the new text that weakens the guard, and the test files
that must catch it.  For each mutant the runner copies ``src/``, ``tests/``,
``perfbench/`` and ``pyproject.toml`` into a temporary directory, replaces
the old text there, and runs ``python -m pytest -x -q`` on the test files
against the copy.  A mutant is caught when pytest reports a failing test
(exit status 1); any other status (all passed, a collection error, no
tests) counts as a survivor.  The runner prints one line per mutant and
exits 1 if any survives.  It runs one pytest process at a time and is not
part of the tier-1 suite, which only checks that every old text still
occurs exactly once (``tests/test_mutants.py``).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = Path(__file__).resolve().parent / "mutants.json"
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


def load() -> list:
    return json.loads(MUTANTS.read_text(encoding="utf-8"))


def run(mutant: dict) -> tuple:
    """``(caught, seconds)`` for one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name, ignore=shutil.ignore_patterns("__pycache__", ".perfbench_out"))
            else:
                shutil.copy2(source, work / name)
        target = work / mutant["file"]
        text = target.read_text(encoding="utf-8")
        if text.count(mutant["old"]) != 1:
            raise SystemExit(f"{mutant['name']}: the old text does not occur exactly once in {mutant['file']}")
        target.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant["tests"]]
        start = time.perf_counter()
        proc = subprocess.run(command, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return proc.returncode == 1, time.perf_counter() - start


def main(argv: list) -> int:
    mutants = load()
    unknown = set(argv) - {m["name"] for m in mutants}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    survivors = []
    for mutant in mutants:
        if argv and mutant["name"] not in argv:
            continue
        caught, seconds = run(mutant)
        print(f"{'caught' if caught else 'SURVIVED'}  {seconds:6.1f} s  {mutant['name']}: {mutant['mutation']}", flush=True)
        if not caught:
            survivors.append(mutant["name"])
    if survivors:
        print(f"{len(survivors)} survivor(s): {', '.join(survivors)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
