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
tests) counts as a survivor.  A pytest run that passes ``TIMEOUT_S``
counts as a hang: a mutant may corrupt a loop so that its tests never end.
Each run starts in its own session, so on expiry the whole process group,
with the CLI tests' subprocesses, is killed.  The runner prints one line
per mutant, ``caught``, ``SURVIVED`` or ``TIMED OUT``, and exits 1 if any
mutant survives or times out.  It runs one pytest process at a time and is
not part of the tier-1 suite, which only checks that every old text still
occurs exactly once (``tests/test_mutants.py``).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = Path(__file__).resolve().parent / "mutants.json"
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
# Seconds one pytest run may take.  The slowest mutant's tests end in well under a
# minute on 2 cores; a mutant that corrupts a loop can make them run without end.
TIMEOUT_S = 180


def load() -> list:
    return json.loads(MUTANTS.read_text(encoding="utf-8"))


def run(mutant: dict) -> tuple:
    """``(outcome, seconds)`` for one mutant: ``caught``, ``SURVIVED`` or ``TIMED OUT``."""
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
        proc = subprocess.Popen(
            command, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True
        )
        try:
            outcome = "caught" if proc.wait(timeout=TIMEOUT_S) == 1 else "SURVIVED"
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the session leader's group: pytest and what it started
            proc.wait()
            outcome = "TIMED OUT"
        return outcome, time.perf_counter() - start


def main(argv: list) -> int:
    mutants = load()
    unknown = set(argv) - {m["name"] for m in mutants}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    failed = {"SURVIVED": [], "TIMED OUT": []}
    for mutant in mutants:
        if argv and mutant["name"] not in argv:
            continue
        outcome, seconds = run(mutant)
        print(f"{outcome}  {seconds:6.1f} s  {mutant['name']}: {mutant['mutation']}", flush=True)
        if outcome in failed:
            failed[outcome].append(mutant["name"])
    for outcome, names in failed.items():
        if names:
            print(f"{len(names)} {outcome.lower()}: {', '.join(names)}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
