"""Record the sha256 of the ``verify-all`` stdout report for each seed in
``workloads.VERIFY_SEEDS``.

Usage: ``python3 perfbench/record_digests.py``.

The ``verify_all`` workload compares every report it times against this
table, which enforces the promise that the report stays byte-identical.  Run
it only on a commit whose reports are known to be right; it rewrites
``perfbench/verify_all_digests.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    digests = {}
    for seed in workloads.VERIFY_SEEDS:
        code, out = workloads.run_cli(workloads.verify_all_argv(seed))
        if code != 0:
            raise SystemExit(f"verify-all --seed {seed} exited with {code}")
        digests[str(seed)] = workloads.sha256(out)
        print(f"seed {seed}: {digests[str(seed)]}", flush=True)
    table = {"max": workloads.VERIFY_MAX, "digests": digests}
    workloads.DIGESTS_PATH.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
