"""Seeded workloads: inputs, oracles, timed items and their correctness gates.

Every workload is driven through the public API of ``liebrackets``; the
library only ever sees the generated inputs.  One *pass* is a fixed batch of
items run in a fresh process (see ``worker.py``); the inputs of pass ``k``
of a run with seed ``s`` depend on ``(workload, s, k)`` only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path
from typing import List, NamedTuple, Optional

import liebrackets
from liebrackets import cli, verify

from tracer import CHECKS, Tracer, check_times, total_times

# Operand shapes n x m of one signature_random pass.  J is m x n and dense:
# entries in [-3, 3] without 0, which keeps the elimination cost of one shape
# within about 20 % of its mean, so a run's total does not hinge on its seed.
SIGNATURE_SHAPES = ((3, 4), (4, 3))
DENSE_ENTRIES = (-3, -2, -1, 1, 2, 3)
# Operand shapes of one classify_rect pass.  Sorted by cost the items form
# three blocks (3x5; 5x3 and 3x6; 6x3), so the median and the tail
# percentile fall inside a block, not on the edge between two.
CLASSIFY_SHAPES = ((3, 5), (5, 3), (3, 6), (6, 3))
CLASSIFY_WITNESS_PAIRS = 1
VERIFY_MAX = 3
# CLI seeds a verify_all pass draws from; verify_all_digests.json holds the
# recorded report digest of each.
VERIFY_SEEDS = range(16)

DIGESTS_PATH = Path(__file__).resolve().parent / "verify_all_digests.json"


class Item(NamedTuple):
    ms: float
    ok: bool
    error: str = ""  # why a failed item failed
    kernel: tuple = ()  # calibration kernel times taken just before the item


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def exact_rank(rows) -> int:
    """Rank by Gaussian elimination over ``Fraction``, independent of the package."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(a[0])):
        pivot = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for r in range(rank + 1, len(a)):
            f = a[r][col] / a[rank][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        table = json.load(fh)
    if table["max"] != VERIFY_MAX:
        raise ValueError(f"digest table is for --max {table['max']}, not {VERIFY_MAX}")
    digests = {int(seed): digest for seed, digest in table["digests"].items()}
    if sorted(digests) != list(VERIFY_SEEDS):
        raise ValueError(f"digest table has seeds {sorted(digests)}, not {list(VERIFY_SEEDS)}")
    return digests


def verify_all_argv(cli_seed: int, max_size: int = VERIFY_MAX) -> list:
    return ["verify-all", "--max", str(max_size), "--seed", str(cli_seed)]


def run_cli(argv: list, tracer: Optional[Tracer] = None):
    """``cli.main(argv)`` in process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
    return code, out.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- inputs and oracles --------------------------------------------------------


def make_inputs(workload: str, seed: int, index: int) -> dict:
    """Inputs of one pass plus the oracle data its gates compare against."""
    rng = pass_rng(workload, seed, index)
    if workload == "verify_all":
        cli_seed = rng.choice(VERIFY_SEEDS)
        return {"cli_seed": cli_seed, "digest": load_digests()[cli_seed]}
    if workload == "signature_random":
        params, expected, oracle = [], [], {}
        for n, m in SIGNATURE_SHAPES:
            j = [[rng.choice(DENSE_ENTRIES) for _ in range(n)] for _ in range(m)]
            r = exact_rank(j)
            if (n, m, r) not in oracle:
                normal = liebrackets.LieAlgebra.from_param(liebrackets.BracketParam.normal(n, m, r))
                oracle[(n, m, r)] = liebrackets.invariant_signature(normal)
            params.append(liebrackets.BracketParam(n, m, liebrackets.Matrix(j)))
            expected.append(oracle[(n, m, r)])
        return {"params": params, "expected": expected}
    if workload == "classify_rect":
        return {"calls": [(n, m, rng.randrange(2**31)) for n, m in CLASSIFY_SHAPES]}
    raise ValueError(f"unknown workload {workload!r}")


# -- timed items and gates -------------------------------------------------------


def run_pass(workload: str, inputs: dict, tracer: Optional[Tracer] = None, between=None) -> List[Item]:
    """Run one pass; every item is timed and gated, and an exception fails the item.

    ``between()``, if given, runs untimed before each item; its result is
    kept in the item's ``kernel`` field (the worker passes the calibration
    kernel).
    """
    if workload == "verify_all":
        return _verify_all(inputs, tracer, between)
    if workload == "signature_random":
        calls = [(_signature, (param, expected)) for param, expected in zip(inputs["params"], inputs["expected"])]
    elif workload == "classify_rect":
        calls = [(_classification, call) for call in inputs["calls"]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    items = []
    for index, (fn, args) in enumerate(calls):
        kernel = tuple(between()) if between else ()
        if tracer is not None:
            tracer.item = index
        start = time.perf_counter()
        try:
            ok, error = bool(fn(*args)), ""
        except Exception as exc:  # a raising item is a failed item, never an aborted run
            ok, error = False, f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - start) * 1000.0
        items.append(Item(ms, ok, error if error or ok else "correctness gate failed", kernel))
    return items


def _signature(param, expected) -> bool:
    return liebrackets.invariant_signature(liebrackets.LieAlgebra.from_param(param)) == expected


def _classification(n: int, m: int, seed: int) -> bool:
    report = liebrackets.classify_rank_family(n, m, seed, CLASSIFY_WITNESS_PAIRS)
    return (
        report["pairwise_distinct"]
        and len(report["entries"]) == min(n, m) + 1
        and all(e["witness_verified"] for e in report["entries"])
    )


def _verify_all(inputs: dict, tracer: Tracer, between=None) -> List[Item]:
    """Items are the ten checks, timed by the spans of ``tracer`` (which must
    trace at least the ``verify.check_*`` names), and the rest of the run.  A
    nonzero exit code, a failed report or a stdout digest that differs from
    the recorded one fails all eleven; otherwise a check fails when its own
    verdict does."""
    tracer.item = 0
    argv = verify_all_argv(inputs["cli_seed"])
    verdicts, error = [], ""
    kernels = {}
    try:
        with _before_each_check(between, kernels):
            code, out = run_cli(argv, tracer)
        report = json.loads(out)["result"]
        # run_all reports the checks in the order of CHECKS.
        verdicts = [c["pass"] is True for c in report["checks"]]
        if code != 0 or report["pass"] is not True or len(verdicts) != len(CHECKS):
            error = f"{' '.join(argv)}: exit code {code}, report pass {report['pass']}"
        elif sha256(out) != inputs["digest"]:
            error = f"{' '.join(argv)}: stdout differs from the recorded report"
    except Exception as exc:
        error = f"{' '.join(argv)}: {type(exc).__name__}: {exc}"
    times = check_times(tracer.spans)
    items = []
    for i, check in enumerate(CHECKS):
        ok = not error and verdicts[i]
        error_i = "" if ok else error or f"check {check} failed"
        items.append(Item(times[check] * 1000.0, ok, error_i, kernels.get(check, ())))
    # The eleventh item is the rest of the CLI run: argument parsing and the
    # JSON report.  Kernel runs between checks happen inside cli.main.
    cli_s = total_times(tracer.spans).get("cli.main", 0.0)
    rest_s = cli_s - sum(times.values()) - sum(sum(k) for k in kernels.values())
    items.append(Item(rest_s * 1000.0, not error, error))
    return items


@contextlib.contextmanager
def _before_each_check(between, kernels: dict):
    """Run ``between()`` before each ``verify.check_*`` call, outside the
    check's span (this wrapper sits outside the tracer's), and restore the
    bindings afterwards."""
    saved = {check: getattr(verify, f"check_{check}") for check in CHECKS} if between else {}
    for check, inner in saved.items():
        def calibrated(*args, _inner=inner, _check=check, **kwargs):
            kernels[_check] = tuple(between())
            return _inner(*args, **kwargs)

        setattr(verify, f"check_{check}", calibrated)
    try:
        yield
    finally:
        for check, inner in saved.items():
            setattr(verify, f"check_{check}", inner)
