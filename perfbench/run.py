"""Benchmark of liebrackets: three seeded workloads, end-to-end and per-layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

This process runs the passes one after another.  It starts one fresh Python
process per pass (``worker.py``), one at a time, and waits for each to end.
With ``--trace 0`` every pass runs the unmodified program and the last line
of stdout is the JSON result with the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` untraced and traced passes alternate and the JSON carries
the per-layer metrics.  Human-readable lines with sample counts precede the
JSON line; the full record, with the environment, goes to
``.perfbench_out/``.  See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("verify_all", "signature_random", "classify_rect")
# Seconds one untraced pass takes on the reference machine (README).  A run
# makes ceil(--seconds / NOMINAL_PASS_S) passes, a number that depends on
# --seconds only, so two commits under comparison time the same items and
# their tail percentiles have the same rank.
NOMINAL_PASS_S = {"verify_all": 1.6, "signature_random": 1.3, "classify_rect": 1.4}
RUN_LIMIT_S = 170.0  # a run that would take longer is stopped and fails

CHECK_GROUPS = ("lie_axioms", "iso_soundness", "deformation_coboundary")
CHECK_METRICS = tuple(f"check.{group}_s" for group in CHECK_GROUPS) + ("check.other_s",)


class BenchError(RuntimeError):
    pass


def plan(workload: str, seconds: int, trace: bool) -> list:
    """(mode, input index) of every pass a run makes, in order.  A traced
    pass reruns the inputs of the untraced pass before it, so their wall
    times give the tracing overhead."""
    passes = math.ceil(seconds / NOMINAL_PASS_S[workload])
    if trace:
        return [(mode, k) for k in range(max(1, passes // 2)) for mode in ("plain", "traced")]
    return [("plain", k) for k in range(passes)]


def run_worker(spec: dict, deadline: float) -> tuple:
    """Start one pass process; returns (raw set-up seconds, kernel times taken
    just before the start, result dict)."""
    OUT.mkdir(exist_ok=True)
    stderr_path = OUT / f"worker-{spec['workload']}.err"
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    kernel_s = calibration.samples()
    with open(stderr_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        # Unbuffered, so readline() takes exactly the READY line and
        # communicate() gets everything after it.
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err, bufsize=0)
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                ready = sel.select(max(0.0, deadline - time.perf_counter()))
            first = proc.stdout.readline().decode() if ready else ""
            setup_s = time.perf_counter() - start
            if first.strip() != "READY":
                raise BenchError("pass process did not get ready")
            rest, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
        except (BenchError, subprocess.TimeoutExpired) as exc:
            proc.kill()
            proc.communicate()
            tail = stderr_path.read_text(encoding="utf-8")[-2000:]
            raise BenchError(f"{spec}: {exc}\n{tail}") from None
    if proc.returncode != 0:
        tail = stderr_path.read_text(encoding="utf-8")[-2000:]
        raise BenchError(f"{spec}: exit code {proc.returncode}\n{tail}")
    lines = rest.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"{spec}: no result")
    return setup_s, kernel_s, json.loads(lines[-1])


def nearest_rank(sorted_values: list, fraction: float) -> float:
    return sorted_values[max(0, math.ceil(fraction * len(sorted_values)) - 1)]


def tail_fraction(n: int) -> float:
    """Highest percentile (as a fraction) with at least ten items beyond it."""
    return (n - 10) / n if n > 10 else 1.0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(args) -> dict:
    return {
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "seed": args.seed,
    }


def measure(args) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    setups, raw_setups, passes = [], [], {"plain": [], "traced": []}
    for mode, index in plan(args.workload, args.seconds, args.trace):
        spans = OUT / "spans" / f"{args.workload}-pass{index}.tsv" if mode == "traced" else None
        if spans is not None:
            spans.parent.mkdir(parents=True, exist_ok=True)
        spec = {"workload": args.workload, "seed": args.seed, "index": index, "mode": mode,
                "spans": str(spans) if spans else None}
        setup_s, kernel_s, result = run_worker(spec, deadline)
        # Scaled by the kernel times just before the start and, in the pass
        # process, just after set-up.
        setups.append(setup_s * calibration.factor(kernel_s + result["setup_kernel_s"]))
        raw_setups.append(setup_s)
        passes[mode].append(result)
    return {"setups": setups, "raw_setups": raw_setups, **passes}


def summarize(args, samples: dict) -> tuple:
    """Returns (metrics for the JSON line, lines to print, full record)."""
    plain, traced = samples["plain"], samples["traced"]
    timed = plain + traced
    items = [item for p in timed for item in p["items"]]
    failed = sum(1 for _, ok in items if not ok)
    ms = sorted(ms for p in plain for ms, _ in p["items"])
    tail = tail_fraction(len(ms))
    e2e = {
        "setup_s": (statistics.median(samples["setups"]), "s", f"{len(samples['setups'])} passes"),
        "wall_s": (statistics.median(p["wall_s"] for p in plain), "s", f"{len(plain)} passes"),
        "item_p50_ms": (nearest_rank(ms, 0.5), "ms", f"{len(ms)} items"),
        "item_tail_ms": (nearest_rank(ms, tail), "ms", f"p{100 * tail:.1f} of {len(ms)} items"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB", f"{len(plain)} passes"),
        "failed_ratio": (failed / len(items), "ratio", f"{failed} of {len(items)} items"),
    }
    checks = {}
    if args.workload == "verify_all":
        per_check = {c: statistics.median(p["checks"][c] for p in plain) for c in plain[0]["checks"]}
        for group in CHECK_GROUPS:
            checks[f"check.{group}_s"] = per_check[group]
        checks["check.other_s"] = sum(v for c, v in per_check.items() if c not in CHECK_GROUPS)
    layers = {}
    if traced:
        for key in traced[0]["layers"]:
            layers[key] = statistics.median(p["layers"][key] for p in traced)
        layers.update({key: checks.get(key, 0.0) for key in CHECK_METRICS})
        layers["trace.overhead_ratio"] = (
            statistics.median(p["wall_s"] for p in traced) / statistics.median(p["wall_s"] for p in plain)
        )
    lines = [f"perfbench {args.workload} seed={args.seed} trace={int(args.trace)}: "
             f"{len(plain)} untraced and {len(traced)} traced passes, {len(items)} items"]
    for name, (value, unit, count) in e2e.items():
        lines.append(f"  {name:<34} {value:>14.6g} {unit:<6} ({count})")
    for name, value in checks.items():
        lines.append(f"  {name:<34} {value:>14.6g} {'s':<6} (median of {len(plain)} passes)")
    for name, value in layers.items():
        lines.append(f"  {name:<48} {value:>14.6g} (median of {len(traced)} traced passes)")
    if args.trace:
        metrics = layers
    else:
        metrics = {name: value for name, (value, _, _) in e2e.items() if name != "failed_ratio"}
    record = {"end_to_end": {k: {"value": v, "unit": u, "samples": c} for k, (v, u, c) in e2e.items()},
              "checks": checks, "per_layer": layers, "errors": sorted({e for p in timed for e in p["errors"]}),
              "attempted": len(items), "failed": failed,
              "samples": {"setup_s": samples["setups"], "raw_setup_s": samples["raw_setups"],
                          "pass_wall_s": {mode: [p["wall_s"] for p in samples[mode]] for mode in ("plain", "traced")},
                          "pass_raw_wall_s": {mode: [p["raw_wall_s"] for p in samples[mode]]
                                              for mode in ("plain", "traced")},
                          "item_ms": [[ms for ms, _ in p["items"]] for p in plain]}}
    return metrics, lines, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "liebrackets" / "__init__.py").is_file():
        print(f"error: no liebrackets source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        samples = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics, lines, record = summarize(args, samples)
    units = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = units["per_layer"] if args.trace else units["end_to_end"]
    unit_of = {m["name"]: m["unit"] for m in declared}
    if set(unit_of) != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(unit_of))} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    for error in record["errors"]:
        print(f"failed item: {error}", file=sys.stderr)
    record["environment"] = environment(args)
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit_of[name]} for name in unit_of},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
