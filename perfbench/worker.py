"""One benchmark pass in a fresh process.

Usage: ``python3 perfbench/worker.py '<json spec>'`` with the spec keys
``workload``, ``seed``, ``index``, ``mode`` (``plain`` or ``traced``) and
``spans`` (a path for the span dump of a traced pass, or
null).

Protocol on stdout: the line ``READY`` once imports, inputs and oracles are
done (the parent times set-up up to it), then one JSON line with the pass
result.  Nothing else is written to stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import calibration  # noqa: E402
import workloads  # noqa: E402  (needs SRC on the path)
from tracer import CHECK_FUNCTIONS, CHECKS, Tracer, layer_metrics, write_spans  # noqa: E402


def main(spec: dict) -> dict:
    workload, mode = spec["workload"], spec["mode"]
    inputs = workloads.make_inputs(workload, spec["seed"], spec["index"])
    print("READY", flush=True)
    if mode == "traced":
        tracer = Tracer()
    elif workload == "verify_all":
        # Only the ten check names: ten wrapper calls per pass.
        tracer = Tracer(functions=CHECK_FUNCTIONS, methods=(), counters=False)
    else:
        tracer = None
    first = calibration.samples()
    start = time.perf_counter()
    if tracer is None:
        items = workloads.run_pass(workload, inputs, between=calibration.samples)
    else:
        with tracer:
            items = workloads.run_pass(workload, inputs, tracer, between=calibration.samples)
    wall_s = time.perf_counter() - start
    last = calibration.samples()
    # Every time below is in reference seconds (calibration.py).  The pass
    # uses all kernel times; an item uses the ones just before and after it.
    # The kernel runs between items are inside wall_s, so they are taken out.
    kernels = [list(item.kernel) for item in items] + [last]
    speed = calibration.factor(first + [t for k in kernels for t in k])
    inner_kernel_s = sum(sum(item.kernel) for item in items)
    result = {
        "wall_s": (wall_s - inner_kernel_s) * speed,
        "raw_wall_s": wall_s - inner_kernel_s,
        "setup_kernel_s": first,  # run.py scales set-up time with these
        "items": [
            [item.ms * (calibration.factor(kernels[i] + kernels[i + 1]) if item.kernel else speed), item.ok]
            for i, item in enumerate(items)
        ],
        "errors": [item.error for item in items if not item.ok][:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if workload == "verify_all":
        result["checks"] = {check: ms / 1000.0 for check, (ms, _) in zip(CHECKS, result["items"])}
    if mode == "traced":
        layers = layer_metrics(tracer)
        result["layers"] = {k: v * speed if k.endswith("_s") else v for k, v in layers.items()}
        if spec.get("spans"):
            write_spans(tracer, spec["spans"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))), flush=True)
