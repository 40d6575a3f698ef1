"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import liebrackets  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span  # noqa: E402


def _declared(section: str) -> list:
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]]


def _samples(items, layers=None) -> dict:
    pass_result = {"wall_s": 1.0, "raw_wall_s": 1.0, "items": items, "errors": [], "peak_rss_mb": 20.0,
                   "checks": {c: 0.1 for c in tracer.CHECKS}}
    traced = [dict(pass_result, layers=layers)] if layers is not None else []
    return {"setups": [0.1, 0.2, 0.3], "raw_setups": [0.1, 0.2, 0.3], "plain": [pass_result], "traced": traced}


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, -1, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "d", 3.0, 5.0, 0, 0),  # overlaps a: the covered union is [1, 7]
        Span(3, "b", 5.0, 7.0, 0, 0),
        Span(4, "c", 5.5, 6.5, 3, 0),
        Span(5, "a", 8.0, 9.0, 0, 0),
    ]
    self_s = tracer.self_times(spans)
    assert self_s == {"root": 3.0, "a": 4.0, "d": 2.0, "b": 1.0, "c": 1.0}
    assert tracer.calls_under(spans, "b", "c") == 1
    assert tracer.calls_under(spans, "a", "c") == 0


def _bindings() -> dict:
    """Every attribute of every liebrackets module, plus the wrapped class slots."""
    out = {}
    for mod in tracer._package_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
    for short, cls_name, attr in tracer.METHODS.values():
        cls = getattr(tracer._module(short), cls_name)
        out[(cls.__qualname__, attr)] = cls.__dict__[attr]
    return out


def test_tracing_restores_every_binding_and_leaves_the_report_unchanged():
    argv = workloads.verify_all_argv(0, max_size=2)
    before = _bindings()
    code, plain_out = workloads.run_cli(argv)
    t = tracer.Tracer()
    with t:
        assert liebrackets.algebra.rank is not before[("liebrackets.algebra", "rank")]
        assert liebrackets.Matrix.__dict__["__matmul__"] is not before[("Matrix", "__matmul__")]
        traced_code, traced_out = workloads.run_cli(argv, t)
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert code == traced_code == 0
    assert workloads.sha256(traced_out) == workloads.sha256(plain_out)
    calls = tracer.call_counts(t.spans)
    for name in ("cli.main", "verify.run_all", "matrices.rref", "matrices.matmul", "brackets.bracket"):
        assert calls.get(name, 0) > 0, name
    metrics = tracer.layer_metrics(t)
    assert metrics["cli.report_s"] > 0
    assert metrics["verify.deformation_coboundary_s"] > 0


def test_a_wrong_expected_signature_counts_as_failed():
    inputs = workloads.make_inputs("signature_random", 0, 0)
    sig = inputs["expected"][0]
    wrong = dataclasses.replace(sig, center_dim=sig.center_dim + 1)
    inputs = {"params": inputs["params"][:1], "expected": [wrong]}
    items = workloads.run_pass("signature_random", inputs)
    assert [item.ok for item in items] == [False]
    args = argparse.Namespace(workload="signature_random", seed=0, trace=0)
    _, _, record = run.summarize(args, _samples([[i.ms, i.ok] for i in items]))
    assert record["end_to_end"]["failed_ratio"]["value"] > 0
    assert record["failed"] == 1


def test_emitted_metric_names_match_benchmark_json():
    items = [[float(i), True] for i in range(30)]
    layers = tracer.layer_metrics(tracer.Tracer())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        for workload in run.WORKLOADS:
            args = argparse.Namespace(workload=workload, seed=0, trace=trace)
            metrics, _, _ = run.summarize(args, _samples(items, layers if trace else None))
            assert sorted(metrics) == sorted(_declared(section)), (workload, trace)


def test_tail_is_the_highest_percentile_with_ten_items_beyond():
    values = list(range(1, 31))
    frac = run.tail_fraction(len(values))
    assert run.nearest_rank(values, frac) == 20
    assert sum(1 for v in values if v > 20) == 10
    assert run.nearest_rank(values, 0.5) == 15
