"""Outside-in tracer for the liebrackets layers.

The tracer never edits the package.  ``install`` replaces each traced public
function in every ``liebrackets`` module namespace that binds it (``algebra``,
``classify``, ``cli`` and the package ``__init__`` import most of them by
name), and wraps ``Matrix.__matmul__`` and ``Subspace.span`` on their
classes.  ``restore`` puts every original object back, so code run after it
is the unmodified program.

Each wrapped call records a span ``(id, name, start, end, parent, item)`` in
memory.  Boundary counters are computed from call arguments and results
after the span has closed; the time they take is recorded as a
``trace.counters`` span under the caller, so it is never charged to a layer's
self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Dict, Iterable, List, NamedTuple

# Traced public functions, named "<defining module>.<function>".
FUNCTIONS = (
    "matrices.rref",
    "matrices.rank",
    "matrices.inverse",
    "matrices.kernel",
    "matrices.rank_factorization",
    "brackets.bracket",
    "brackets.structure_constants",
    "algebra.jacobi_check",
    "algebra.center",
    "algebra.centralizer",
    "algebra.derived_series",
    "algebra.lower_central_series",
    "algebra.killing_form",
    "algebra.invariant_signature",
    "algebra.hom_check",
    "algebra.subalgebra_closed",
    "classify.iso_witness",
    "classify.random_parameter",
    "deform.ce_coboundary_check",
    "deform.psi_t",
    "deform.psi_t_inverse",
    "constructions.heisenberg_realization",
    "constructions.heisenberg_obstruction",
    "constructions.semidirect_S",
    "constructions.example_catalog",
    "verify.run_all",
)

# The ten checks that ``verify.run_all`` calls through the ``verify`` namespace.
CHECKS = (
    "lie_axioms",
    "center_dimensions",
    "iso_soundness",
    "signature_separation",
    "heisenberg_realization",
    "heisenberg_obstruction",
    "semidirect",
    "contraction",
    "deformation_coboundary",
    "catalog",
)
CHECK_FUNCTIONS = tuple(f"verify.check_{c}" for c in CHECKS)

# Methods wrapped on their class: span name -> (module, class, attribute).
METHODS = {
    "matrices.matmul": ("matrices", "Matrix", "__matmul__"),
    "matrices.subspace.span": ("matrices", "Subspace", "span"),
}

CONSTRUCTIONS = tuple(f for f in FUNCTIONS if f.startswith("constructions."))
COUNTER_SPAN = "trace.counters"


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    item: int


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "liebrackets" or name.startswith("liebrackets."))
    ]


def _module(short: str):
    return sys.modules[f"liebrackets.{short}"]


class Tracer:
    """Spans and boundary counters for one pass.

    ``functions`` selects the traced names (defaults to every layer);
    ``methods`` selects class methods; ``counters`` turns the boundary
    counters on.  Use as a context manager, or call ``install``/``restore``.
    """

    def __init__(self, functions: Iterable[str] = FUNCTIONS + CHECK_FUNCTIONS,
                 methods: Iterable[str] = tuple(METHODS), counters: bool = True):
        self.functions = tuple(functions)
        self.methods = tuple(methods)
        self.spans: List[Span] = []
        self.item = -1
        self._stack: List[int] = []
        self._next_id = 0
        self._saved: list = []  # (namespace, attribute, original) in install order
        self.counters = BoundaryCounters() if counters else None

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for name in self.functions:
            short, attr = name.rsplit(".", 1)
            original = getattr(_module(short), attr)
            wrapped = self._wrap(name, original, self._counter_for(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapped)
        for name in self.methods:
            short, cls_name, attr = METHODS[name]
            cls = getattr(_module(short), cls_name)
            original = cls.__dict__[attr]
            counter = self._counter_for(name)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__, counter))
            else:
                wrapped = self._wrap(name, original, counter)
            self._replace(cls, attr, wrapped)
        return self

    def _replace(self, namespace, attr: str, wrapped) -> None:
        self._saved.append((namespace, attr, namespace.__dict__[attr]))
        setattr(namespace, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            namespace, attr, original = self._saved.pop()
            setattr(namespace, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- recording ----------------------------------------------------------

    def _counter_for(self, name: str):
        if self.counters is None:
            return None
        return self.counters.HOOKS.get(name)

    def _wrap(self, name: str, fn, counter):
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, name, start, end, parent, self.item))
            if counter is not None:
                counter(counters, args, result)
                cid = self._next_id
                self._next_id = cid + 1
                spans.append(Span(cid, COUNTER_SPAN, end, clock(), parent, self.item))
            return result

        return traced

    def call(self, name: str, fn, *args):
        """Call ``fn`` under a span, for code the benchmark itself calls (``cli.main``)."""
        return self._wrap(name, fn, None)(*args)


# -- boundary counters --------------------------------------------------------


def _entry_bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class BoundaryCounters:
    """Useful-work ratios measured at layer boundaries from arguments and results."""

    def __init__(self):
        self.rref_calls = 0
        self.rref_cells = 0
        self.rref_max_rows = 0
        self.rref_max_cols = 0
        self.rref_max_entry_bits = 0
        self.rref_fraction_inputs = 0
        self.rref_repeats = 0
        self._rref_seen = set()
        self.matmul_madds = 0
        self.matmul_zero_madds = 0
        self.sc_calls = 0
        self.sc_repeats = 0
        self._sc_seen = set()
        self.sig_calls = 0
        self.sig_repeats = 0
        self._sig_seen = set()

    def rref(self, args, result) -> None:
        m = args[0]
        entries = m.entries
        self.rref_calls += 1
        self.rref_cells += m.rows * m.cols
        self.rref_max_rows = max(self.rref_max_rows, m.rows)
        self.rref_max_cols = max(self.rref_max_cols, m.cols)
        if any(x.denominator != 1 for x in entries):
            self.rref_fraction_inputs += 1
        if m in self._rref_seen:
            self.rref_repeats += 1
        else:
            self._rref_seen.add(m)
        bits = max(_entry_bits(x) for x in result.reduced.entries + result.transform.entries)
        self.rref_max_entry_bits = max(self.rref_max_entry_bits, bits)

    def matmul(self, args, result) -> None:
        a, b = args
        if result is NotImplemented:
            return
        col_nnz = [sum(1 for x in a.column_tuple(k) if x != 0) for k in range(a.cols)]
        row_nnz = [sum(1 for x in b.row(k) if x != 0) for k in range(b.rows)]
        useful = sum(c * r for c, r in zip(col_nnz, row_nnz))
        total = a.rows * a.cols * b.cols
        self.matmul_madds += total
        self.matmul_zero_madds += total - useful

    def structure_constants(self, args, result) -> None:
        param = args[0]
        self.sc_calls += 1
        if param in self._sc_seen:
            self.sc_repeats += 1
        else:
            self._sc_seen.add(param)

    def invariant_signature(self, args, result) -> None:
        alg = args[0]
        key = (alg.dim, tuple(sorted((ab, tuple(sorted(t.items()))) for ab, t in alg.constants.table.items())))
        self.sig_calls += 1
        if key in self._sig_seen:
            self.sig_repeats += 1
        else:
            self._sig_seen.add(key)

    HOOKS = {
        "matrices.rref": rref,
        "matrices.matmul": matmul,
        "brackets.structure_constants": structure_constants,
        "algebra.invariant_signature": invariant_signature,
    }


# -- span arithmetic -----------------------------------------------------------


def _covered(intervals: list, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, start), min(b, end)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Per span name: total span time minus the time its child spans cover."""
    spans = list(spans)
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - _covered(children.get(s.id, []), s.start, s.end)
    return dict(out)


def total_times(spans: Iterable[Span]) -> Dict[str, float]:
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.end - s.start
    return dict(out)


def call_counts(spans: Iterable[Span]) -> Dict[str, int]:
    out: Dict[str, int] = defaultdict(int)
    for s in spans:
        out[s.name] += 1
    return dict(out)


def calls_under(spans: Iterable[Span], ancestor: str, name: str) -> int:
    """Number of ``name`` spans whose nearest traced ancestor chain contains ``ancestor``."""
    spans = list(spans)
    by_id = {s.id: s for s in spans}
    count = 0
    for s in spans:
        if s.name != name:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name != ancestor:
            p = by_id.get(p.parent)
        if p is not None:
            count += 1
    return count


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (``tracer`` already restored)."""
    spans = tracer.spans
    self_s = self_times(spans)
    total_s = total_times(spans)
    calls = call_counts(spans)
    c = tracer.counters or BoundaryCounters()
    out: Dict[str, float] = {}

    def calls_and_self(name: str) -> None:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)

    calls_and_self("matrices.rref")
    out["matrices.rref.cells"] = c.rref_cells
    out["matrices.rref.max_rows"] = c.rref_max_rows
    out["matrices.rref.max_cols"] = c.rref_max_cols
    out["matrices.rref.max_entry_bits"] = c.rref_max_entry_bits
    out["matrices.rref.fraction_input_share"] = _ratio(c.rref_fraction_inputs, c.rref_calls)
    out["matrices.rref.repeat_share"] = _ratio(c.rref_repeats, c.rref_calls)
    calls_and_self("matrices.matmul")
    out["matrices.matmul.zero_share"] = _ratio(c.matmul_zero_madds, c.matmul_madds)
    for name in ("matrices.rank", "matrices.inverse", "matrices.kernel", "matrices.rank_factorization"):
        calls_and_self(name)
    out["matrices.subspace.rref_per_span"] = _ratio(
        calls_under(spans, "matrices.subspace.span", "matrices.rref"), calls.get("matrices.subspace.span", 0)
    )
    calls_and_self("brackets.bracket")
    calls_and_self("brackets.structure_constants")
    out["brackets.structure_constants.repeat_share"] = _ratio(c.sc_repeats, c.sc_calls)
    for fn in ("jacobi_check", "center", "centralizer", "derived_series", "lower_central_series",
               "killing_form", "invariant_signature", "hom_check", "subalgebra_closed"):
        calls_and_self(f"algebra.{fn}")
    out["algebra.invariant_signature.repeat_share"] = _ratio(c.sig_repeats, c.sig_calls)
    calls_and_self("classify.iso_witness")
    calls_and_self("classify.random_parameter")
    out["classify.random_parameter.rank_calls_per_result"] = _ratio(
        calls_under(spans, "classify.random_parameter", "matrices.rank"), calls.get("classify.random_parameter", 0)
    )
    for fn in ("ce_coboundary_check", "psi_t", "psi_t_inverse"):
        calls_and_self(f"deform.{fn}")
    out["constructions.self_s"] = sum(self_s.get(name, 0.0) for name in CONSTRUCTIONS)
    for check in CHECKS:
        out[f"verify.{check}_s"] = total_s.get(f"verify.check_{check}", 0.0)
    out["cli.report_s"] = self_s.get("cli.main", 0.0)
    return out


def check_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Wall time per verify check, from a tracer over ``CHECK_FUNCTIONS``."""
    total_s = total_times(spans)
    return {check: total_s.get(f"verify.check_{check}", 0.0) for check in CHECKS}


def write_spans(tracer: Tracer, path) -> None:
    """Write the recorded spans as tab-separated text, one span per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tname\tstart\tend\tparent\titem\n")
        for s in sorted(tracer.spans):
            fh.write(f"{s.id}\t{s.name}\t{s.start!r}\t{s.end!r}\t{s.parent}\t{s.item}\n")

