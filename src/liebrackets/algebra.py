"""Generic computations on Lie algebras given by structure constants.

Axiom verification, centers and centralizers, derived and lower central
series, the Killing form, subalgebra and homomorphism checks, and the
invariant signature used as a computable stand-in for isomorphism
classification.  An algebra may carry a ``model`` (``LieAlgebra``): its
basis is then the canonical row-major basis of a matrix space
``Mat(n x m)`` with a middle-parameter bracket.

The adjoint action is read from one table per algebra,
``LieAlgebra._sparse_ads``: a model's comes from its parameter ``J`` by the
walk of ``brackets._unit_rule``, and its structure-constants table is built
only when something reads it.  Spans and ranks are taken on sparse integer
rows by ``matrices._echelon`` and ``matrices._rank``, on the algebra with
integer constants (``_integer_constants``).  The destination of
``hom_check`` and the ambient of ``subalgebra_closed`` are a
``BracketParam``, not an algebra.  ``invariant_signature`` states its two
paths: a model's signature is read off the weight grading of its rank
normal form ``N_r`` (``_graded_signature``), and any other algebra's, or a
model's whose transport proof fails, is taken by the generic kernel on the
rows the public functions build, which bounds each elimination by ``d`` or
by the dimension of the term before and sums every bracket off the adjoint.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, combinations, repeat
from dataclasses import dataclass
from functools import cached_property
from math import lcm
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .brackets import (
    BracketParam,
    StructureConstants,
    _pack,
    _packed_brackets,
    _unit_rule,
    _unpack,
    bracket,
    structure_constants,
)
from .matrices import (
    _INT_ONLY,
    Matrix,
    ShapeError,
    Subspace,
    _Value,
    _add_multiple,
    _echelon,
    _integer_row,
    _normal_form_transport,
    _null_rows,
    _rank,
    _reduced_rows,
    _sparse_row,
    rank,
    rank_normal_form,
)
from .scalars import Scalar, scalar_div, scalar_str


class Verdict(_Value):
    """Outcome of a checkable claim; ``witness`` explains a failure."""

    _fields = ("passed", "witness")

    def __init__(self, passed: bool, witness: Optional[dict] = None):
        self._set(passed, witness)

    def __bool__(self) -> bool:
        return self.passed


class HomVerdict(_Value):
    """Outcome of a homomorphism check, with injectivity alongside."""

    _fields = ("is_hom", "injective", "witness")

    def __init__(self, is_hom: bool, injective: bool, witness: Optional[dict] = None):
        self._set(is_hom, injective, witness)

    @property
    def bijective(self) -> bool:
        return self.is_hom and self.injective


class LieAlgebra(_Value):
    """Dimension + structure constants, with optional labels and matrix model.

    When ``model`` is set it is the algebra's bracket: the constants are
    exactly those of the model's bracket over the canonical row-major
    basis (only ``from_param`` sets it, and it builds them from it), so
    coordinates and ``Mat(n x m)`` elements convert freely and
    ``invariant_signature`` may read the bracket off its parameter.  A
    model's adjoint (``_sparse_ads``) comes from ``J``, and its constants
    table is built by ``structure_constants`` only when something reads it
    (``_ModelConstants``), so a signature, a center or a series of a model
    builds none.  An algebra is not changed after construction, so tables
    derived from it are kept on it.  Unlike the other values it is
    assignable, and so not hashable.
    """

    _fields = ("dim", "constants", "labels", "model")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        dim: int,
        constants: StructureConstants,
        labels: Optional[Tuple[str, ...]] = None,
        model: Optional[BracketParam] = None,
    ):
        self._set(dim, constants, labels, model)
        if constants.dim != dim:
            raise ValueError(f"constants dim {constants.dim} != algebra dim {dim}")
        if labels is not None and len(labels) != dim:
            raise ValueError("one label per basis element required")
        if model is not None and model.dim != dim:
            raise ShapeError("model space dimension does not match algebra dimension")

    @classmethod
    def from_param(cls, param: BracketParam) -> "LieAlgebra":
        return cls(param.dim, _ModelConstants(param), model=param)

    @property
    def ambient_shape(self) -> tuple:
        if self.model is not None:
            return (self.model.n, self.model.m)
        return (self.dim, 1)

    def to_coords(self, x) -> tuple:
        if isinstance(x, Matrix):
            if x.shape != self.ambient_shape:
                raise ShapeError(f"element shape {x.shape} vs ambient {self.ambient_shape}")
            return x.entries
        coords = tuple(x)
        if len(coords) != self.dim:
            raise ShapeError(f"expected {self.dim} coordinates, got {len(coords)}")
        return coords

    def from_coords(self, coords: Sequence[Scalar]) -> Matrix:
        rows, cols = self.ambient_shape
        return Matrix.from_flat(rows, cols, coords)

    def full_subspace(self) -> Subspace:
        rows, cols = self.ambient_shape
        units = [tuple(1 if i == k else 0 for i in range(self.dim)) for k in range(self.dim)]
        return Subspace._from_echelon(rows, cols, units)

    @cached_property
    def _sparse_ads(self) -> list:
        """Column-sparse adjoint matrices: ``ads[a][b]`` is the sparse column
        ``[x_a, x_b]``, and ``ads[b][a]`` its negation.  No reader changes a
        column.  A model's adjoint is built from its parameter by the walk of
        ``brackets._unit_rule``, both halves at once, with no table.  An
        algebra without a model keeps the dicts of its constants table as
        the upper half and builds only the negated mirror."""
        model = self.model
        if model is None:
            return _table_adjoint(self.constants.table, self.dim)
        ads: list = [dict() for _ in range(self.dim)]
        m = model.m
        for a, b0, t, c in _unit_rule(model):  # T(a, b) = c E_t
            cols = ads[a]
            for b in range(b0, b0 + m):
                if b != a:
                    col = cols.get(b)
                    if col is None:  # [x_a, x_b] and [x_b, x_a] start together
                        col = cols[b] = {}
                        ads[b][a] = {}
                    col[t] = c
                    ads[b][a][t] = -c
                t += 1
        return ads

    @cached_property
    def _derived_rows(self) -> dict:
        """The ``_echelon`` basis of ``[g, g]``, the span of the brackets of the
        basis pairs: the columns ``ads[a][b]``, ``a < b``, of the upper half
        of ``_sparse_ads``, read as sparse rows in pair order, the order of
        ``structure_constants``, eliminated with the bound ``d``.  Only for
        an algebra whose constants are all ``int`` (see
        ``_integer_constants``)."""
        upper = (cols[b] for a, cols in enumerate(self._sparse_ads) for b in sorted(cols) if b > a)
        return _echelon(upper, self.dim)


class _ModelConstants(StructureConstants):
    """The constants of the ``param`` bracket, whose ``table`` is
    ``structure_constants(param).table``, built the first time it is read:
    by the Jacobi check, a homomorphism check from the algebra, equality,
    ``to_json`` or ``repr``.  The engine's own readers of a model read its
    adjoint, which ``LieAlgebra._sparse_ads`` builds from ``param``."""

    __slots__ = ("param",)

    def __init__(self, param: BracketParam):
        self.dim = param.dim
        self.param = param

    def __getattr__(self, name: str):
        # Reached only while a slot is unset: ``table`` before its first read.
        if name != "table":
            raise AttributeError(name)
        self.table = table = structure_constants(self.param).table
        return table


def _table_adjoint(table: dict, d: int) -> list:
    """The column-sparse adjoint of the constants ``table``: its own dicts
    as the upper half ``ads[a][b]``, ``a < b``, and their negations as the
    lower half."""
    ads: list = [dict() for _ in range(d)]
    for (i, j), terms in table.items():
        ads[i][j] = terms
        ads[j][i] = {k: -v for k, v in terms.items()}
    return ads


def _dense(row: dict, width: int) -> tuple:
    """The sparse ``row`` written out as a tuple of length ``width``."""
    return tuple(map(row.get, range(width), repeat(0)))


def _coords_json(coords) -> dict:
    return {str(k): scalar_str(v) for k, v in enumerate(coords) if v != 0}


def jacobi_check(L: LieAlgebra) -> Verdict:
    """Verify the cyclic Jacobi sum on every basis triple a < b < c.

    Antisymmetry is structural in the constants, so the triples are the
    whole content of the axiom check.  The check judges the constants table
    alone, also for a model, whose ``_sparse_ads`` is built from ``J``
    instead: the triples are walked in order, each summed by ``_jacobi_sum``
    over the ``_form_adjoint`` of the table as one form, and a violation is
    reported with the first offending triple and its nonzero defect vector,
    in the order of the sum's terms.
    """
    ads = _form_adjoint([L.constants.table], L.dim)
    for triple in combinations(range(L.dim), 3):
        defect = {str(t): scalar_str(v) for t, v in _jacobi_sum(ads, 1, *triple).items() if v != 0}
        if defect:
            return Verdict(False, {"triple": list(triple), "defect": defect})
    return Verdict(True)


def _jacobi_holds_in_j(tables: Sequence[dict], d: int) -> bool:
    """Whether the constants ``sum_p J_p tables[p]`` satisfy Jacobi as
    polynomials in the entries ``J_p``: every monomial coefficient of the
    ``_jacobi_sum`` of every basis triple is 0."""
    ads = _form_adjoint(tables, d)
    return not any(any(_jacobi_sum(ads, len(tables), *triple).values()) for triple in combinations(range(d), 3))


def _form_adjoint(tables: Sequence[dict], d: int) -> list:
    """The column-sparse adjoint of the constants ``sum_p J_p tables[p]``,
    whose entries are linear forms ``{p: c}`` in the ``J_p``: the merged
    forms as the upper half ``ads[a][b]``, ``a < b``, and their negations as
    the lower half.  One table gives the forms ``{0: c}``."""
    ads: list = [dict() for _ in range(d)]
    for p, table in enumerate(tables):
        for (i, j), terms in table.items():
            upper, lower = ads[i].setdefault(j, {}), ads[j].setdefault(i, {})
            for k, v in terms.items():
                upper.setdefault(k, {})[p] = v
                lower.setdefault(k, {})[p] = -v
    return ads


def _jacobi_sum(ads: list, size: int, a: int, b: int, c: int) -> dict:
    """The Jacobi sum of the basis triple ``a < b < c`` for the adjoint
    ``ads`` of ``_form_adjoint`` over ``size`` forms, term by term: the
    coefficient of ``J_p J_q`` (``p <= q``) at target ``t`` is kept at the
    key ``(t * size + p) * size + q``, so with one form the key is ``t``."""
    total: dict = {}
    # [x_a, [x_b, x_c]] - [x_b, [x_a, x_c]] + [x_c, [x_a, x_b]]
    for x, sign, (i, j) in ((a, 1, (b, c)), (b, -1, (a, c)), (c, 1, (a, b))):
        ad_x = ads[x]
        for k, v in ads[i].get(j, {}).items():
            for t, w in ad_x.get(k, {}).items():
                for p, y in v.items():
                    for q, z in w.items():
                        key = (t * size + p) * size + q if p <= q else (t * size + q) * size + p
                        total[key] = total.get(key, 0) + sign * y * z
    return total


def center(L: LieAlgebra) -> Subspace:
    """The centralizer of the whole algebra: kernel of the stacked adjoint."""
    return _centralizer_kernel(L, [{x: 1} for x in range(L.dim)])


def centralizer(L: LieAlgebra, S: Subspace) -> Subspace:
    """Elements bracketing to zero with every basis member of ``S``."""
    if (S.ambient_rows, S.ambient_cols) != L.ambient_shape:
        raise ShapeError(
            f"subspace ambient {S.ambient_rows}x{S.ambient_cols} does not match "
            f"algebra ambient {L.ambient_shape[0]}x{L.ambient_shape[1]}"
        )
    return _centralizer_kernel(L, [_sparse_row(L.to_coords(s)) for s in S.basis])


def _centralizer_kernel(L: LieAlgebra, vectors: list) -> Subspace:
    """The kernel of ``_centralizer_rows``, taken on ``_integer_constants(L)``,
    which has the same centralizers: its null space, read off its
    ``_echelon`` basis by ``_null_rows``, in canonical reduced echelon rows.
    With no rows every column is free, and the kernel is the whole space."""
    d = L.dim
    null = _null_rows(_echelon(_centralizer_rows(_integer_constants(L), vectors).values(), d), d)
    return Subspace._from_echelon(*L.ambient_shape, _reduced_rows(_echelon(null.values(), len(null)), d)[0])


def _centralizer_rows(L: LieAlgebra, vectors: list) -> Dict[tuple, dict]:
    """Sparse rows of ``y -> ([y, s])_s`` for the sparse integer vectors
    ``s``: row ``(s, k)`` is coordinate ``k`` of ``[y, s] = -sum_x s_x
    ad_x(y)``, as ``{i: entry}``."""
    ads = L._sparse_ads
    rows: Dict[tuple, dict] = defaultdict(dict)
    for s_idx, s in enumerate(vectors):
        for x, sx in s.items():
            for i, col in ads[x].items():
                for k, w in col.items():
                    row = rows[(s_idx, k)]
                    y = row.get(i, 0) - sx * w
                    if y:
                        row[i] = y
                    else:
                        del row[i]
    return rows


def _add_bracket(v: dict, c: Scalar, cols: dict, y: dict) -> None:
    """``v += c * [x_a, y]`` on sparse rows (only nonzero entries kept), for
    the adjoint columns ``cols = ads[a]``."""
    for b, yb in y.items():
        col = cols.get(b)
        if col:
            _add_multiple(v, c * yb, col)


def _series_rows(L: LieAlgebra, lower_central: bool) -> List[dict]:
    """The ``_echelon`` basis of each term of the series after ``g``, up to
    the first term that is 0 or has the dimension of the term before, for an
    algebra with ``int`` constants.  The primitive integer rows of a term's
    basis span it, so they are bracketed as they are.

    Each term lies in the one before by bilinearity alone: ``[g, g]`` lies
    in ``g``, and ``C' <= C`` gives ``[g, C'] <= [g, C]`` and
    ``[C', C'] <= [C, C]``.  So each step is eliminated with the dimension
    of the current term as its bound: reaching it proves the next term equal
    to the current one, and the generators left are never formed.
    """
    terms = [L._derived_rows]
    prev = L.dim
    while 0 < len(terms[-1]) < prev:
        prev = len(terms[-1])
        terms.append(_echelon(_next_generators(L, list(terms[-1].values()), lower_central), prev))
    return terms


def _next_generators(L: LieAlgebra, current: list, lower_central: bool):
    """The nonzero brackets, as sparse rows, spanning the term after the one
    spanned by the sparse rows ``current``, each summed off the adjoint by
    ``_add_bracket``."""
    ads = L._sparse_ads
    if lower_central:  # [x_a, y] for every basis element x_a
        for cols in ads:
            if not cols:
                continue
            for y in current:
                v: dict = {}
                _add_bracket(v, 1, cols, y)
                if v:
                    yield v
    else:  # [y, z] = sum_a y_a [x_a, z] for every pair of rows
        for p, y in enumerate(current):
            for z in current[p + 1 :]:
                v = {}
                for a, ya in y.items():
                    _add_bracket(v, ya, ads[a], z)
                if v:
                    yield v


def _series(L: LieAlgebra, lower_central: bool) -> List[Subspace]:
    """The series as subspaces, from ``_series_rows`` of the algebra with
    integer constants, whose series are the same spans."""
    shape = L.ambient_shape
    terms = _series_rows(_integer_constants(L), lower_central)
    return [L.full_subspace()] + [Subspace._from_echelon(*shape, _reduced_rows(t, L.dim)[0]) for t in terms]


def derived_series(L: LieAlgebra) -> List[Subspace]:
    """g, [g,g], [[g,g],[g,g]], ... until the dimension stabilizes."""
    return _series(L, lower_central=False)


def lower_central_series(L: LieAlgebra) -> List[Subspace]:
    """g, [g,g], [g,[g,g]], ... until the dimension stabilizes."""
    return _series(L, lower_central=True)


def killing_form(L: LieAlgebra):
    """Gram matrix ``trace(ad_a . ad_b)`` and its exact rank."""
    gram_matrix = Matrix(_dense(row, L.dim) for row in _killing_gram(_flat_ads(L)))
    return gram_matrix, rank(gram_matrix)


def _flat_ads(L: LieAlgebra) -> list:
    """Row ``a`` is ``ad_a`` flattened, ``{b * d + t: c_ab^t}``: key
    ``v * d + u`` holds the matrix entry ``ad_a[u, v]``."""
    d = L.dim
    return [{b * d + t: c for b, col in cols.items() for t, c in col.items()} for cols in L._sparse_ads]


def _killing_gram(flat: list) -> list:
    """Sparse rows of the Gram matrix ``trace(ad_a . ad_b)`` from the rows
    ``flat`` of ``_flat_ads``: the entries are indexed by key once, and
    ``ad_a[u, v] * ad_b[v, u]`` is added up over the entries at each key
    ``v * d + u`` and its transpose ``u * d + v``."""
    d = len(flat)
    at: dict = {}  # v * d + u -> [(a, ad_a[u, v])]
    for a, row in enumerate(flat):
        for key, x in row.items():
            at.setdefault(key, []).append((a, x))
    gram: list = [dict() for _ in range(d)]
    for key, xs in at.items():
        v, u = divmod(key, d)
        ys = at.get(u * d + v)
        if ys is None:
            continue
        for a, x in xs:
            row = gram[a]
            for b, y in ys:
                row[b] = row.get(b, 0) + x * y
    return [{b: t for b, t in row.items() if t} for row in gram]


def subalgebra_closed(param: BracketParam, S: Subspace) -> Verdict:
    """Pass iff the ``param`` bracket of any two basis members of ``S`` stays
    in ``S``: each pair is bracketed by ``brackets.bracket`` and reduced
    against ``S``, and a failure reports the first pair and its residual."""
    if (S.ambient_rows, S.ambient_cols) != (param.n, param.m):
        raise ShapeError(
            f"subspace ambient {S.ambient_rows}x{S.ambient_cols} does not match "
            f"algebra ambient {param.n}x{param.m}"
        )
    for a in range(S.dim):
        for b in range(a + 1, S.dim):
            residual = S.reduce(bracket(S.basis[a], S.basis[b], param))
            if not residual.is_zero():
                return Verdict(
                    False,
                    {
                        "pair": [a, b],
                        "residual": _coords_json(residual.entries),
                    },
                )
    return Verdict(True)


def hom_check(f: Matrix, src: LieAlgebra, dst: BracketParam) -> HomVerdict:
    """Check ``f([x,y]) = [f(x), f(y)]`` on all basis pairs, plus injectivity,
    for the matrix ``f`` from ``src`` to the ``dst`` bracket on
    ``Mat(dst.n x dst.m)``, whose columns are the flat images of the basis of
    ``src``.

    The check runs on integers: with ``D`` the lcm of the denominators of
    ``f`` and ``F = D f``, the left side is linear and the right side
    quadratic in ``f``, so it tests ``D * F([x,y]) = [F(x), F(y)]``.  A
    failure witness reports the first failing pair, with both sides divided
    by ``D**2``, the values of the unscaled test.  ``f`` is injective when
    the columns of ``F`` have rank ``src.dim``.

    The right side is evaluated through the ``dst`` bracket itself, so no
    structure constants of the destination are read, and each side of each
    pair is packed into one integer at the slot width ``w`` of
    ``brackets._packed_brackets``, whose packing lemma makes equal packings
    mean equal sides:

    - The images ``X_a`` are the columns of ``F``, read as ``n x m``.  With
      ``J' = d_J J`` integer and ``c`` the lcm of the denominators of the
      source constants, both sides are multiplied by ``d_J c``: the left
      side becomes ``sum_k (s c_ab^k) F e_k`` with ``s = D d_J c`` and every
      ``s c_ab^k`` an integer, and the right side ``[X_a, X_b]`` under
      ``c J'``, which the kernel packs.
    - Packing is linear, so the left side packs to
      ``sum_k (s c_ab^k) pack(F e_k)``, from the ``d`` packed columns, a
      combination of the images with coefficients of absolute sum at most
      ``s max_ab sum_k |c_ab^k|``, which ``w`` covers too.  So a pair costs
      the kernel's ``2 n`` products, one per left-side term, and one
      comparison.
    - A failing pair's packings are decoded into their balanced
      base-``2^w`` digits, the two sides, for its witness; the failures
      come from ``_hom_failures``, and the verdict reports the first.
    """
    if f.cols != src.dim or f.rows != dst.dim:
        raise ShapeError(
            f"map {f.rows}x{f.cols} does not fit algebras of dims {src.dim} -> {dst.dim}"
        )
    d = src.dim
    flat, den = _integer_row(f.entries)
    return _packed_hom_check([flat[a::d] for a in range(d)], den, src, dst)


def _hom_witness(a: int, b: int, lhs, rhs, den: int) -> dict:
    return {
        "pair": [a, b],
        "f_of_bracket": _coords_json(scalar_div(x, den) for x in lhs),
        "bracket_of_images": _coords_json(scalar_div(x, den) for x in rhs),
    }


def _packed_hom_check(fcols: list, den: int, src: LieAlgebra, dst: BracketParam) -> HomVerdict:
    """The packed check of ``hom_check``: the injectivity rank of the map
    whose matrix has the integer columns ``fcols`` over ``den``, from ``src``
    into the ``dst`` bracket, and the first of its ``_hom_failures``.  The
    witness check of ``classify``, which already holds integer columns,
    calls it directly."""
    injective = _rank(map(_sparse_row, fcols), dst.dim) == src.dim
    witness = next(_hom_failures(fcols, den, src.constants.table, dst), None)
    return HomVerdict(witness is None, injective, witness)


def _hom_failures(fcols: list, den: int, constants: dict, dst: BracketParam):
    """Yield the ``_hom_witness`` of each basis pair, in pair order, on which
    the map whose matrix has the integer columns ``fcols`` over ``den`` is
    not a homomorphism from the algebra of the constants table ``constants``
    into the ``dst`` bracket: the two sides of each pair are packed into one
    integer each, as described in ``hom_check``, and only a pair whose
    packings differ is decoded."""
    table, c = _integer_table(constants)
    jflat, dj = _integer_row(dst.j.entries)
    f = den * dj
    max_c = max((sum(map(abs, terms.values())) for terms in table.values()), default=0)
    w, pairs = _packed_brackets(fcols, [c * x for x in jflat], dst.n, dst.m, f * max_c)
    packed = [f * _pack(col, w) for col in fcols]
    for a, b, right in pairs:
        terms = table.get((a, b))
        left = sum(map(mul, terms.values(), map(packed.__getitem__, terms))) if terms else 0
        if left != right:
            size = dst.dim
            yield _hom_witness(a, b, _unpack(left, w, size), _unpack(right, w, size), f * c * den)


@dataclass(frozen=True)
class InvariantSignature:
    """Computable isomorphism invariants, compared as a single value."""

    dim: int
    center_dim: int
    derived_dims: tuple
    lcs_dims: tuple
    killing_rank: int
    derived_center_dim: int

    def __post_init__(self):
        for dims in (self.derived_dims, self.lcs_dims):
            if any(a < b for a, b in zip(dims, dims[1:])):
                raise ValueError(f"series dimensions must be weakly decreasing: {dims}")

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "center_dim": self.center_dim,
            "derived_dims": list(self.derived_dims),
            "lcs_dims": list(self.lcs_dims),
            "killing_rank": self.killing_rank,
            "derived_center_dim": self.derived_center_dim,
        }


def _integer_table(table: dict) -> tuple:
    """``(D table, D)``, with ``D`` the lcm of the denominators of the
    constants ``table``; ``(table, 1)`` when they are all ``int``."""
    if _INT_ONLY.issuperset(map(type, chain.from_iterable(map(dict.values, table.values())))):
        return table, 1
    den = lcm(*(v.denominator for terms in table.values() for v in terms.values()))
    return {pair: {k: v.numerator * (den // v.denominator) for k, v in terms.items()}
            for pair, terms in table.items()}, den


def _integer_constants(L: LieAlgebra) -> LieAlgebra:
    """``L`` with its bracket multiplied by ``D``, so that every constant is
    an ``int``; ``L`` itself when they all are.

    For a model, ``J`` is scanned, not the table: the bracket is linear in
    ``J``, so ``D [A, B]_J = [A, B]_(D J)``, and by the unit-rule lemma of
    ``brackets._unit_rule`` every constant of ``D J`` is plus or minus one
    of its entries.  So ``D`` is the lcm of the denominators of ``J``, and
    the result is the model of ``D J``, whose adjoint is read off ``D J``
    with no table.  An algebra without a model scans its table, ``D`` is
    the lcm of the denominators of its constants, and the scaled algebra
    carries no labels or model.  Callers read only the adjoint and
    constants of the result, and the shape from ``L``."""
    model = L.model
    if model is not None:
        j = model.j
        if _INT_ONLY.issuperset(map(type, chain.from_iterable(j._data))):
            return L
        scaled = BracketParam(model.n, model.m, j * _integer_row(j.entries)[1])
        return LieAlgebra(L.dim, _ModelConstants(scaled), model=scaled)
    table, _ = _integer_table(L.constants.table)
    if table is L.constants.table:
        return L
    return LieAlgebra(L.dim, StructureConstants._trusted(L.dim, table))


def invariant_signature(L: LieAlgebra) -> InvariantSignature:
    """Assemble the signature; equal signatures are necessary for isomorphism.

    The signature takes one of two paths:

    - An algebra with a model has the signature of the rank normal form
      ``N_r`` of its shape and rank, read off its weight grading
      (``_graded_signature``).  One scan of ``J`` tells whether it is
      ``N_r`` already (``_normal_form_rank``).  Otherwise
      ``matrices._normal_form_transport`` eliminates ``J`` once, writes the
      factors of ``N_r = Q J P`` from that elimination (the
      normal-form-factor lemma of ``matrices._normal_form_factors``) and
      proves them by their identity and the null-block lemma, which ranks
      only the last ``m - r`` rows of ``Q`` and ``n - r`` columns of ``P``.
      By the classification lemma of ``classify``, ``A -> P A Q`` is then an
      isomorphism, which keeps every invariant below.
    - An algebra without a model, or one whose proof fails, takes the
      generic kernel (``_signature``), described below.

    The generic kernel runs on ``_integer_constants(L)``, for a model the
    model of its integer parameter ``D J``, whose adjoint is read off that
    ``J`` with no table.  Multiplying the bracket by ``D != 0`` keeps the
    center, both series and every centralizer, and multiplies the Killing
    form by ``D**2``, which keeps its rank.  Only dimensions are read, so
    each invariant is one exact rank, a count of ``matrices._rank`` or the
    length of an ``_echelon`` basis, on the rows that ``center``,
    ``centralizer``, the series and ``killing_form`` build:

    - ``center_dim = d - rank`` of ``center``'s system, the
      ``_centralizer_rows`` of the basis;
    - ``derived_center_dim = d - rank``.  With ``b_1..b_k`` the primitive
      integer echelon rows of ``D = [g, g]``, ``y`` lies in ``D`` iff the
      rows of its annihilator (``matrices._null_rows``) vanish on ``y``, so
      the center of ``D`` is the kernel of those rows stacked on the
      ``_centralizer_rows`` of the ``b_j``.  When ``[g, g] = 0`` it is 0,
      the center of the zero algebra, and neither system is built;
    - the series dimensions are the ranks of ``_series_rows``, where each
      term lies in the one before by bilinearity alone, so a step that
      reaches the dimension of the term before is stationary and stops
      reading its generators;
    - when the derived dimensions are ``(d, k, k)`` (so ``k > 0``), the
      lower central series is ``(d, k, k)`` too and is not eliminated:
      ``C^2 = [g, g]`` equals ``[C^2, C^2]``, and for any bilinear bracket
      ``[C^2, C^2] <= [g, C^2] = C^3 <= C^2``;
    - the Killing rank is the rank of the Gram rows of ``killing_form``
      (``_killing_gram`` of ``_flat_ads``).

    ``[g, g]`` is eliminated once, in ``LieAlgebra._derived_rows``, for both
    series and its center, and each series step sums its brackets off the
    adjoint (``_next_generators``).  Every elimination stops once it
    reaches its bound (``d``, or the dimension of the term before), which no
    rank can pass, so every rank is exact.
    """
    param = L.model
    if param is not None:
        r = _normal_form_rank(param)
        if r is not None:
            return _graded_signature(L, r)
        r = _normal_form_transport(param.j)
        if r is not None:
            return _graded_signature(LieAlgebra.from_param(BracketParam.normal(param.n, param.m, r)), r)
    return _signature(L)


def _normal_form_rank(param: BracketParam) -> Optional[int]:
    """``r`` when ``param.j`` is the rank normal form ``N_r`` of its shape,
    else None: one scan of ``J``, no elimination."""
    n, m, j = param.n, param.m, param.j
    r = next((i for i in range(min(n, m)) if j[i, i] != 1), min(n, m))
    return r if j == rank_normal_form(m, n, r) else None


def _signature(L: LieAlgebra) -> InvariantSignature:
    """The generic signature of ``L``, from its own constants, as
    ``invariant_signature`` describes."""
    L = _integer_constants(L)
    d = L.dim
    derived = L._derived_rows
    k = len(derived)
    derived_dims = (d,) + tuple(len(rows) for rows in _series_rows(L, False))
    if derived_dims == (d, k, k):  # [g, g] is its own derived algebra
        lcs_dims = derived_dims
    else:
        lcs_dims = (d,) + tuple(len(rows) for rows in _series_rows(L, True))
    derived_center_dim = 0  # the center of 0 is 0
    if k:  # y lies in [g, g] and brackets each of its basis rows to 0
        rows = chain(_null_rows(derived, d).values(), _centralizer_rows(L, derived.values()).values())
        derived_center_dim = d - _rank(rows, d)
    return InvariantSignature(
        dim=d,
        center_dim=d - _rank(_centralizer_rows(L, [{x: 1} for x in range(d)]).values(), d),
        derived_dims=derived_dims,
        lcs_dims=lcs_dims,
        killing_rank=_rank(_killing_gram(_flat_ads(L)), d),
        derived_center_dim=derived_center_dim,
    )


def _graded_signature(L: LieAlgebra, r: int) -> InvariantSignature:
    """The signature of the ``N_r`` bracket ``L``, read off its weight
    grading, with no elimination on the ``d`` coordinates.

    Weight-grading lemma: the bracket ``[E_ij, E_kl] = [j = k < r] E_il -
    [l = i < r] E_kj`` (the unit-rule lemma of ``brackets._unit_rule``) is
    graded by ``deg E_ij = e_i - f_j`` modulo ``e_k = f_k`` for ``k < r``.
    Degree 0 is ``H = span{E_kk : k < r}``, abelian, and ``[h, E_ij] =
    (h_i - h_j) E_ij`` with ``h_k = 0`` for ``k >= r``, the root of
    ``E_ij``; every other degree is the line of one unit.  So the bracket
    of two units is ``±`` a unit outside ``H``, ``E_ii - E_jj`` in ``H``,
    or 0, and each series term, the center and the center of ``[g, g]``
    (each component of a central element is central) is a set of units
    plus a subspace of ``H``.  The Killing form ``K`` pairs degree ``α``
    only with ``-α``, as ``ad_x ad_y`` shifts degree by ``α + β``.  A unit
    ``E_ij`` with ``i >= r`` or ``j >= r`` has no unit of opposite degree,
    so it lies in the radical.  On ``H``, ``K(h, h') = sum_u root_u(h)
    root_u(h')`` is the Gram of the roots, of the rank of the roots.  Each
    pair ``{E_ij, E_ji}`` with ``i != j < r`` adds 2: with ``h = [E_ij,
    E_ji] = E_ii - E_jj``, whose root on ``E_ij`` is 2, invariance gives
    ``K(E_ij, E_ji) = K(h, h) / 2 > 0``.  So the Killing rank is ``r (r -
    1)`` plus the rank of the roots on ``H``.

    A term is kept as ``(units, rows)``, ``rows`` the ``_echelon`` basis of
    its ``H`` part on the coordinates ``k``.  ``[A, T]`` is spanned by the
    brackets of the units of ``A`` with those of ``T``, off ``_sparse_ads``,
    and by ``root_u(h) u`` for a unit ``u`` of one and ``h`` in the ``H``
    part of the other; it lies in ``T``, whose ``H`` part bounds its
    elimination.  A unit of a term is central when it brackets no unit of
    the term and its root vanishes on the term's ``H`` part, and the central
    ``h = sum_q c_q rows[q]`` are the kernel of the rows
    ``(root_u(rows[q]))_q``, whose rank on ``g`` is the rank of the roots.
    So each dimension is a count of units plus one rank of width at most
    ``r``.
    """
    param = L.model
    d, m, ads = param.dim, param.m, L._sparse_ads
    h = {k * (m + 1): k for k in range(r)}  # the unit E_kk of H -> its coordinate k

    def weights(hrows):  # index i -> (h_i for h in hrows), 0 past r: root_(i,j)(h) = h_i - h_j
        zero = (0,) * len(hrows)
        return [tuple(v.get(i, 0) for v in hrows) if i < r else zero for i in range(max(param.n, m))]

    def moved(units, hrows):  # the units whose root is nonzero on hrows
        at = weights(hrows)
        return {u for u in units if at[u // m] != at[u % m]}

    def bracket_term(outer, inner):  # [outer, inner] of two terms, as a term
        (ou, ov), (iu, iv) = outer, inner
        units, rows = moved(ou, iv), []
        both = outer is not inner  # else [u, b] = -[b, u] is read once, at u < b
        if both:
            units |= moved(iu, ov)
        for u in iu:
            for b, col in ads[u].items():
                if (both or u < b) and b in ou:
                    if len(col) == 1:
                        units.update(col)
                    else:
                        rows.append({h[t]: c for t, c in col.items()})
        return units, list(_echelon(rows, len(iv)).values())

    def dim(term):
        return len(term[0]) + len(term[1])

    def center_roots(term):  # the center dimension, and the rank of the roots on the H part
        units, hrows = term
        at = weights(hrows)
        central, pairs = 0, set()  # pairs (at[i], at[j]) of the units E_ij with a nonzero root
        for u in units:
            pair = at[u // m], at[u % m]
            if pair[0] != pair[1]:
                pairs.add(pair)
            elif units.isdisjoint(ads[u]):
                central += 1
        kernel = ({q: x - y for q, (x, y) in enumerate(zip(*pair)) if x != y} for pair in pairs)
        roots = _rank(kernel, len(hrows))
        return central + len(hrows) - roots, roots

    def series_dims(lower_central):
        terms, prev = [derived], d
        while 0 < dim(terms[-1]) < prev:
            prev = dim(terms[-1])
            terms.append(bracket_term(g if lower_central else terms[-1], terms[-1]))
        return (d,) + tuple(map(dim, terms))

    g = (set(range(d)).difference(h), [{k: 1} for k in range(r)])
    derived = bracket_term(g, g)
    derived_dims = series_dims(False)
    k = dim(derived)
    center_dim, roots = center_roots(g)
    return InvariantSignature(
        dim=d,
        center_dim=center_dim,
        derived_dims=derived_dims,
        lcs_dims=derived_dims if derived_dims == (d, k, k) else series_dims(True),
        killing_rank=r * (r - 1) + roots,
        derived_center_dim=center_roots(derived)[0],
    )
