"""The middle-parameter bracket on rectangular matrix spaces.

For operands ``A, B`` in ``Mat(n x m)`` and a parameter ``J`` in
``Mat(m x n)``, the product ``A*J*B`` is associative, so

    [A, B]_J = A*J*B - B*J*A

is a Lie bracket for every fixed ``J``; the family is linear in ``J`` and
``J = 0`` gives the abelian algebra.  The canonical basis ``E_{i,j}`` of
``Mat(n x m)`` is ordered row-major.  The unit rule, the bracket of two
basis matrices, is one walk over the nonzero entries of ``J``
(``_unit_rule``): ``structure_constants`` compiles it into the sorted
sparse table, and a model's adjoint (``algebra.LieAlgebra._sparse_ads``)
is read off it with no table.  Every pair loop on integer operands
brackets through the one kernel ``_packed_brackets``.
"""

from __future__ import annotations

from itertools import chain
from operator import mul
from typing import Dict, Sequence, Tuple

from .matrices import Matrix, ShapeError, _Value, _integer_row, rank_normal_form
from .scalars import Scalar, scalar_div, scalar_str, to_scalar


class BracketParam(_Value):
    """Operand shape ``n x m`` plus the ``m x n`` middle parameter."""

    _fields = ("n", "m", "j")

    def __init__(self, n: int, m: int, j: Matrix):
        self._set(n, m, j)
        if n < 1 or m < 1:
            raise ShapeError(f"invalid operand shape {n}x{m}")
        if j.shape != (m, n):
            raise ShapeError(f"parameter must be {m}x{n} for operands {n}x{m}, got {j.rows}x{j.cols}")

    @property
    def dim(self) -> int:
        return self.n * self.m

    @classmethod
    def normal(cls, n: int, m: int, r: int) -> "BracketParam":
        """Parameter in rank normal form: identity block of size r."""
        return cls(n, m, rank_normal_form(m, n, r))

    @classmethod
    def commutator(cls, n: int) -> "BracketParam":
        """Square operands with J = I: the ordinary commutator."""
        return cls(n, n, Matrix.identity(n))


def bracket(a: Matrix, b: Matrix, param: BracketParam) -> Matrix:
    """Evaluate ``a @ j @ b - b @ j @ a`` for operands matching ``param``."""
    if a.shape != (param.n, param.m) or b.shape != (param.n, param.m):
        raise ShapeError(
            f"operands {a.rows}x{a.cols} and {b.rows}x{b.cols} do not match "
            f"bracket space {param.n}x{param.m}"
        )
    return a @ param.j @ b - b @ param.j @ a


def _packed_brackets(xs: Sequence[Sequence[int]], jflat: Sequence[int], n: int, m: int, combination: int = 0):
    """``(w, pairs)``: the slot width ``w`` and an iterator of ``(a, b, p)``
    over the pairs ``a < b`` of the integer operands ``xs`` (row-major flat
    ``n x m``), with ``p`` the packing of ``[X_a, X_b]_J'`` for the integer
    parameter ``J'`` (row-major flat ``m x n`` ``jflat``).

    - A vector ``v`` packs to ``sum_t v_t 2^(w t)``, a linear map
      (Kronecker substitution).  With ``Y = X J'``, entry ``(i, k)`` of the
      bracket is ``sum_j Y_a[i][j] X_b[j][k] - Y_b[i][j] X_a[j][k]``, so it
      packs to ``sum_j C_j(Y_a) R_j(X_b) - C_j(Y_b) R_j(X_a)``, where
      ``R_j`` packs row ``j`` of ``X`` into the slots ``0..m-1`` and ``C_j``
      packs column ``j`` of ``Y`` into the slots ``i m``: slot ``i m`` times
      slot ``k`` lands in slot ``i m + k``, one for each ``(i, k)``.  Each
      operand's packs are formed once, ``C_j(Y)`` as ``sum_k J'[k][j] P_k``
      from the columns ``P_k`` of ``X`` packed at the slots ``i m``, so a
      pair costs ``2 n`` integer products.
    - Packing lemma: if every entry of two vectors is below ``2^(w-1)`` in
      absolute value, equal packings mean equal vectors.  Each entry of the
      difference ``u`` is then below ``2^w``, and ``sum_t u_t 2^(w t) = 0``
      gives ``u_0 = 0`` modulo ``2^w``, so ``u_0 = 0``, and so on up.  For
      the same reason ``_unpack`` recovers such a vector from its packing.
    - The bound: ``|[X_a, X_b]_J'| <= 2 n max|X| max|Y|``, with
      ``max|Y| <= max|X| max_j sum_k |J'[k][j]|``, and a combination of the
      operands whose coefficients have absolute sum at most ``combination``
      is at most ``combination max|X|``.  ``w`` is one more than the bit
      length of the larger, so the packing lemma holds for both.
    """
    jcols = [jflat[j::n] for j in range(n)]  # column j of J'
    max_x = max(map(abs, chain.from_iterable(xs)), default=0)
    max_y = max_x * max(sum(map(abs, jc)) for jc in jcols)
    w = max(2 * n * max_x * max_y, combination * max_x).bit_length() + 1
    packs = []  # (R_j(X), C_j(X J')) for each operand
    for x in xs:
        xcols = [_pack(x[k::m], w * m) for k in range(m)]
        rows = [_pack(x[j * m : (j + 1) * m], w) for j in range(n)]
        packs.append((rows, [sum(map(mul, jc, xcols)) for jc in jcols]))

    def pairs():
        for a, (ra, ca) in enumerate(packs):
            for b, (rb, cb) in enumerate(packs[a + 1 :], a + 1):
                yield a, b, sum(map(mul, ca, rb)) - sum(map(mul, cb, ra))

    return w, pairs()


def _pack(values, w: int) -> int:
    """``sum_t values[t] * 2^(w t)``."""
    out = 0
    for v in reversed(values):
        out = (out << w) + v
    return out


def _unpack(x: int, w: int, size: int) -> list:
    """The ``size`` balanced base-``2^w`` digits of ``x``, each in
    ``[-2^(w-1), 2^(w-1))``: the inverse of ``_pack`` on such digits."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    out = []
    for _ in range(size):
        t = x & mask
        if t >= half:
            t -= mask + 1
        out.append(t)
        x = (x - t) >> w
    return out


def _generic_parameter(rows: int, cols: int, w: int) -> Matrix:
    """The generic parameter ``J*``: the ``rows x cols`` matrix whose
    row-major entry ``p`` is ``2^(w p)``, so ``J* = sum_p 2^(w p) E_p``.

    Generic-parameter lemma: for a value ``F(J)`` linear in ``J``,
    ``F(J*) = sum_p 2^(w p) F(E_p)`` packs the values at the unit matrices
    ``E_p`` entry by entry.  So if ``F`` and ``G`` are linear in ``J`` and
    every entry of each ``F(E_p)`` and ``G(E_p)`` is below ``2^(w-1)`` in
    absolute value, the packing lemma of ``_packed_brackets`` turns
    ``F(J*) = G(J*)`` into ``F(E_p) = G(E_p)`` for every ``p``, and so, by
    linearity, into ``F(J) = G(J)`` for every ``J``: one exact evaluation
    proves the identity for the whole family.
    """
    return Matrix._raw(tuple(tuple(1 << (w * (r * cols + c)) for c in range(cols)) for r in range(rows)))


def _pair_brackets(elements: Sequence[Matrix], param: BracketParam):
    """Iterate ``(a, b, w)`` over the pairs ``a < b`` of ``elements``, with ``w``
    the row-major flat tuple of ``[x_a, x_b]_J`` (the values and entry types of
    ``bracket(...).entries``), checking shapes first.  With ``X_a = d_a x_a``
    and ``J' = d_J J`` integer, each packed ``[X_a, X_b]_J'`` of
    ``_packed_brackets`` is decoded by ``_unpack`` and divided by
    ``d_a d_b d_J``; a pair whose bracket is zero gets one shared zero tuple."""
    n, m = param.n, param.m
    if any(x.shape != (n, m) for x in elements):
        raise ShapeError(f"elements do not all match bracket space {n}x{m}")
    ints = [_integer_row(x.entries) for x in elements]
    jflat, dj = _integer_row(param.j.entries)
    w, packed = _packed_brackets([flat for flat, _ in ints], jflat, n, m)
    zero = (0,) * (n * m)

    def pairs():  # a generator of its own, so that the checks above run on the call
        for a, b, p in packed:
            if not p:
                yield a, b, zero
                continue
            v, den = _unpack(p, w, n * m), ints[a][1] * ints[b][1] * dj
            yield a, b, tuple(scalar_div(x, den) for x in v)

    return pairs()


def basis_matrices(n: int, m: int):
    """All ``n*m`` canonical basis matrices in linear order."""
    return tuple(Matrix.unit(n, m, i, j) for i in range(n) for j in range(m))


def _checked_table(dim: int, table: dict) -> dict:
    """``table`` without its empty pairs, once every pair ``(a, b)`` is
    checked for ``0 <= a < b < dim`` and every target ``k`` for
    ``0 <= k < dim``: the one table check of ``StructureConstants`` and
    ``deform.EpsStructureConstants``, each of which drops its zero terms
    first."""
    for (a, b), terms in table.items():
        if not (0 <= a < b < dim):
            raise ValueError(f"pair ({a}, {b}) must satisfy 0 <= a < b < dim")
        for k in terms:
            if not (0 <= k < dim):
                raise ValueError(f"target index {k} out of range")
    return {pair: terms for pair, terms in table.items() if terms}


def _table_json(dim: int, table: dict, body) -> dict:
    """The JSON form of a checked table, pairs and targets sorted: each term
    is ``{"k": k}`` followed by ``body(value)``, the one writer of
    ``StructureConstants`` and ``deform.EpsStructureConstants``."""
    brackets = [
        {"i": a, "j": b, "terms": [{"k": k, **body(terms[k])} for k in sorted(terms)]}
        for (a, b), terms in sorted(table.items())
    ]
    return {"dim": dim, "brackets": brackets}


class StructureConstants:
    """Sparse antisymmetric tensor ``c_{a,b}^k`` over a d-dimensional basis.

    Only pairs with ``a < b`` are stored; ``[x_b, x_a]`` reads as the
    negation, so antisymmetry cannot drift.  ``table`` maps ``(a, b)`` to a
    sparse ``{k: coefficient}`` dict with no zero coefficients.
    """

    __slots__ = ("dim", "table")

    def __init__(self, dim: int, table: Dict[Tuple[int, int], Dict[int, Scalar]]):
        kept = {pair: {k: v for k, v in terms.items() if v != 0} for pair, terms in table.items()}
        self.dim = dim
        self.table = _checked_table(dim, kept)

    @classmethod
    def _trusted(cls, dim: int, table: Dict[Tuple[int, int], Dict[int, Scalar]]) -> "StructureConstants":
        # Internal: ``table`` is already what ``__init__`` keeps (keys a < b,
        # targets in range, no empty or zero terms); it is not copied.
        self = object.__new__(cls)
        self.dim = dim
        self.table = table
        return self

    def bracket_basis(self, a: int, b: int) -> Dict[int, Scalar]:
        """Sparse expansion of ``[x_a, x_b]``; handles either index order."""
        if a == b:
            return {}
        if a < b:
            return dict(self.table.get((a, b), ()))
        return {k: -v for k, v in self.table.get((b, a), {}).items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructureConstants):
            return NotImplemented
        return self.dim == other.dim and self.table == other.table

    def __repr__(self) -> str:
        return f"StructureConstants(dim={self.dim}, pairs={len(self.table)})"

    def to_json(self) -> dict:
        return _table_json(self.dim, self.table, lambda v: {"coef": scalar_str(v)})

    @classmethod
    def from_json(cls, obj: dict) -> "StructureConstants":
        """The inverse of ``to_json``.  ``dim`` and every index ``i``, ``j``
        and ``k`` must be a JSON integer: a boolean or a float is refused.
        ``brackets`` must be a list of objects, and so must each entry's
        ``terms``, every term with both ``k`` and ``coef``; any other missing
        key raises ``KeyError``.  A pair listed twice, or a target listed
        twice in one pair's terms, is refused: it would have two readings."""

        def index(value):
            if type(value) is not int:
                raise ValueError(f'"dim", "i", "j" and "k" must be integers, got {value!r}')
            return value

        dim = index(obj["dim"])
        brackets = obj["brackets"]
        if type(brackets) is not list or not all(type(entry) is dict for entry in brackets):
            raise ValueError('"brackets" must be a list of objects, each with "i", "j" and "terms"')
        table = {}
        for entry in brackets:
            terms = entry["terms"]
            if type(terms) is not list or not all(type(t) is dict and "k" in t and "coef" in t for t in terms):
                raise ValueError('"terms" must be a list of objects, each with "k" and "coef"')
            row = {index(t["k"]): to_scalar(t["coef"]) for t in terms}
            pair = (index(entry["i"]), index(entry["j"]))
            if pair in table:
                raise ValueError(f"pair {pair} is listed twice")
            if len(row) < len(terms):
                raise ValueError(f"pair {pair} lists a target twice in its terms")
            table[pair] = row
        return cls(dim, table)


def _unit_rule(param: BracketParam):
    """The walk of the unit rule: yield ``(a, b0, t, c)`` for each nonzero
    entry ``c = J[x][y]`` (0-based) of the parameter and each basis index
    ``a = (i, x)``, where ``b0 = (y, 0)`` and ``t = (i, 0)`` in the
    row-major basis.  It stands for the ``m`` terms
    ``T(a, b0 + l) = c E_(t + l)``, ``l < m``.

    Unit-rule lemma: ``E_(i,x) J E_(y,l) = J[x][y] E_(i,l)``, so
    ``[E_(i,x), E_(y,l)]_J = J[x][y] E_(i,l) - J[l][i] E_(y,x)``.  With
    ``T((i,x), (y,l)) = J[x][y] E_(i,l)`` the bracket of two basis matrices
    is ``[E_a, E_b] = T(a, b) - T(b, a)``, and basis coordinates are matrix
    entries.  ``T(a, b)`` is nonzero only at a nonzero entry of ``J``, so
    the walk visits each nonzero ``T(a, b)`` once, at a cost of
    ``nnz(J) * n * m``.  For ``a != b`` the two terms of ``[E_a, E_b]``
    have distinct targets ``(i, l) != (y, x)``, since ``(i, x) != (y, l)``;
    for ``a = b`` they cancel.  Each constant is thus plus or minus one
    entry of ``J``, and the table and the adjoint read off the walk are
    linear in ``J``.
    """
    m, d = param.m, param.dim
    for x, row in enumerate(param.j._data):
        for y, c in enumerate(row):
            if c:
                for a in range(x, d, m):
                    yield a, y * m, a - x, c


def structure_constants(param: BracketParam) -> StructureConstants:
    """Expand the bracket of every canonical basis pair, by the unit-rule
    lemma of ``_unit_rule``: ``T(a, b)`` is the first term of the pair
    ``(a, b)`` when ``a < b`` and the second term of ``(b, a)`` when
    ``a > b``.  Pairs are stored in increasing order, each with its first
    term ahead of its second.  The contraction and path checks of ``deform``
    read their basis-pair brackets off this table, and the coboundary check
    its right side.
    """
    m, d = param.m, param.dim
    terms_at: Dict[int, Dict[int, Scalar]] = {}  # a * d + b -> the terms of [x_a, x_b], a < b
    for a, b0, t, c in _unit_rule(param):
        for b in range(b0, b0 + m):
            if a < b:  # the first term of (a, b), put ahead of a second term already there
                key = a * d + b
                terms = terms_at.get(key)
                terms_at[key] = {t: c} if terms is None else {t: c, **terms}
            elif a > b:  # the second term of (b, a)
                terms_at.setdefault(b * d + a, {})[t] = -c
            t += 1
    return StructureConstants._trusted(d, {divmod(key, d): terms_at[key] for key in sorted(terms_at)})
