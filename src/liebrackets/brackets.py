"""The middle-parameter bracket on rectangular matrix spaces.

For operands ``A, B`` in ``Mat(n x m)`` and a parameter ``J`` in
``Mat(m x n)``, the product ``A*J*B`` is associative, so

    [A, B]_J = A*J*B - B*J*A

is a Lie bracket for every fixed ``J``; the family is linear in ``J`` and
``J = 0`` gives the abelian algebra.  This module evaluates the bracket and
compiles any parameter into the sparse structure-constants tensor over the
canonical basis ``E_{i,j}`` ordered row-major: ``E_{i,j} -> (i-1)*m + (j-1)``
(1-based ``i, j``), at a cost that grows with the nonzero entries of ``J``,
not with the basis pairs.
The ``deform`` checks read basis-pair brackets off ``structure_constants``;
the other pair loops go through ``_pair_brackets``, one integer kernel that
builds no intermediate matrix, except ``algebra.hom_check``, which packs
each side of a pair into one integer, and ``algebra.subalgebra_closed``.
The Lie-axiom check's model-constants comparison ties the two together.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Dict, Sequence, Tuple

from .matrices import Matrix, ShapeError, _integer_row, rank_normal_form
from .scalars import Scalar, scalar_div, scalar_str, to_scalar


@dataclass(frozen=True)
class BracketParam:
    """Operand shape ``n x m`` plus the ``m x n`` middle parameter."""

    n: int
    m: int
    j: Matrix

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ShapeError(f"invalid operand shape {self.n}x{self.m}")
        if self.j.shape != (self.m, self.n):
            raise ShapeError(
                f"parameter must be {self.m}x{self.n} for operands {self.n}x{self.m}, "
                f"got {self.j.rows}x{self.j.cols}"
            )

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


def _pair_brackets(elements: Sequence[Matrix], param: BracketParam):
    """Iterate ``(a, b, w)`` over the pairs ``a < b`` of ``elements``, with ``w``
    the row-major flat tuple of ``[x_a, x_b]_J`` (the values and entry types of
    ``bracket(...).entries``), checking shapes first.  With ``X_a = d_a x_a``
    and ``J' = d_J J`` integer and each ``X_a J'`` formed once (``None`` for a
    zero row), entry ``(i, k)`` is the integer dot products
    ``(X_a J')_i . (X_b)_{:,k} - (X_b J')_i . (X_a)_{:,k}`` over ``d_a d_b d_J``.
    A pair whose two ``X J'`` are both zero gets one shared zero tuple without
    any dot product."""
    n, m = param.n, param.m
    if any(x.shape != (n, m) for x in elements):
        raise ShapeError(f"elements do not all match bracket space {n}x{m}")
    jflat, dj = _integer_row(param.j.entries)
    jcols = [jflat[c::n] for c in range(n)]
    ints = []  # (d_a, columns of X_a, rows of X_a J' or None if all zero) for each element
    for x in elements:
        flat, d = _integer_row(x.entries)
        xj = ([sum(map(mul, flat[i * m : (i + 1) * m], jc)) for jc in jcols] for i in range(n))
        rows = [r if any(r) else None for r in xj]
        ints.append((d, [flat[k::m] for k in range(m)], rows if any(rows) else None))
    zero_row = (0,) * m
    zero = zero_row * n
    no_rows = (None,) * n

    def pairs():  # a generator of its own, so that the checks above run on the call
        for a, (da, ca, xa) in enumerate(ints):
            for b, (db, cb, xb) in enumerate(ints[a + 1 :], a + 1):
                if xa is None and xb is None:
                    yield a, b, zero
                    continue
                den = da * db * dj
                out = []
                for ra, rb in zip(xa or no_rows, xb or no_rows):
                    if ra is None and rb is None:
                        out.extend(zero_row)
                        continue
                    s = [(sum(map(mul, ra, c)) if ra else 0) - (sum(map(mul, rb, e)) if rb else 0)
                         for c, e in zip(cb, ca)]
                    out.extend(s if den == 1 else (scalar_div(v, den) for v in s))
                yield a, b, tuple(out)

    return pairs()


def basis_matrices(n: int, m: int):
    """All ``n*m`` canonical basis matrices in linear order."""
    return tuple(Matrix.unit(n, m, i, j) for i in range(n) for j in range(m))


class StructureConstants:
    """Sparse antisymmetric tensor ``c_{a,b}^k`` over a d-dimensional basis.

    Only pairs with ``a < b`` are stored; ``[x_b, x_a]`` reads as the
    negation, so antisymmetry cannot drift.  ``table`` maps ``(a, b)`` to a
    sparse ``{k: coefficient}`` dict with no zero coefficients.
    """

    __slots__ = ("dim", "table")

    def __init__(self, dim: int, table: Dict[Tuple[int, int], Dict[int, Scalar]]):
        clean = {}
        for (a, b), terms in table.items():
            if not (0 <= a < b < dim):
                raise ValueError(f"pair ({a}, {b}) must satisfy 0 <= a < b < dim")
            kept = {k: v for k, v in terms.items() if v != 0}
            for k in kept:
                if not (0 <= k < dim):
                    raise ValueError(f"target index {k} out of range")
            if kept:
                clean[(a, b)] = kept
        self.dim = dim
        self.table = clean

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
        brackets = []
        for (a, b) in sorted(self.table):
            terms = self.table[(a, b)]
            brackets.append(
                {
                    "i": a,
                    "j": b,
                    "terms": [{"k": k, "coef": scalar_str(terms[k])} for k in sorted(terms)],
                }
            )
        return {"dim": self.dim, "brackets": brackets}

    @classmethod
    def from_json(cls, obj: dict) -> "StructureConstants":
        table = {}
        for entry in obj["brackets"]:
            table[(entry["i"], entry["j"])] = {
                t["k"]: to_scalar(t["coef"]) for t in entry["terms"]
            }
        return cls(obj["dim"], table)


def structure_constants(param: BracketParam) -> StructureConstants:
    """Expand the bracket of every canonical basis pair.

    With ``T((i,x), (y,l)) = J[x][y] E_(i,l)`` (0-based entries of ``J``) the
    bracket of two basis matrices is ``[E_a, E_b] = T(a, b) - T(b, a)``;
    basis coordinates are just matrix entries.  Each ordered pair ``(a, b)``
    takes one entry of ``J``, so the walk visits only the nonzero entries of
    ``J``, at a cost of ``nnz(J) * n * m``: ``T(a, b)`` is the first term of
    the pair ``(a, b)`` when ``a < b`` and the second term of ``(b, a)`` when
    ``a > b``.  Pairs are stored in increasing order, each with its first
    term ahead of its second (two distinct targets, since ``a != b``).
    This is the one source of basis-pair brackets: the contraction, path and
    coboundary checks of ``deform`` read their brackets off this table.
    """
    m, d = param.m, param.dim
    first: Dict[int, Scalar] = {}  # a * d + b -> J-entry of T(a, b), a < b
    second: Dict[int, Scalar] = {}  # a * d + b -> J-entry of T(b, a), a < b
    for x, row in enumerate(param.j._data):
        for y, c in enumerate(row):
            if c == 0:
                continue
            for a in range(x, d, m):  # a = (i, x)
                for b in range(y * m, y * m + m):  # b = (y, l)
                    if a < b:
                        first[a * d + b] = c
                    elif a > b:
                        second[b * d + a] = c
    table: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    for key in sorted(first.keys() | second.keys()):
        a, b = divmod(key, d)
        terms: Dict[int, Scalar] = {}
        c = first.get(key)
        if c is not None:
            terms[a - a % m + b % m] = c  # E_(i, l) for a = (i, x), b = (y, l)
        c = second.get(key)
        if c is not None:
            terms[b - b % m + a % m] = -c  # E_(y, x)
        table[(a, b)] = terms
    return StructureConstants._trusted(d, table)
