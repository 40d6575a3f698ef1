"""The middle-parameter bracket on rectangular matrix spaces.

For operands ``A, B`` in ``Mat(n x m)`` and a parameter ``J`` in
``Mat(m x n)``, the product ``A*J*B`` is associative, so

    [A, B]_J = A*J*B - B*J*A

is a Lie bracket for every fixed ``J``; the family is linear in ``J`` and
``J = 0`` gives the abelian algebra.  This module evaluates the bracket, its
block form under a rank normal form, and compiles any parameter into the
sparse structure-constants tensor over the canonical basis ``E_{i,j}``
ordered row-major: ``E_{i,j} -> (i-1)*m + (j-1)`` (1-based ``i, j``).  The
``deform`` checks read basis-pair brackets off ``structure_constants``;
every other loop over pairs of elements brackets through ``_pair_brackets``,
one kernel on integers that builds no intermediate matrix.  The Lie-axiom
check's model-constants comparison ties the two together.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Dict, Optional, Sequence, Tuple

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
    """Iterate ``(a, b, [x_a, x_b]_J)`` over the pairs ``a < b`` of ``elements``
    with the values and entry types of ``bracket``, checking shapes first.  With
    ``X_a = d_a x_a`` and ``J' = d_J J`` integer and each ``X_a J'`` formed once
    (``None`` for a zero row), entry ``(i, k)`` is the integer dot products
    ``(X_a J')_i . (X_b)_{:,k} - (X_b J')_i . (X_a)_{:,k}`` over ``d_a d_b d_J``."""
    n, m = param.n, param.m
    if any(x.shape != (n, m) for x in elements):
        raise ShapeError(f"elements do not all match bracket space {n}x{m}")
    jflat, dj = _integer_row(param.j.entries)
    jcols = [jflat[c::n] for c in range(n)]
    ints = []  # (d_a, columns of X_a, rows of X_a J') for each element
    for x in elements:
        flat, d = _integer_row(x.entries)
        xj = ([sum(map(mul, flat[i * m : (i + 1) * m], jc)) for jc in jcols] for i in range(n))
        ints.append((d, [flat[k::m] for k in range(m)], [r if any(r) else None for r in xj]))

    def pairs():  # a generator of its own, so that the checks above run on the call
        for a, (da, ca, xa) in enumerate(ints):
            for b, (db, cb, xb) in enumerate(ints[a + 1 :], a + 1):
                den = da * db * dj
                out = []
                for ra, rb in zip(xa, xb):
                    if ra is None and rb is None:
                        out.append((0,) * m)
                        continue
                    s = [(sum(map(mul, ra, c)) if ra else 0) - (sum(map(mul, rb, e)) if rb else 0)
                         for c, e in zip(cb, ca)]
                    out.append(tuple(s) if den == 1 else tuple(scalar_div(v, den) for v in s))
                yield a, b, Matrix._raw(tuple(out))

    return pairs()


def block_bracket(a_blocks, b_blocks, r: int):
    """Bracket under the rank-r normal-form parameter, block by block.

    Blocks are (top-left, bottom-left, top-right, bottom-right) split at
    ``r`` in both directions.  ``None`` stands for a zero block (including
    blocks of zero extent, which ``matrices.join_blocks`` skips); sizes are
    inferred from whichever side carries data.  Returns the blocks of
    the bracket in the same order:

        ([A1, B1], A2 B1 - B2 A1, A1 B3 - B1 A3, A2 B3 - B2 A3)

    The bottom-right operand blocks never enter.
    """
    a1, a2, a3, a4 = a_blocks
    b1, b2, b3, b4 = b_blocks
    nr = next((blk.rows for blk in (a2, b2, a4, b4) if blk is not None), 0)
    mr = next((blk.cols for blk in (a3, b3, a4, b4) if blk is not None), 0)
    expectations = (
        ("top-left", (a1, b1), (r, r)),
        ("bottom-left", (a2, b2), (nr, r)),
        ("top-right", (a3, b3), (r, mr)),
        ("bottom-right", (a4, b4), (nr, mr)),
    )
    for name, pair, want in expectations:
        for blk in pair:
            if blk is not None and blk.shape != want:
                raise ShapeError(
                    f"{name} block has shape {blk.rows}x{blk.cols}, expected {want[0]}x{want[1]}"
                )
    c1 = _pair(a1, b1, b1, a1, r, r)
    c2 = _pair(a2, b1, b2, a1, nr, r)
    c3 = _pair(a1, b3, b1, a3, r, mr)
    c4 = _pair(a2, b3, b2, a3, nr, mr)
    return (c1, c2, c3, c4)


def _pair(x, y, u, v, out_rows: int, out_cols: int) -> Optional[Matrix]:
    """x @ y - u @ v where any factor may be an absent (None) block."""
    if out_rows == 0 or out_cols == 0:
        return None
    first = None if (x is None or y is None) else x @ y
    second = None if (u is None or v is None) else u @ v
    if first is None and second is None:
        return Matrix.zeros(out_rows, out_cols)
    if first is None:
        return -second
    if second is None:
        return first
    return first - second


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

    def bracket_basis(self, a: int, b: int) -> Dict[int, Scalar]:
        """Sparse expansion of ``[x_a, x_b]``; handles either index order."""
        if a == b:
            return {}
        if a < b:
            return dict(self.table.get((a, b), ()))
        return {k: -v for k, v in self.table.get((b, a), {}).items()}

    def bracket_coords(self, x, y) -> tuple:
        """Bilinear expansion of ``[x, y]`` for dense coordinate vectors."""
        out = [0] * self.dim
        for (a, b), terms in self.table.items():
            c = x[a] * y[b] - x[b] * y[a]
            if c != 0:
                for k, v in terms.items():
                    out[k] += c * v
        return tuple(out)

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

    On basis matrices the bracket collapses to two terms:
    ``[E_{i,j}, E_{k,l}]_J = J[j,k] E_{i,l} - J[l,i] E_{k,j}``
    (0-based entries of ``J``); basis coordinates are just matrix entries.
    This is the one source of basis-pair brackets: the contraction, path and
    coboundary checks of ``deform`` read their brackets off this table.
    """
    n, m, j = param.n, param.m, param.j
    table: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    for a in range(n * m):
        i, jj = divmod(a, m)
        for b in range(a + 1, n * m):
            k, ll = divmod(b, m)
            terms: Dict[int, Scalar] = {}
            c1 = j._data[jj][k]
            if c1 != 0:
                terms[i * m + ll] = terms.get(i * m + ll, 0) + c1
            c2 = j._data[ll][i]
            if c2 != 0:
                t = k * m + jj
                terms[t] = terms.get(t, 0) - c2
            terms = {kk: v for kk, v in terms.items() if v != 0}
            if terms:
                table[(a, b)] = terms
    return StructureConstants(n * m, table)
