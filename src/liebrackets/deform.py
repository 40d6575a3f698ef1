"""Contractions, the deformation path, and the coboundary identity.

The ordinary commutator algebra on square matrices degenerates to the
rank-r bracket algebra along an epsilon-scaled change of basis: scale
``E_{i,j}`` by 1, epsilon or epsilon^2 according to how the indices sit
relative to ``r``, and let epsilon go to 0.  A contraction is a rescaling
of the basis, so each constant of the commutator becomes one monomial in
epsilon, kept as an exact ``(coefficient, exponent)`` pair: the limit is
exponent truncation and a divergent contraction is detected rather than
silently wrong.

In the other direction the straight-line path ``(1-t) I + t J`` of
parameters deforms the commutator into the rank-r bracket; for ``t < 1``
the column-scaling transport map makes the two isomorphic, and the bracket
with any parameter is a 2-coboundary of the commutator's adjoint action.

Every basis-pair bracket here is read off ``brackets.structure_constants``:
the contraction rescales its table, and both identity checks scale each
side to integers once and compare the tables pair by pair, with no matrix
product, scaling or inverse transport inside the pair loop.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from .algebra import Verdict
from .brackets import BracketParam, StructureConstants, basis_matrices, structure_constants
from .matrices import Matrix, ShapeError, _canonical, _integer_row, rank_normal_form
from .scalars import Scalar, scalar_div, scalar_str, to_scalar


class ContractionDivergenceError(ValueError):
    """A negative epsilon-exponent made the contraction limit undefined."""

    def __init__(self, message: str, triple: tuple):
        super().__init__(message)
        self.triple = triple


class EpsStructureConstants:
    """Structure constants in the epsilon-scaled basis: every coefficient is
    one monomial ``coef * epsilon^exp``, stored as the pair ``(coef, exp)``;
    pairs stored for i < j only, like ``StructureConstants``."""

    __slots__ = ("dim", "table")

    def __init__(self, dim: int, table: Dict[Tuple[int, int], Dict[int, Tuple[Scalar, int]]]):
        clean = {}
        for (a, b), terms in table.items():
            if not (0 <= a < b < dim):
                raise ValueError(f"pair ({a}, {b}) must satisfy 0 <= a < b < dim")
            kept = {k: v for k, v in terms.items() if v[0] != 0}
            if kept:
                clean[(a, b)] = kept
        self.dim = dim
        self.table = clean

    def to_json(self) -> dict:
        out = []
        for (a, b) in sorted(self.table):
            terms = [
                {"k": k, "laurent": [{"exp": exp, "coef": scalar_str(coef)}]}
                for k, (coef, exp) in sorted(self.table[(a, b)].items())
            ]
            out.append({"i": a, "j": b, "terms": terms})
        return {"dim": self.dim, "brackets": out}


def contraction_constants(n: int, r: int) -> EpsStructureConstants:
    """Ordinary-commutator constants in the scaled basis.

    Basis element ``(i, j)`` (0-based) is scaled by epsilon^s with
    ``s(i, j) = [i >= r] + [j >= r]``, so a constant ``c`` of ``[E_a, E_b]``
    on ``E_k`` becomes ``c`` epsilon^(s(a) + s(b) - s(k)).  The constants
    are read off ``structure_constants`` of the commutator; every exponent
    is ``2 [j >= r]`` or ``2 [i >= r]``, both nonnegative.
    """
    if not (0 <= r <= n):
        raise ValueError(f"rank {r} out of range for size {n}")
    s = [(i >= r) + (j >= r) for i in range(n) for j in range(n)]
    table = structure_constants(BracketParam.commutator(n)).table
    scaled = {(a, b): {k: (c, s[a] + s[b] - s[k]) for k, c in terms.items()} for (a, b), terms in table.items()}
    return EpsStructureConstants(n * n, scaled)


def contraction_limit(c: EpsStructureConstants) -> StructureConstants:
    """Keep the epsilon^0 coefficients; fail hard on any negative exponent."""
    table: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    for (a, b), terms in c.table.items():
        for k, (_, exp) in terms.items():
            if exp < 0:
                raise ContractionDivergenceError(
                    f"coefficient of basis {k} in [{a}, {b}] has epsilon exponent {exp}", (a, b, k)
                )
        table[(a, b)] = {k: coef for k, (coef, exp) in terms.items() if exp == 0}
    return StructureConstants(c.dim, table)


def deformation_bracket(n: int, j: Matrix, t) -> BracketParam:
    """Bracket parameter ``(1-t) I + t j`` on square matrices of size n, for
    an exact rational ``t`` in ``[0, 1]``."""
    t = to_scalar(t)
    if j.shape != (n, n):
        raise ShapeError(f"parameter must be {n}x{n}, got {j.shape}")
    if not (0 <= t <= 1):
        raise ValueError(f"path time must lie in [0, 1], got {t}")
    return BracketParam(n, n, (1 - t) * Matrix.identity(n) + t * j)


def psi_t(x: Matrix, t, r: int) -> Matrix:
    """Scale columns r+1..n of a square matrix by (1 - t).

    This is the transport that exhibits the deformed bracket at `t` as
    isomorphic to the ordinary commutator whenever t != 1.
    """
    t = to_scalar(t)
    if x.rows != x.cols:
        raise ShapeError(f"expected a square matrix, got {x.rows}x{x.cols}")
    if not (0 <= r <= x.rows):
        raise ShapeError(f"split index {r} out of range for size {x.rows}")
    scale = 1 - t
    rows = tuple(tuple(v * scale if c >= r else v for c, v in enumerate(row)) for row in x._data)
    return Matrix._raw(_canonical(rows))


def psi_t_inverse(x: Matrix, t, r: int) -> Matrix:
    """Inverse of the column scaling, ``psi_t`` at the time ``s`` with
    ``1 - s = 1 / (1 - t)``; undefined (singular) at t = 1."""
    t = to_scalar(t)
    if t == 1:
        raise ZeroDivisionError("the transport map is singular at t = 1")
    return psi_t(x, 1 - scalar_div(1, 1 - t), r)


# Sample times of the deformation path: both endpoints and three interior points.
PATH_TIMES = (0, Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), 1)


def path_identities(n: int, r: int, t) -> Dict[str, bool]:
    """Check the path identities at time ``t`` on every basis pair of ``Mat(n x n)``.

    With ``J_t = (1-t) I + t J_r`` and ``J_r`` the rank-r normal form:

    * ``decomposition``: ``[A, B]_{J_t} = [A, B] + t [A, B]_{J_r - I}``;
    * ``transport`` (only for ``t != 1``):
      ``psi_t([A, B]_{J_t}) = [psi_t A, psi_t B]``, that is
      ``[A, B]_{J_t} = psi_t^-1([psi_t A, psi_t B])``, as ``psi_t`` is
      invertible for ``t != 1``.

    Both identities are read off basis-pair brackets: with ``t = p/q``, the
    tables ``structure_constants`` gives for ``q J_t``, ``I`` and
    ``J_r - I`` are compared pair by pair on integers.  ``psi_t`` scales
    columns, so ``q psi_t(E_(i,c)) = w_c E_(i,c)`` with ``w`` the diagonal of
    ``q psi_t(I)``; for units ``E_a = E_(i,c)`` and ``E_b = E_(k,d)`` the
    transport identity times ``q^2`` reads
    ``w_l (q [E_a, E_b]_{J_t})_(x,l) = w_c w_d [E_a, E_b]_(x,l)``.

    The identities in ``t``: multiplied through by ``psi_t`` as above, each
    entry of the transport identity is a polynomial of degree at most 2 in
    ``t`` (``psi_t`` and ``J_t`` are affine in ``t``), and the decomposition
    identity is affine in ``t``.  A polynomial of degree at most 2 that
    vanishes at three distinct points is zero (N. Alon, "Combinatorial
    Nullstellensatz", 1999, Lemma 2.1), so passing at three distinct
    ``t != 1`` proves both identities for every ``t != 1``.
    """
    t = to_scalar(t)
    p, q = t.numerator, t.denominator
    jr = rank_normal_form(n, n, r)
    params = (deformation_bracket(n, jr, t).j * q, Matrix.identity(n), jr - Matrix.identity(n))
    lhs, comm, shift = (structure_constants(BracketParam(n, n, j)).table for j in params)
    w = (psi_t(Matrix.identity(n), t, r) * q).entries[:: n + 1]  # the diagonal
    decomposition = transport = True
    for a, b in lhs.keys() | comm.keys() | shift.keys():
        x, y, z = lhs.get((a, b), {}), comm.get((a, b), {}), shift.get((a, b), {})
        for k in x.keys() | y.keys() | z.keys():
            v, c = x.get(k, 0), y.get(k, 0)
            decomposition = decomposition and v == q * c + p * z.get(k, 0)
            transport = transport and v * w[k % n] == w[a % n] * w[b % n] * c
    verdicts = {"decomposition": decomposition}
    if t != 1:
        verdicts["transport"] = transport
    return verdicts


def alpha_coboundary(x: Matrix, j: Matrix) -> Matrix:
    """The potential ``(x j + j x) / 2`` whose coboundary is the j-bracket."""
    if x.shape != j.shape or x.rows != x.cols:
        raise ShapeError(f"need equal square shapes, got {x.shape} and {j.shape}")
    s = x @ j + j @ x
    return s * scalar_div(1, 2)


def ce_coboundary_check(j: Matrix, n: int):
    """Verify ``[A, a(B)] - [B, a(A)] - a([A, B]) = [A, B]_j`` on basis pairs.

    Unsubscripted brackets are ordinary commutators; the identity shows the
    j-bracket is a 2-coboundary for the commutator's adjoint action.

    Both sides are scaled by ``2 d_J``, with ``d_J`` the lcm of the
    denominators of ``j``, and compared entry by entry on integers.  ``a`` is
    formed once per basis element.  For a unit ``A = E_(i,k)``, ``A M``
    copies row k of ``M`` into row i and ``M A`` copies column i of ``M``
    into column k, so the two commutators take no product; ``[A, B]`` and
    the right side are read off the ``structure_constants`` tables of ``I``
    and of the integer parameter ``d_J j``, and ``a([A, B])`` is the sum of
    the ``a`` of the units over the entries of ``[A, B]``.
    """
    if j.shape != (n, n):
        raise ShapeError(f"parameter must be {n}x{n}, got {j.rows}x{j.cols}")
    dj = _integer_row(j.entries)[1]
    scale = 2 * dj
    alphas = [[to_scalar(scale * v) for v in alpha_coboundary(x, j).entries] for x in basis_matrices(n, n)]
    comm, rhs = (structure_constants(BracketParam(n, n, m)).table for m in (Matrix.identity(n), j * dj))
    for a in range(n * n):
        for b in range(a + 1, n * n):
            (i, k), (p, q) = divmod(a, n), divmod(b, n)
            alpha_a, alpha_b = alphas[a], alphas[b]
            lhs = [0] * (n * n)
            for c in range(n):  # [A, a(B)] - [B, a(A)]
                lhs[i * n + c] += alpha_b[k * n + c]
                lhs[c * n + k] -= alpha_b[c * n + i]
                lhs[p * n + c] -= alpha_a[q * n + c]
                lhs[c * n + q] += alpha_a[c * n + p]
            for e, v in comm.get((a, b), {}).items():  # - a([A, B])
                for f, w in enumerate(alphas[e]):
                    lhs[f] -= v * w
            want = [0] * (n * n)
            for e, v in rhs.get((a, b), {}).items():
                want[e] = v + v
            if lhs != want:
                coboundary, bracket = (Matrix.from_flat(n, n, x) * Fraction(1, scale) for x in (lhs, want))
                return Verdict(False, {"pair": [a, b], "coboundary": str(coboundary), "bracket": str(bracket)})
    return Verdict(True)
