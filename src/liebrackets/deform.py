"""Contractions, the deformation path, and the coboundary identity.

The ordinary commutator algebra on square matrices degenerates to the
rank-r bracket algebra along an epsilon-scaled change of basis
(``contraction_constants``, ``contraction_limit``), and the straight-line
path ``(1-t) I + t J_r`` of parameters deforms it into that algebra, with
every point below ``t = 1`` isomorphic to the commutator
(``path_identities``).  The bracket with any parameter is a 2-coboundary of
the commutator's adjoint action (``ce_coboundary_check``).  No pair loop
here takes a matrix product: the brackets are read off
``brackets.structure_constants``, or, in ``ce_coboundary_check``, by the
unit-rule lemma of ``brackets._unit_rule``.
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
    an exact rational ``t`` in ``[0, 1]``, written entry by entry: ``t j``
    is taken only at the nonzero entries of ``j``, and ``1 - t`` is added on
    the diagonal, so no matrix is scaled as a whole."""
    t = to_scalar(t)
    if j.shape != (n, n):
        raise ShapeError(f"parameter must be {n}x{n}, got {j.shape}")
    if not (0 <= t <= 1):
        raise ValueError(f"path time must lie in [0, 1], got {t}")
    s = 1 - t
    rows = tuple(
        tuple((t * v if v else 0) + (s if c == i else 0) for c, v in enumerate(row))
        for i, row in enumerate(j._data)
    )
    return BracketParam(n, n, Matrix._raw(_canonical(rows)))


def psi_t(x: Matrix, t, r: int) -> Matrix:
    """Scale columns r+1..n of a square matrix by (1 - t).

    For t != 1 this transport is invertible and maps the deformed bracket
    at `t` isomorphically onto the ordinary commutator; ``path_identities``
    checks both, the nonzero column weights and the bracket identity.
    """
    t = to_scalar(t)
    if x.rows != x.cols:
        raise ShapeError(f"expected a square matrix, got {x.rows}x{x.cols}")
    if not (0 <= r <= x.rows):
        raise ShapeError(f"split index {r} out of range for size {x.rows}")
    scale = 1 - t
    rows = tuple(tuple(v * scale if c >= r and v else v for c, v in enumerate(row)) for row in x._data)
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
    * ``transport`` (only for ``t != 1``): ``psi_t`` is invertible and
      ``psi_t([A, B]_{J_t}) = [psi_t A, psi_t B]``.

    Transport lemma: if ``psi_t`` is invertible and the bracket identity holds
    on basis pairs, then ``psi_t`` is an isomorphism from the ``J_t``-bracket
    onto ``gl(n)``.  Both sides of the identity are bilinear in ``(A, B)``, so
    it holds on every pair, and an invertible linear map that preserves
    brackets is an isomorphism.

    Both identities are read off basis-pair brackets: with ``t = p/q``, the
    tables ``structure_constants`` gives for ``q J_t``, ``I`` and
    ``J_r - I`` are compared pair by pair on integers.  This is the integer
    path: ``q J_t`` is formed entry by entry from the nonzero entries of
    ``deformation_bracket``, and ``w`` from the diagonal of ``psi_t(I)``
    alone, so no matrix is scaled by a ``Fraction``.  ``psi_t`` scales
    columns, so ``q psi_t(E_(i,c)) = w_c E_(i,c)`` with ``w`` the diagonal of
    ``q psi_t(I)``; for units ``E_a = E_(i,c)`` and ``E_b = E_(k,d)`` the
    transport identity times ``q^2`` reads
    ``w_l (q [E_a, E_b]_{J_t})_(x,l) = w_c w_d [E_a, E_b]_(x,l)``, and
    ``psi_t`` is invertible iff every weight ``w_c`` is nonzero, which the
    verdict also requires (each ``w_c`` is ``q`` or ``q - p``).

    Generic-time lemma: one exact evaluation, at ``t* = 1/2^W``, proves both
    identities for every ``t``.  ``structure_constants`` is linear in ``J``,
    so the table of ``q J_t = q I + p (J_r - I)`` has the constants
    ``v = q c + p z``, with ``c`` and ``z`` those of ``T(I)`` and
    ``T(J_r - I)``.  So each entry of the decomposition residual
    ``v - q c - p z`` is a linear form in ``(p, q)``, and each entry of the
    transport residual ``w_l v - w_c w_d c`` a quadratic form, since every
    weight is ``q`` or ``q - p``.  With ``M`` (at least 1) the largest
    absolute constant of ``T(I)`` and ``T(J_r - I)``, ``w_l v`` and
    ``w_c w_d c`` each have coefficients of at most ``2 M``, so every
    coefficient of a residual is at most ``4 M``.  At ``(p, q) = (1, 2^W)``
    a residual entry ``A q^2 + B p q + C p^2`` is ``C + B 2^W + A 2^(2W)``,
    the packing of its coefficients at slot width ``W``, as the
    generic-parameter lemma of ``brackets._generic_parameter`` packs the
    values at the unit matrices; ``W = (4 M).bit_length() + 1`` puts every
    coefficient below ``2^(W-1)``, so the packing lemma of
    ``brackets._packed_brackets`` turns a zero residual at ``t*`` into zero
    coefficients, and the identities hold at every ``t``.  For ``t < 1``
    every weight ``q - p`` is nonzero, so ``psi_t`` is an isomorphism for
    every ``t < 1``.  ``_generic_time`` gives ``t*``.
    """
    t = to_scalar(t)
    return _path_identities(n, r, t, _identity_table(n), _shift_table(n, r))


def _identity_table(n: int) -> dict:
    """The ``structure_constants`` table ``T(I)`` of the commutator on
    ``Mat(n x n)``, the same for every rank ``r`` and time of the path."""
    return structure_constants(BracketParam.commutator(n)).table


def _shift_table(n: int, r: int) -> dict:
    """The ``structure_constants`` table ``T(J_r - I)``, the same for every
    time of the path."""
    return structure_constants(BracketParam(n, n, rank_normal_form(n, n, r) - Matrix.identity(n))).table


def _generic_time(comm: dict, shift: dict):
    """The generic time ``t* = 1/2^W`` of ``path_identities`` for the
    time-free tables ``comm = T(I)`` and ``shift = T(J_r - I)``, with
    ``W = (4 M).bit_length() + 1``; None if a constant is not an integer,
    where the generic-time lemma gives no bound."""
    constants = [v for table in (comm, shift) for terms in table.values() for v in terms.values()]
    if any(v.denominator != 1 for v in constants):
        return None
    m = max([1, *map(abs, constants)])
    return Fraction(1, 1 << ((4 * m).bit_length() + 1))


def _path_identities(n: int, r: int, t, comm: dict, shift: dict) -> Dict[str, bool]:
    """``path_identities(n, r, t)`` for an exact ``t``, with the time-free
    tables ``comm = _identity_table(n)`` and ``shift = _shift_table(n, r)``:
    ``deformation_bracket`` and ``psi_t`` still run at every call."""
    p, q = t.numerator, t.denominator
    jr = rank_normal_form(n, n, r)
    jt = tuple(tuple(to_scalar(q * v) if v else 0 for v in row) for row in deformation_bracket(n, jr, t).j._data)
    lhs = structure_constants(BracketParam(n, n, Matrix._raw(jt))).table
    w = [to_scalar(q * v) for v in psi_t(Matrix.identity(n), t, r).entries[:: n + 1]]  # the diagonal
    decomposition = transport = True
    for a, b in lhs.keys() | comm.keys() | shift.keys():
        x, y, z = lhs.get((a, b), {}), comm.get((a, b), {}), shift.get((a, b), {})
        for k in x.keys() | y.keys() | z.keys():
            v, c = x.get(k, 0), y.get(k, 0)
            decomposition = decomposition and v == q * c + p * z.get(k, 0)
            transport = transport and v * w[k % n] == w[a % n] * w[b % n] * c
    verdicts = {"decomposition": decomposition}
    if t != 1:
        verdicts["transport"] = transport and all(w)
    return verdicts


def alpha_coboundary(x: Matrix, j: Matrix) -> Matrix:
    """The potential ``(x j + j x) / 2`` whose coboundary is the j-bracket.

    ``x j + j x`` is formed with no matrix product, by scattering each
    nonzero entry ``v = x[i][k]``: ``x j`` gains ``v`` times row ``k`` of
    ``j`` in row ``i``, and ``j x`` gains ``v`` times column ``i`` of ``j``
    in column ``k``.  So a unit ``x``, one nonzero entry, costs one row and
    one column of ``j``.  The sum is then halved entry by entry, exact for
    any rational ``x`` and ``j``."""
    if x.shape != j.shape or x.rows != x.cols:
        raise ShapeError(f"need equal square shapes, got {x.shape} and {j.shape}")
    jrows = j._data
    s = [[0] * x.rows for _ in jrows]
    for i, row in enumerate(x._data):
        for k, v in enumerate(row):
            if v:
                out = s[i]
                for c, w in enumerate(jrows[k]):  # x j: v * row k of j
                    out[c] += v * w
                for srow, jrow in zip(s, jrows):  # j x: v * column i of j
                    srow[k] += jrow[i] * v
    return Matrix._raw(tuple(tuple(scalar_div(v, 2) for v in row) for row in s))


def ce_coboundary_check(j: Matrix, n: int):
    """Verify ``[A, a(B)] - [B, a(A)] - a([A, B]) = [A, B]_j`` on basis pairs.

    Unsubscripted brackets are ordinary commutators; the identity shows the
    j-bracket is a 2-coboundary for the commutator's adjoint action.

    Both sides are scaled by ``2 d_J``, with ``d_J`` the lcm of the
    denominators of ``j``, and compared entry by entry on integers.  ``a`` is
    formed once per basis element, by ``alpha_coboundary``; it is called, not
    inlined, so that the check judges whatever ``alpha_coboundary`` is.  The
    unit-rule lemma of ``brackets._unit_rule`` at ``J = I`` gives the rest
    with no product: for a unit ``A = E_(i,k)``, ``A M`` copies row k of
    ``M`` into row i and ``M A`` copies column i of ``M`` into column k, and
    ``a([A, B])`` is a difference of the ``a`` of two units.  Only the right
    side is read off a table, the ``structure_constants`` of the integer
    parameter ``d_J j``.

    Coboundary-bound lemma: both sides are linear in ``j`` when
    ``alpha_coboundary`` is, and at a unit ``j`` every entry of either side,
    scaled by 2, is at most 12 in absolute value, below ``2^5``.  With ``|M|``
    the sum of the absolute entries of ``M``, a product with a unit matrix
    gives ``|X E| <= |X|``, so ``|2 alpha(X)| = |X J + J X| <= 2 |X|`` and
    ``|[A, M]| <= 2 |M|`` for a unit ``A``.  For units ``A`` and ``B`` then
    ``|[A, 2 alpha(B)]| <= 4``, ``|[B, 2 alpha(A)]| <= 4`` and
    ``|2 alpha([A, B])| <= 2 |[A, B]| <= 4``, so the left side is at most 12,
    and ``|2 [A, B]_J| <= 4`` on the right.  So by the generic-parameter lemma
    of ``brackets._generic_parameter``, a pass at ``J*`` with slot width
    ``w = 6`` proves the identity for every ``j`` of size ``n``.
    """
    if j.shape != (n, n):
        raise ShapeError(f"parameter must be {n}x{n}, got {j.rows}x{j.cols}")
    dj = _integer_row(j.entries)[1]
    scale = 2 * dj
    alphas = [[to_scalar(scale * v) for v in alpha_coboundary(x, j).entries] for x in basis_matrices(n, n)]
    rhs = structure_constants(BracketParam(n, n, j * dj)).table
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
            if k == p:  # - a([A, B]), by the unit rule
                for f, w in enumerate(alphas[i * n + q]):
                    lhs[f] -= w
            if q == i:
                for f, w in enumerate(alphas[p * n + k]):
                    lhs[f] += w
            want = [0] * (n * n)
            for e, v in rhs.get((a, b), {}).items():
                want[e] = v + v
            if lhs != want:
                coboundary, bracket = (Matrix.from_flat(n, n, x) * Fraction(1, scale) for x in (lhs, want))
                return Verdict(False, {"pair": [a, b], "coboundary": str(coboundary), "bracket": str(bracket)})
    return Verdict(True)
