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
unit-rule lemma of ``brackets._unit_rule``.  No proof loop builds a
``Fraction`` either: the outputs of ``deformation_bracket``, ``psi_t`` and
``alpha_coboundary`` are read once as integer rows at a common scale (the
lcm of their denominators and of the time's or the parameter's), and every
comparison runs on those integers.  The commutator table ``T(I)`` is read
by ``_identity_table`` alone, for the contraction and for the path proof,
and ``EpsStructureConstants`` checks and writes its table through the
functions ``brackets.StructureConstants`` uses.  The ``deform`` command
takes the signature of every path point at its own parameter and compares
it with the commutator's below ``t = 1`` and the normal form's at ``t = 1``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Dict, Tuple

from .algebra import Verdict
from .brackets import BracketParam, StructureConstants, _checked_table, _table_json, basis_matrices, structure_constants
from .matrices import _INT_ONLY, Matrix, ShapeError, _integer_row, rank_normal_form
from .scalars import Scalar, scalar_div, scalar_str, to_scalar


class ContractionDivergenceError(ValueError):
    """A negative epsilon-exponent made the contraction limit undefined."""

    def __init__(self, message: str, triple: tuple):
        super().__init__(message)
        self.triple = triple


class EpsStructureConstants:
    """Structure constants in the epsilon-scaled basis: every coefficient is
    one monomial ``coef * epsilon^exp``, stored as the pair ``(coef, exp)``.
    The table is checked (pairs ``a < b < dim``, targets below ``dim``, no
    zero coefficient) and written as JSON, each term as a one-monomial
    ``"laurent"`` list, by the functions ``StructureConstants`` uses."""

    __slots__ = ("dim", "table")

    def __init__(self, dim: int, table: Dict[Tuple[int, int], Dict[int, Tuple[Scalar, int]]]):
        kept = {pair: {k: v for k, v in terms.items() if v[0] != 0} for pair, terms in table.items()}
        self.dim = dim
        self.table = _checked_table(dim, kept)

    def to_json(self) -> dict:
        return _table_json(self.dim, self.table, lambda v: {"laurent": [{"exp": v[1], "coef": scalar_str(v[0])}]})


def contraction_constants(n: int, r: int) -> EpsStructureConstants:
    """Ordinary-commutator constants in the scaled basis.

    Basis element ``(i, j)`` (0-based) is scaled by epsilon^s with
    ``s(i, j) = [i >= r] + [j >= r]``, so a constant ``c`` of ``[E_a, E_b]``
    on ``E_k`` becomes ``c`` epsilon^(s(a) + s(b) - s(k)).  The constants
    are those of ``T(I)``, read by ``_identity_table`` as the path proof
    reads them; every exponent is ``2 [j >= r]`` or ``2 [i >= r]``, both
    nonnegative.
    """
    if not (0 <= r <= n):
        raise ValueError(f"rank {r} out of range for size {n}")
    s = [(i >= r) + (j >= r) for i in range(n) for j in range(n)]
    table = _identity_table(n)
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
    is taken only at the nonzero entries of ``j``, and a diagonal entry
    ``(1 - t) + t v`` is ``1 - t`` at ``v = 0`` and ``1`` at ``v = 1``, so
    no matrix is scaled as a whole."""
    t = to_scalar(t)
    if j.shape != (n, n):
        raise ShapeError(f"parameter must be {n}x{n}, got {j.shape}")
    if not (0 <= t.numerator <= t.denominator):
        raise ValueError(f"path time must lie in [0, 1], got {t}")
    s = 1 - t
    rows = tuple(
        tuple(
            (s if not v else 1 if v == 1 else to_scalar(s + t * v)) if c == i  # (1 - t) + t v
            else to_scalar(t * v) if v
            else 0
            for c, v in enumerate(row)
        )
        for i, row in enumerate(j._data)
    )
    return BracketParam(n, n, Matrix._raw(rows))


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
    rows = tuple(
        row[:r] + tuple(scale if v == 1 else to_scalar(v * scale) if v else 0 for v in row[r:]) for row in x._data
    )
    return Matrix._raw(rows)


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
    ``J_r - I`` are compared on integers.  This is the integer path: the
    entries of ``deformation_bracket`` and the diagonal of ``psi_t(I)`` are
    read once as integers, ``numerator * (q // denominator)``, and no
    ``Fraction`` is built after them.  (A denominator that does not divide
    ``q``, which only a faulty path gives, raises the scale to the lcm, and
    ``p`` and ``q`` below scale with it.)  The decomposition is one
    comparison of the ``q J_t`` table with ``q T(I) + p T(J_r - I)``.
    ``psi_t`` scales columns, so ``q psi_t(E_(i,c)) = w_c E_(i,c)`` with
    ``w`` the diagonal of ``q psi_t(I)``; for units ``E_a = E_(i,c)`` and
    ``E_b = E_(k,d)`` the transport identity times ``q^2`` reads
    ``w_l (q [E_a, E_b]_{J_t})_(x,l) = w_c w_d [E_a, E_b]_(x,l)``, one
    comparison of the ``q J_t`` table scaled by ``w_l`` with ``T(I)`` scaled
    by ``w_c w_d``, and ``psi_t`` is invertible iff every weight ``w_c`` is
    nonzero, which the verdict also requires (each ``w_c`` is ``q`` or
    ``q - p``).

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
    ``Mat(n x n)``, the same for every rank ``r`` and time of the path: the
    one read of it for the path proof and ``contraction_constants``."""
    return structure_constants(BracketParam.commutator(n)).table


def _shift_table(n: int, r: int) -> dict:
    """The ``structure_constants`` table ``T(J_r - I)``, the same for every
    time of the path; ``J_r - I`` is written down as the diagonal
    ``(0, .., 0, -1, .., -1)`` with ``r`` zeros."""
    diagonal = tuple(tuple(-1 if c == i >= r else 0 for c in range(n)) for i in range(n))
    return structure_constants(BracketParam(n, n, Matrix._raw(diagonal))).table


def _table_bound(table: dict):
    """The largest absolute constant of a time-free table, at least 1; None
    if a constant is not an integer, where the generic-time lemma gives no
    bound.  That of ``T(I)`` is the same for every rank of a size."""
    constants = list(chain.from_iterable(map(dict.values, table.values())))
    if not _INT_ONLY.issuperset(map(type, constants)):
        return None
    return max([1, *map(abs, constants)])


def _generic_time(*bounds):
    """The generic time ``t* = 1/2^W`` of ``path_identities`` for the
    ``_table_bound`` of each time-free table, ``comm = T(I)`` and
    ``shift = T(J_r - I)``: ``M`` is the larger and
    ``W = (4 M).bit_length() + 1``; None if a bound is None."""
    if None in bounds:
        return None
    m = max(bounds)
    return Fraction(1, 1 << ((4 * m).bit_length() + 1))


def _path_identities(n: int, r: int, t, comm: dict, shift: dict) -> Dict[str, bool]:
    """``path_identities(n, r, t)`` for an exact ``t = p/q``, with the
    time-free tables ``comm = _identity_table(n)`` and
    ``shift = _shift_table(n, r)``: ``deformation_bracket`` and ``psi_t``
    still run at every call, and their entries are read as integers at the
    scale ``s``, the lcm of ``q`` and their denominators (``s = q`` on the
    path).  No table holds a zero coefficient (``StructureConstants``), so
    with every weight nonzero the transport identity holds exactly when the
    two scaled tables, keyed by ``(a, b, k)``, are equal."""
    p, q = t.numerator, t.denominator
    jt, dt = _integer_row(deformation_bracket(n, rank_normal_form(n, n, r), t).j.entries)
    w, dw = _integer_row(psi_t(Matrix.identity(n), t, r).entries[:: n + 1])  # the diagonal
    s = lcm(q, dt, dw)
    jt, w = [x * (s // dt) for x in jt], [x * (s // dw) for x in w]
    lhs = structure_constants(BracketParam(n, n, Matrix._raw(tuple(zip(*[iter(jt)] * n))))).table
    wk = w * n  # the weight of basis index k is w[k % n]
    got = {(a, b, k): v for (a, b), terms in lhs.items() for k, v in terms.items()}
    want, moved = {}, {}  # s T(I) + s t T(J_r - I), and q^2 psi_t of the commutator
    for (a, b), terms in comm.items():
        for k, c in terms.items():
            want[a, b, k] = s * c
            moved[a, b, k] = wk[a] * wk[b] * c
    g = s // q * p
    for (a, b), terms in shift.items():
        for k, z in terms.items():
            want[a, b, k] = want.get((a, b, k), 0) + g * z
    # A zero coefficient of ``want`` is no term of ``got``.
    verdicts = {"decomposition": got == {key: v for key, v in want.items() if v}}
    if t != 1:
        verdicts["transport"] = all(w) and {(a, b, k): v * wk[k] for (a, b, k), v in got.items()} == moved
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

    Both sides are scaled by ``s``, the lcm of ``d_J`` (the lcm of the
    denominators of ``j``) and the denominators of every ``a(E_a)``, which
    is ``2 d_J`` or a divisor of it for the true potential, and compared
    entry by entry on integers.  ``a`` is formed once per basis element, by
    ``alpha_coboundary``; it is called, not inlined, so that the check
    judges whatever ``alpha_coboundary`` is, and each ``s a(E_a)`` is read
    once as an integer row and sliced once into its rows and its columns.
    The unit-rule lemma of ``brackets._unit_rule`` at ``J = I`` gives the
    rest with no product: for a unit ``A = E_(i,k)``, ``A M`` copies row k of
    ``M`` into row i and ``M A`` copies column i of ``M`` into column k, so a
    pair reads one row and one column of each of ``a(A)`` and ``a(B)``, and
    ``a([A, B])`` is a difference of the ``a`` of two units.  Only the right
    side is read off a table, the ``structure_constants`` of the integer
    parameter ``d_J j``.

    Coboundary-bound lemma: both sides are linear in ``j`` when
    ``alpha_coboundary`` is, and at a unit ``j`` every entry of either side,
    scaled by 2, is at most 12 in absolute value, below ``2^4``.  With ``|M|``
    the sum of the absolute entries of ``M``, a product with a unit matrix
    gives ``|X E| <= |X|``, so ``|2 alpha(X)| = |X J + J X| <= 2 |X|`` and
    ``|[A, M]| <= 2 |M|`` for a unit ``A``.  For units ``A`` and ``B`` then
    ``|[A, 2 alpha(B)]| <= 4``, ``|[B, 2 alpha(A)]| <= 4`` and
    ``|2 alpha([A, B])| <= 2 |[A, B]| <= 4``, so the left side is at most 12,
    and ``|2 [A, B]_J| <= 4`` on the right.  So by the generic-parameter lemma
    of ``brackets._generic_parameter``, a pass at ``J*`` with slot width
    ``w = 5`` proves the identity for every ``j`` of size ``n``.
    """
    if n < 1:
        raise ShapeError(f"invalid size {n}")
    if j.shape != (n, n):
        raise ShapeError(f"parameter must be {n}x{n}, got {j.rows}x{j.cols}")
    dj = _integer_row(j.entries)[1]
    alphas = [_integer_row(alpha_coboundary(x, j).entries) for x in basis_matrices(n, n)]
    scale, nn = lcm(dj, *(d for _, d in alphas)), n * n
    flats = [[v * (scale // d) for v in flat] for flat, d in alphas]  # scale a(E_a)
    rows = [list(zip(*[iter(flat)] * n)) for flat in flats]
    cols = [list(zip(*r)) for r in rows]
    rhs = structure_constants(BracketParam(n, n, j * dj)).table
    g = scale // dj  # [A, B]_J = rhs / d_J
    empty: dict = {}
    for a in range(nn):
        i, k = divmod(a, n)
        io = i * n
        row_a, col_a = rows[a], cols[a]
        for b in range(a + 1, nn):
            p, q = divmod(b, n)
            lhs = [0] * nn  # [A, a(B)] - [B, a(A)], then - a([A, B]) by the unit rule, then - [A, B]_J
            lhs[io : io + n] = rows[b][k]  # A a(B): row k of a(B) in row i
            for c, u in enumerate(row_a[q], p * n):  # B a(A): row q of a(A) in row p
                lhs[c] -= u
            for o, y, v in zip(range(0, nn, n), cols[b][i], col_a[p]):
                lhs[o + k] -= y  # a(B) A: column i of a(B) in column k
                lhs[o + q] += v  # a(A) B: column p of a(A) in column q
            if k == p:
                lhs = [x - y for x, y in zip(lhs, flats[io + q])]
            if q == i:
                lhs = [x + y for x, y in zip(lhs, flats[p * n + k])]
            terms = rhs.get((a, b), empty)
            for e, v in terms.items():
                lhs[e] -= v * g
            if any(lhs):
                bracket = [0] * nn
                for e, v in terms.items():
                    bracket[e] = v * g
                coboundary = [x + y for x, y in zip(lhs, bracket)]
                coboundary, bracket = (Matrix.from_flat(n, n, x) * Fraction(1, scale) for x in (coboundary, bracket))
                return Verdict(False, {"pair": [a, b], "coboundary": str(coboundary), "bracket": str(bracket)})
    return Verdict(True)
