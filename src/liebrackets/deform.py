"""Contractions, the deformation path, and the coboundary identity.

The ordinary commutator algebra on square matrices degenerates to the
rank-r bracket algebra along an epsilon-scaled change of basis: scale
``E_{i,j}`` by 1, epsilon or epsilon^2 according to how the indices sit
relative to ``r``, and let epsilon go to 0.  Epsilon is kept symbolic as a
Laurent polynomial so the limit is exponent truncation (exact) and a
divergent contraction is detected rather than silently wrong.

In the other direction the straight-line path ``(1-t) I + t J`` of
parameters deforms the commutator into the rank-r bracket; for ``t < 1``
the column-scaling transport map makes the two isomorphic, and the bracket
with any parameter is a 2-coboundary of the commutator's adjoint action.
Both identity checks scale each side to integers once and compare every
entry of every basis pair, with no matrix product, scaling or inverse
transport inside the pair loop.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from .algebra import Verdict
from .brackets import BracketParam, StructureConstants, _pair_brackets, basis_matrices
from .matrices import Matrix, ShapeError, _canonical, _integer_row, rank_normal_form
from .scalars import Scalar, scalar_div, scalar_str, to_scalar


class ContractionDivergenceError(ValueError):
    """A negative epsilon-exponent made the contraction limit undefined."""

    def __init__(self, message: str, triple: tuple):
        super().__init__(message)
        self.triple = triple


class LaurentScalar:
    """Finite Laurent polynomial in epsilon with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[int, Scalar] = None):
        clean = {}
        if terms:
            for e, c in terms.items():
                c = to_scalar(c)
                if c != 0:
                    clean[int(e)] = c
        self.terms = clean

    @classmethod
    def monomial(cls, c, exponent: int) -> "LaurentScalar":
        return cls({exponent: to_scalar(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def min_exponent(self):
        return min(self.terms) if self.terms else None

    def constant_term(self) -> Scalar:
        return self.terms.get(0, 0)

    def __add__(self, other: "LaurentScalar") -> "LaurentScalar":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentScalar(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = scalar_str(self.terms[e])
            if e == 0:
                parts.append(c)
            elif e == 1:
                parts.append(f"{c}*eps")
            else:
                parts.append(f"{c}*eps^{e}")
        return " + ".join(parts)

    def to_json(self) -> list:
        return [{"exp": e, "coef": scalar_str(self.terms[e])} for e in sorted(self.terms)]


class EpsStructureConstants:
    """Structure constants whose coefficients are Laurent polynomials in
    epsilon; pairs stored for i < j only, like ``StructureConstants``."""

    __slots__ = ("dim", "table")

    def __init__(self, dim: int, table: Dict[Tuple[int, int], Dict[int, LaurentScalar]]):
        clean = {}
        for (a, b), terms in table.items():
            if not (0 <= a < b < dim):
                raise ValueError(f"pair ({a}, {b}) must satisfy 0 <= a < b < dim")
            kept = {k: v for k, v in terms.items() if not v.is_zero()}
            if kept:
                clean[(a, b)] = kept
        self.dim = dim
        self.table = clean

    def to_json(self) -> dict:
        out = []
        for (a, b) in sorted(self.table):
            terms = self.table[(a, b)]
            out.append(
                {
                    "i": a,
                    "j": b,
                    "terms": [{"k": k, "laurent": terms[k].to_json()} for k in sorted(terms)],
                }
            )
        return {"dim": self.dim, "brackets": out}


def contraction_constants(n: int, r: int) -> EpsStructureConstants:
    """Ordinary-commutator constants in the scaled basis.

    Basis element ``(i, j)`` (1-based) is scaled by epsilon^(f(i) + f(j))
    with f = 0 on 1..r and 1 above; the commutator
    ``[E_{i,j}, E_{k,l}] = d(j,k) E_{i,l} - d(l,i) E_{k,j}`` picks up
    epsilon^(2 f(j)) on the first term and epsilon^(2 f(i)) on the second,
    both nonnegative.
    """
    if not (0 <= r <= n):
        raise ValueError(f"rank {r} out of range for size {n}")

    def f(idx0: int) -> int:
        return 0 if idx0 < r else 1

    table: Dict[Tuple[int, int], Dict[int, LaurentScalar]] = {}
    for a in range(n * n):
        i, j = divmod(a, n)
        for b in range(a + 1, n * n):
            k, l = divmod(b, n)
            terms: Dict[int, LaurentScalar] = {}
            if j == k:
                t = i * n + l
                add = LaurentScalar.monomial(1, 2 * f(j))
                terms[t] = terms.get(t, LaurentScalar()) + add
            if l == i:
                t = k * n + j
                add = LaurentScalar.monomial(-1, 2 * f(i))
                terms[t] = terms.get(t, LaurentScalar()) + add
            terms = {k2: v for k2, v in terms.items() if not v.is_zero()}
            if terms:
                table[(a, b)] = terms
    return EpsStructureConstants(n * n, table)


def contraction_limit(c: EpsStructureConstants) -> StructureConstants:
    """Drop the positive-exponent parts; fail hard on any negative exponent."""
    table: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    for (a, b), terms in c.table.items():
        out = {}
        for k, v in terms.items():
            lowest = v.min_exponent()
            if lowest is not None and lowest < 0:
                raise ContractionDivergenceError(
                    f"coefficient of basis {k} in [{a}, {b}] has epsilon exponent {lowest}",
                    (a, b, k),
                )
            const = v.constant_term()
            if const != 0:
                out[k] = const
        if out:
            table[(a, b)] = out
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

    With ``t = p/q`` every side is scaled by ``q`` (the images ``q psi_t A``
    make the right side of transport ``q^2`` times its value) and compared
    entry by entry on integers; column ``c`` of ``psi_t(X)`` is column ``c``
    of ``X`` times ``1 - t`` when ``c >= r``, so no inverse is formed.

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
    basis = basis_matrices(n, n)
    params = (deformation_bracket(n, jr, t).j * q, Matrix.identity(n), jr - Matrix.identity(n))
    streams = [_pair_brackets(basis, BracketParam(n, n, j)) for j in params]
    if t != 1:
        images = [psi_t(x, t, r) * q for x in basis]
        streams.append(_pair_brackets(images, BracketParam.commutator(n)))
    weights = (q,) * r + (q - p,) * (n - r)  # q^2 psi_t on the columns of q [A, B]_{J_t}
    decomposition = transport = True
    for (_, _, lhs), (_, _, comm), (_, _, shift), *moved in zip(*streams):
        if decomposition and lhs.entries != tuple(q * c + p * s for c, s in zip(comm.entries, shift.entries)):
            decomposition = False
        if moved and transport:
            rows = zip(lhs._data, moved[0][2]._data)
            transport = all(x * w == y for row, image in rows for x, w, y in zip(row, weights, image))
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
    into column k, so the two commutators take no product; ``a([A, B])`` is
    the sum of the ``a`` of the units over the entries of ``[A, B]``; and the
    right side is the kernel's bracket with the integer parameter ``d_J j``.
    """
    if j.shape != (n, n):
        raise ShapeError(f"parameter must be {n}x{n}, got {j.rows}x{j.cols}")
    basis = basis_matrices(n, n)
    dj = _integer_row(j.entries)[1]
    scale = 2 * dj
    alphas = [[to_scalar(scale * v) for v in alpha_coboundary(x, j).entries] for x in basis]
    pairs = (_pair_brackets(basis, BracketParam(n, n, m)) for m in (Matrix.identity(n), j * dj))
    for (a, b, comm), (_, _, rhs) in zip(*pairs):
        (i, k), (p, q) = divmod(a, n), divmod(b, n)
        alpha_a, alpha_b = alphas[a], alphas[b]
        lhs = [0] * (n * n)
        for c in range(n):  # [A, a(B)] - [B, a(A)]
            lhs[i * n + c] += alpha_b[k * n + c]
            lhs[c * n + k] -= alpha_b[c * n + i]
            lhs[p * n + c] -= alpha_a[q * n + c]
            lhs[c * n + q] += alpha_a[c * n + p]
        for e, v in enumerate(comm.entries):  # - a([A, B])
            if v:
                for f, w in enumerate(alphas[e]):
                    lhs[f] -= v * w
        if lhs != [v + v for v in rhs.entries]:
            coboundary, bracket = Matrix.from_flat(n, n, lhs) * Fraction(1, scale), rhs * Fraction(1, dj)
            return Verdict(False, {"pair": [a, b], "coboundary": str(coboundary), "bracket": str(bracket)})
    return Verdict(True)
