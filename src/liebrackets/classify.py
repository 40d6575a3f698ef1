"""Rank-based equivalence of bracket parameters and isomorphism witnesses.

Two parameters of one shape are equivalent (``J = Q J' P`` with invertible
``Q``, ``P``) exactly when they share a rank.  This module builds the
witnesses (``verified_witness``) and runs the classification report over a
whole shape (``classify_rank_family``), whose signatures come from
``_rank_signatures``, as those of ``verify`` do.

Classification lemma: if ``J1 = Q J2 P`` with ``P`` and ``Q`` invertible,
then ``phi(A) = P A Q`` is an isomorphism from the J1-bracket to the
J2-bracket on ``Mat(n x m)``.  Proof: with ``K = J1 - Q J2 P``,
``phi([A, B]_J1) - [phi A, phi B]_J2 = P A K B Q - P B K A Q``, which is 0
when ``K = 0``; and the matrix of ``phi`` is the Kronecker product of ``P``
and ``Q^T``, of rank ``rank P * rank Q``.
"""

from __future__ import annotations

import random
from operator import mul
from typing import Tuple

from .algebra import HomVerdict, LieAlgebra, _packed_hom_check, center, invariant_signature
from .brackets import BracketParam
from .matrices import Matrix, ShapeError, Subspace, _factor_check, _identity_factors, _rref_factors, _rref_rows, rank
from .scalars import scalar_div


class ClassificationError(ValueError):
    """Raised when a witness is requested for inequivalent parameters."""

    def __init__(self, message: str, rank1: int, rank2: int):
        super().__init__(message)
        self.rank1 = rank1
        self.rank2 = rank2


def iso_witness(j1: Matrix, j2: Matrix) -> Matrix:
    """The matrix of the isomorphism ``A -> P A Q`` from the j1-bracket to the
    j2-bracket on ``Mat(n x m)`` (the classification lemma), for the factors
    ``j1 = Q j2 P`` of ``matrices._rref_factors``: column ``k`` is the flat
    image of the ``k``-th row-major basis matrix."""
    return _columns_map(*_kronecker_columns(j1.cols, j1.rows, *_witness_factors(j1, j2)))


def _columns_map(cols: list, den: int) -> Matrix:
    """The square matrix whose columns are the integer ``cols`` divided by ``den``."""
    return Matrix._raw(tuple(tuple(scalar_div(v, den) if v else 0 for v in row) for row in zip(*cols)))


def _witness_factors(j1: Matrix, j2: Matrix) -> tuple:
    """``(pflat, dp, qflat, dq)``: the factors ``P`` and ``Q`` of
    ``iso_witness(j1, j2)``, with ``j1 = Q j2 P``, as
    ``matrices._rref_factors`` writes them from one ``_rref_rows`` of each
    parameter, or ``ClassificationError`` when their ranks differ.

    Equal parameters take ``matrices._identity_factors`` with no
    elimination: ``j1 = I j2 I`` is the classification lemma with
    ``P = Q = I`` and ``K = j1 - j2 = 0``, and ``_rref_factors`` writes the
    same identity factors for them."""
    if j1.shape != j2.shape:
        raise ShapeError(f"cannot relate {j1.rows}x{j1.cols} with {j2.rows}x{j2.cols}")
    if j1 == j2:
        return _identity_factors(j1.cols, j1.rows)
    e1, e2 = _rref_rows(j1), _rref_rows(j2)
    r1, r2 = len(e1[1]), len(e2[1])
    if r1 != r2:
        raise ClassificationError(f"parameters of ranks {r1} and {r2} are not equivalent", r1, r2)
    return _rref_factors(e1, e2, j1.cols, j1.rows)


def _kronecker_columns(n: int, m: int, pflat, dp: int, qflat, dq: int) -> tuple:
    """``(columns, den)`` of the map ``A -> P A Q`` on ``Mat(n x m)`` for
    the factors of ``_witness_factors``: the column of ``E_ij`` is the flat
    ``P E_ij Q``, with the entries ``P[a][i] Q[j][b]``, formed on the
    integer matrices ``dp P`` and ``dq Q``, over ``dp dq``."""
    qrows = [qflat[j * m : (j + 1) * m] for j in range(m)]
    return [[x * y for x in pflat[i::n] for y in qrow] for i in range(n) for qrow in qrows], dp * dq


def _checked_witness(j1: Matrix, j2: Matrix) -> HomVerdict:
    """The ``hom_check`` verdict of the witness ``A -> P A Q`` of
    ``_witness_factors(j1, j2)``, from the j1-bracket algebra to the
    j2-bracket on ``Mat(n x m)`` (``_factor_verdict``)."""
    return _factor_verdict(j1, j2, _witness_factors(j1, j2))


def _factor_verdict(j1: Matrix, j2: Matrix, factors: tuple) -> HomVerdict:
    """The ``hom_check`` verdict of the map ``A -> P A Q`` from the
    j1-bracket algebra to the j2-bracket on ``Mat(n x m)``, read off its
    ``factors`` ``(pflat, dp, qflat, dq)`` in the form of
    ``_witness_factors``.

    When ``matrices._factor_check`` finds the factor identity
    ``J1 = Q J2 P`` of ``matrices._rref_factors``, the classification lemma
    makes the map a homomorphism, injective iff the two ranks it then takes
    are full (equal parameters take the identity factors, proved with no
    product and no rank).  That is the verdict the packed check gives, with
    no witness, and no bracket, Kronecker column or structure constant is built.  When the identity fails the map may still be a
    homomorphism (every map is one on ``Mat(1 x 1)``), so its integer
    Kronecker columns over one denominator go to the packed check, whose
    verdict and witness decide: only the source's structure constants are
    built, and the images are bracketed through the j2 model.
    """
    injective = _factor_check(j1, j2, factors)
    if injective is None:
        n, m = j1.cols, j1.rows
        cols, den = _kronecker_columns(n, m, *factors)
        return _packed_hom_check(cols, den, LieAlgebra.from_param(BracketParam(n, m, j1)), BracketParam(n, m, j2))
    return HomVerdict(True, injective)


def verified_witness(j1: Matrix, j2: Matrix) -> Tuple[Matrix, HomVerdict]:
    """The witness matrix ``iso_witness(j1, j2)`` and its homomorphism check from
    the j1-bracket algebra to the j2-bracket algebra on ``Mat(cols x rows)``
    (``_checked_witness``), both from one ``_witness_factors`` call."""
    factors = _witness_factors(j1, j2)
    return _columns_map(*_kronecker_columns(j1.cols, j1.rows, *factors)), _factor_verdict(j1, j2, factors)


def center_law(param: BracketParam) -> Tuple[Subspace, int, int]:
    """Center of the bracket algebra, the rank r of its parameter, and the
    center dimension the rank predicts (``_center_law_dim``)."""
    ctr = center(LieAlgebra.from_param(param))
    r = rank(param.j)
    return ctr, r, _center_law_dim(param.n, param.m, r)


def _center_law_dim(n: int, m: int, r: int) -> int:
    """The center dimension of a rank-``r`` bracket on ``Mat(n x m)``:
    ``(n-r)(m-r)``, except 1 for a full-rank square parameter, where the
    bracket is ``gl(n)`` and its center the scalars.  The one statement of
    the law, which ``center_law`` and ``verify.check_center_dimensions``
    both read."""
    return 1 if n == m == r else (n - r) * (m - r)


def _randints(rng: random.Random, lo: int, hi: int, count: int) -> list:
    """The values of ``count`` calls of ``rng.randint(lo, hi)``, in order,
    leaving ``rng`` where those calls leave it.

    They are drawn as ``randint`` draws them, without its argument checks:
    with ``k`` the bit length of the width ``hi - lo + 1``, each value is
    ``lo + getrandbits(k)``, redrawn while the bits reach the width.  Every
    seeded draw of the package goes through here."""
    width = hi - lo + 1
    k = width.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        out.append(lo + r)
    return out


def random_parameter(rng: random.Random, rows: int, cols: int, target_rank: int) -> Matrix:
    """Seeded random integer matrix of exactly the requested rank.

    Sampled as a product of two factors with entries uniform in [-3, 3]
    (rank at most the target by construction) and redrawn until the rank is
    exact; rejection on the full matrix would almost never land on an
    intermediate rank.  The left factor is drawn row by row, then the right
    one, both by ``_randints``, with the values ``randint`` gives.  The rank
    is the pivot count of ``matrices._rref_rows``, the one elimination of
    the draw, which the matrix keeps: its witness factors and its
    normal-form transport read it and do not eliminate it again.
    """
    if not (0 <= target_rank <= min(rows, cols)):
        raise ShapeError(f"rank {target_rank} out of range for {rows}x{cols}")
    if target_rank == 0:
        return Matrix.zeros(rows, cols)
    for _ in range(1000):
        left = _randints(rng, -3, 3, rows * target_rank)
        right = _randints(rng, -3, 3, target_rank * cols)
        lrows = [left[i : i + target_rank] for i in range(0, len(left), target_rank)]
        rcols = [right[c::cols] for c in range(cols)]
        j = Matrix._raw(tuple(tuple(sum(map(mul, lrow, c)) for c in rcols) for lrow in lrows))
        if len(_rref_rows(j)[1]) == target_rank:
            return j
    raise RuntimeError(f"failed to sample a rank-{target_rank} {rows}x{cols} matrix")


def _rank_signatures(n: int, m: int) -> list:
    """The invariant signatures of the rank-``r`` normal-form algebras of
    ``Mat(n x m)``, indexed by ``r = 0..min(n, m)``: the one computation of
    the claim that distinct ranks give distinct signatures, which the
    ``classify`` report and ``signature_separation`` read; at the shapes
    ``(n, n)`` it also tells the endpoints of the deformation path apart
    from ``gl(n)``.  ``center_dimension_law`` reads each one's
    ``center_dim``, the exact dimension of the center that ``center``
    spans."""
    return [
        invariant_signature(LieAlgebra.from_param(BracketParam.normal(n, m, r))) for r in range(min(n, m) + 1)
    ]


def classify_rank_family(n: int, m: int, seed: int = 0, witness_pairs: int = 1) -> dict:
    """Classification report for the shape ``Mat(n x m)``.

    For each rank: the invariant signature of the normal-form algebra, from
    ``_rank_signatures``, and a witness check on random same-rank parameter
    pairs.  Shapes with ``min(n, m) < 2`` fall outside the classification
    theorems' hypotheses and are flagged degenerate (still computed).
    """
    if n < 1 or m < 1:
        raise ShapeError(f"invalid shape {n}x{m}")
    rng = random.Random(seed)
    entries = []
    signatures = _rank_signatures(n, m)
    for r, sig in enumerate(signatures):
        verified = True
        for _ in range(witness_pairs):
            j1 = random_parameter(rng, m, n, r)
            j2 = random_parameter(rng, m, n, r)
            if not _checked_witness(j1, j2).bijective:
                verified = False
        entries.append({"r": r, "signature": sig.to_json(), "witness_verified": verified})
    return {
        "n": n,
        "m": m,
        "seed": seed,
        "degenerate": min(n, m) < 2,
        "entries": entries,
        "pairwise_distinct": len(set(signatures)) == len(signatures),
    }
