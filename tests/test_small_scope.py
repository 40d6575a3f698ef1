"""Every small parameter, enumerated: the classification witness and the laws read off its factors.

The Lie axioms, the path identities and the coboundary hold for every ``J``
by one evaluation at a generic point.  The classification witness cannot be
proved that way: it is the Gauss-Jordan elimination of ``[J | I]`` into the
factors ``N_r = Q J P`` (checked by ``matrices._factor_check``), and it
depends on the data.  The signature transport and the center law rest on
the same factors.  These tests therefore run them on every parameter of a
few small boxes, entries in {-1, 0, 1} at 2 x 2, 2 x 3 and 3 x 2 and in
{0, 1} at 3 x 3, which combine zero rows, repeated columns and every sign
pattern, as seeded draws from [-3, 3] seldom do.  The rank of each
parameter is its largest nonzero minor, ``rank_bruteforce``.  The
transport proves its factors by the null-block lemma of
``matrices._normal_form_transport``, with no full-size rank, so on every
parameter its verdict is held to the full ranks of ``_factor_check``, on
the factors written and on a copy whose ``Q`` repeats a null row.

The signature of a normal form ``N_r`` is read off its weight grading
(``algebra._graded_signature``), a path of its own, so it is held to the
generic kernel on its model-less twin and to the dense reference on every
``N_r`` up to 6 x 6, and through the transport on drawn integer ``J``.
"""

import itertools
from functools import cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_algebra import dense_reference_signature, model_less
from test_matrices import rank_bruteforce

from liebrackets import matrices
from liebrackets.algebra import LieAlgebra, invariant_signature
from liebrackets.brackets import BracketParam
from liebrackets.classify import ClassificationError, _center_law_dim, _checked_witness, center_law, verified_witness
from liebrackets.matrices import Matrix, rank, rank_normal_form

# (rows, cols, entry values) of each box: the parameter J, of shape rows x cols,
# is the bracket parameter of Mat(cols x rows).
BOXES = {"2x2-signs": (2, 2, (-1, 0, 1)), "2x3-signs": (2, 3, (-1, 0, 1)),
         "3x2-signs": (3, 2, (-1, 0, 1)), "3x3-binary": (3, 3, (0, 1))}


@cache
def box(name: str) -> tuple:
    """Every matrix of the box ``name``, with its rank."""
    rows, cols, values = BOXES[name]
    matrices = (
        Matrix([entries[i * cols : (i + 1) * cols] for i in range(rows)])
        for entries in itertools.product(values, repeat=rows * cols)
    )
    return tuple((j, rank_bruteforce(j)) for j in matrices)


@cache
def normal_signature(n: int, m: int, r: int):
    return invariant_signature(LieAlgebra.from_param(BracketParam.normal(n, m, r)))


@pytest.mark.parametrize("name", BOXES)
def test_witness_to_the_normal_form_is_bijective_on_every_parameter(name):
    rows, cols, _ = BOXES[name]
    for j, r in box(name):
        assert rank(j) == r, j
        verdict = _checked_witness(j, rank_normal_form(rows, cols, r))
        assert verdict.is_hom and verdict.injective, j


@pytest.mark.parametrize("name", BOXES)
def test_center_law_and_transported_signature_hold_on_every_parameter(name):
    m, n, _ = BOXES[name]
    for j, r in box(name):
        ctr, got_rank, expected = center_law(BracketParam(n, m, j))
        assert got_rank == r and ctr.dim == expected == _center_law_dim(n, m, r), j
        assert invariant_signature(LieAlgebra.from_param(BracketParam(n, m, j))) == normal_signature(n, m, r), j


@pytest.mark.parametrize("name", BOXES)
def test_null_block_proof_agrees_with_the_full_ranks_on_every_parameter(name, monkeypatch):
    # The transport accepts every factor set _normal_form_factors writes, as
    # _factor_check does with its full ranks of P and Q.  Where Q has two
    # null rows or more, copying one onto the next keeps N_r = Q J P but
    # leaves Q singular, and both refuse.
    m, n, _ = BOXES[name]
    real = matrices._normal_form_factors
    corrupt = False

    def written(e, n_, m_):
        pflat, dp, qflat, dq = real(e, n_, m_)
        r = len(e[1])
        if corrupt:
            qflat = qflat[: (r + 1) * m_] + qflat[r * m_ : (r + 1) * m_] + qflat[(r + 2) * m_ :]
        factors.append((pflat, dp, qflat, dq))
        return factors[-1]

    monkeypatch.setattr(matrices, "_normal_form_factors", written)
    corrupted = 0
    for j, r in box(name):
        for corrupt in (False, True)[: 1 + (m - r >= 2)]:
            factors = []
            proved = matrices._normal_form_transport(j)
            full = matrices._factor_check(rank_normal_form(m, n, r), j, factors[0])
            assert (proved, full) == ((None, False) if corrupt else (r, True)), (j, corrupt)
            corrupted += corrupt
    assert corrupted == sum(m - r >= 2 for _, r in box(name)) > 0


def test_witness_between_every_pair_of_the_two_by_two_box():
    params = box("2x2-signs")
    bijective = refused = 0
    for (j1, r1), (j2, r2) in itertools.product(params, repeat=2):
        if r1 == r2:
            _, verdict = verified_witness(j1, j2)
            assert verdict.is_hom and verdict.injective, (j1, j2)
            bijective += 1
        else:
            with pytest.raises(ClassificationError) as exc:
                verified_witness(j1, j2)
            assert (exc.value.rank1, exc.value.rank2) == (r1, r2), (j1, j2)
            refused += 1
    assert (bijective, refused) == (3329, 3232)


def test_graded_signature_of_every_small_normal_form():
    for n, m in itertools.product(range(1, 7), repeat=2):
        for r in range(min(n, m) + 1):
            L = LieAlgebra.from_param(BracketParam.normal(n, m, r))
            assert invariant_signature(L) == invariant_signature(model_less(L)) == dense_reference_signature(L), (n, m, r)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_transported_signature_of_integer_parameters(n, m, data):
    j = Matrix.from_flat(m, n, data.draw(st.lists(st.integers(-3, 3), min_size=m * n, max_size=m * n)))
    L = LieAlgebra.from_param(BracketParam(n, m, j))
    assert invariant_signature(L) == invariant_signature(model_less(L)) == normal_signature(n, m, rank(j))
