"""Engine computations: axioms, center, series, Killing form, hom checks."""

import copy
import json
import math
import random
import sys
from fractions import Fraction
from operator import mul
from typing import Dict

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from liebrackets import algebra, brackets, classify, matrices
from liebrackets.algebra import (
    HomVerdict,
    InvariantSignature,
    LieAlgebra,
    Verdict,
    center,
    centralizer,
    derived_series,
    hom_check,
    invariant_signature,
    jacobi_check,
    killing_form,
    lower_central_series,
    subalgebra_closed,
)
from liebrackets.brackets import (
    BracketParam,
    StructureConstants,
    _pair_brackets,
    basis_matrices,
    bracket,
    structure_constants,
)
from liebrackets.classify import iso_witness, random_parameter
from liebrackets.constructions import heisenberg_realization
from liebrackets.deform import PATH_TIMES as DEFORM_PATH_TIMES
from liebrackets.deform import deformation_bracket
from liebrackets.matrices import (
    Matrix,
    ShapeError,
    Subspace,
    _eliminate,
    inverse,
    kernel,
    rank,
    rank_factorization,
    rank_normal_form,
)
from liebrackets.scalars import scalar_div, scalar_str
from test_matrices import intersection


def from_columns(columns):
    """The matrix whose columns are ``columns``: a map given by its basis images."""
    return Matrix(tuple(zip(*columns)))


def random_matrix(rng, rows, cols, lo=-3, hi=3):
    return Matrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def abelian(dim):
    return LieAlgebra(dim, StructureConstants(dim, {}))


def sl2_constants():
    # Basis (H, X, Y): [H,X] = 2X, [H,Y] = -2Y, [X,Y] = H.
    return StructureConstants(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})


def heisenberg3_constants():
    return StructureConstants(3, {(0, 1): {2: 1}})


def series_dims_bruteforce(param):
    """Derived series dimensions straight from matrix spans (no constants)."""
    n, m = param.n, param.m
    current = Subspace.span(n, m, basis_matrices(n, m))
    dims = [current.dim]
    while True:
        brackets = [
            bracket(current.basis[a], current.basis[b], param)
            for a in range(current.dim)
            for b in range(a + 1, current.dim)
        ]
        nxt = Subspace.span(n, m, brackets) if brackets else Subspace(n, m, ())
        dims.append(nxt.dim)
        if nxt.dim == 0 or nxt.dim == current.dim:
            return dims
        current = nxt


def lcs_dims_bruteforce(param):
    """Lower central series dimensions straight from matrix spans (no constants)."""
    n, m = param.n, param.m
    basis = basis_matrices(n, m)
    current = Subspace.span(n, m, basis)
    dims = [current.dim]
    while True:
        brackets = [bracket(x, y, param) for x in basis for y in current.basis]
        nxt = Subspace.span(n, m, brackets) if brackets else Subspace(n, m, ())
        dims.append(nxt.dim)
        if nxt.dim == 0 or nxt.dim == current.dim:
            return dims
        current = nxt


def killing_gram_bruteforce(param):
    """Gram matrix from dense adjoint matrices built by the generic bracket."""
    basis = basis_matrices(param.n, param.m)
    d = len(basis)
    ads = []
    for a in range(d):
        cols = [bracket(basis[a], basis[b], param).entries for b in range(d)]
        ads.append(Matrix(tuple(zip(*cols))))
    return Matrix([[(ads[a] @ ads[b]).trace() for b in range(d)] for a in range(d)])


class TestJacobi:
    def test_matrix_space_passes_exhaustively(self):
        rng = random.Random(0)
        param = BracketParam(3, 3, random_matrix(rng, 3, 3))
        assert jacobi_check(LieAlgebra.from_param(param)).passed

    def test_abelian_passes(self):
        assert jacobi_check(abelian(4)).passed

    def test_tampered_constants_reported(self):
        good = sl2_constants()
        assert jacobi_check(LieAlgebra(3, good)).passed
        # Flipping the sign of [H, Y] makes the cyclic sum on (H, X, Y)
        # equal -4H, a genuine Jacobi violation.
        bad = StructureConstants(3, {(0, 1): {1: 2}, (0, 2): {2: 2}, (1, 2): {0: 1}})
        verdict = jacobi_check(LieAlgebra(3, bad))
        assert not verdict.passed
        assert verdict.witness["triple"] == [0, 1, 2]
        assert verdict.witness["defect"] == {"0": "-4"}

    def test_every_parameter_of_small_shapes_by_polarization(self):
        # The constants c(J) are linear in J, so each entry of the Jacobi sum
        # is a quadratic form Q(J) = B(J, J) with B symmetric bilinear.  Q
        # vanishes on all of Mat(m x n, Q) iff B(E_p, E_q) = 0 for all unit
        # matrices E_p, E_q; since Q(E_p + E_q) = Q(E_p) + Q(E_q) + 2 B(E_p, E_q)
        # and 2 is invertible, that holds iff Q(E_p) = 0 and Q(E_p + E_q) = 0
        # for all p < q.  Passing at these parameters proves the identity for
        # every J of the shape, not for samples.
        checked = 0
        for n in range(1, 5):
            for m in range(1, 5):
                units = [Matrix.unit(m, n, i, j) for i in range(m) for j in range(n)]
                params = units + [units[p] + units[q] for p in range(len(units)) for q in range(p + 1, len(units))]
                for j in params:
                    verdict = jacobi_check(LieAlgebra.from_param(BracketParam(n, m, j)))
                    assert verdict.passed, (n, m, str(j), verdict.witness)
                    checked += 1
        assert checked == 500

    def test_every_parameter_of_shapes_up_to_6x6_as_a_polynomial_identity(self):
        # The table of J is sum_p J_p T_p over the unit tables T_p, and every
        # monomial coefficient of every Jacobi sum is 0.
        for n in range(1, 7):
            for m in range(1, 7):
                units = [Matrix.unit(m, n, x, y) for x in range(m) for y in range(n)]
                tables = [structure_constants(BracketParam(n, m, j)).table for j in units]
                assert algebra._jacobi_holds_in_j(tables, n * m), (n, m)


class TestCenter:
    def test_gl2_center_is_scalars(self):
        alg = LieAlgebra.from_param(BracketParam.commutator(2))
        ctr = center(alg)
        assert ctr.dim == 1
        assert ctr.contains(Matrix.identity(2))

    def test_rank_one_square(self):
        alg = LieAlgebra.from_param(BracketParam(2, 2, Matrix.diagonal([1, 0])))
        ctr = center(alg)
        assert ctr.dim == 1
        assert ctr.contains(Matrix.unit(2, 2, 1, 1))

    def test_rectangular(self):
        alg = LieAlgebra.from_param(BracketParam.normal(3, 2, 1))
        ctr = center(alg)
        assert ctr.dim == (3 - 1) * (2 - 1)
        # spanned by the bottom-right block opposite the identity corner
        assert ctr.contains(Matrix.unit(3, 2, 1, 1))
        assert ctr.contains(Matrix.unit(3, 2, 2, 1))

    def test_zero_parameter_whole_space(self):
        alg = LieAlgebra.from_param(BracketParam(2, 2, Matrix.zeros(2, 2)))
        assert center(alg).dim == 4

    def test_transport_through_factorization(self):
        # Z_J = p^-1 Z_normal q^-1 when J = q D p.
        rng = random.Random(1)
        for n, r in ((2, 1), (3, 2), (3, 1)):
            j = random_parameter(rng, n, n, r)
            f = rank_factorization(j)
            q_inv, p_inv = inverse(f.q), inverse(f.p)
            normal_center = center(LieAlgebra.from_param(BracketParam.normal(n, n, r)))
            transported = Subspace.span(n, n, [p_inv @ z @ q_inv for z in normal_center.basis])
            assert center(LieAlgebra.from_param(BracketParam(n, n, j))) == transported

    def test_transport_through_iso_witness(self):
        # The verified isomorphism carries center onto center.
        rng = random.Random(2)
        for n, m, r in ((2, 2, 1), (3, 2, 1), (2, 3, 2)):
            j = random_parameter(rng, m, n, r)
            jn = rank_normal_form(m, n, r)
            witness = iso_witness(j, jn)
            src = LieAlgebra.from_param(BracketParam(n, m, j))
            dst = LieAlgebra.from_param(BracketParam.normal(n, m, r))
            images = [witness @ Matrix.column(src.to_coords(z)) for z in center(src).basis]
            mapped = Subspace.span(n, m, [dst.from_coords(v.entries) for v in images])
            assert mapped == center(dst)


class TestCentralizer:
    def test_whole_algebra_gives_center(self):
        alg = LieAlgebra.from_param(BracketParam.commutator(2))
        assert centralizer(alg, alg.full_subspace()) == center(alg)

    def test_empty_gives_whole(self):
        alg = LieAlgebra.from_param(BracketParam.commutator(2))
        assert centralizer(alg, Subspace(2, 2, ())).dim == 4

    def test_corner_block_centralizer(self):
        # Centralizer of the embedded End(V1) block in the rank-r algebra:
        # scalars on the corner plus the free bottom-right block.
        n, r = 3, 2
        alg = LieAlgebra.from_param(BracketParam.normal(n, n, r))
        corner = Subspace.span(
            n, n, [Matrix.unit(n, n, i, j) for i in range(r) for j in range(r)]
        )
        result = centralizer(alg, corner)
        assert result.dim == 1 + (n - r) ** 2
        assert result.contains(Matrix.diagonal([1, 1, 0]))
        assert result.contains(Matrix.unit(n, n, 2, 2))

    def test_ambient_mismatch(self):
        alg = LieAlgebra.from_param(BracketParam.commutator(2))
        with pytest.raises(ShapeError):
            centralizer(alg, Subspace(3, 1, ()))


class TestSeries:
    def test_abelian_stabilizes_at_zero(self):
        dims = [t.dim for t in derived_series(abelian(3))]
        assert dims == [3, 0]
        assert [t.dim for t in lower_central_series(abelian(3))] == [3, 0]

    def test_gl2_derived_series(self):
        param = BracketParam.commutator(2)
        assert series_dims_bruteforce(param) == [4, 3, 3]
        dims = [t.dim for t in derived_series(LieAlgebra.from_param(param))]
        assert dims == [4, 3, 3]

    def test_heisenberg_lcs(self):
        alg = LieAlgebra(3, heisenberg3_constants())
        assert [t.dim for t in lower_central_series(alg)] == [3, 1, 0]
        assert [t.dim for t in derived_series(alg)] == [3, 1, 0]

    def test_series_against_bruteforce_random(self):
        rng = random.Random(2)
        pool = [0, 1, -2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
        for _ in range(5):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            integral = BracketParam(n, m, random_matrix(rng, m, n))
            rational = BracketParam(n, m, Matrix([[rng.choice(pool) for _ in range(n)] for _ in range(m)]))
            for param in (integral, rational):
                alg = LieAlgebra.from_param(param)
                assert [t.dim for t in derived_series(alg)] == series_dims_bruteforce(param)
                assert [t.dim for t in lower_central_series(alg)] == lcs_dims_bruteforce(param)


class TestKilling:
    def test_abelian_zero(self):
        gram, r = killing_form(abelian(3))
        assert gram.is_zero() and r == 0

    def test_heisenberg_zero(self):
        gram, r = killing_form(LieAlgebra(3, heisenberg3_constants()))
        assert gram.is_zero() and r == 0

    def test_gl2_rank_three(self):
        param = BracketParam.commutator(2)
        gram, r = killing_form(LieAlgebra.from_param(param))
        assert gram == killing_gram_bruteforce(param)
        assert r == 3

    def test_matches_bruteforce_random(self):
        rng = random.Random(3)
        for _ in range(4):
            n = rng.randint(1, 3)
            param = BracketParam(n, n, random_matrix(rng, n, n))
            gram, _ = killing_form(LieAlgebra.from_param(param))
            assert gram == killing_gram_bruteforce(param)

    def test_gram_rows_match_dense_traces(self):
        # The sparse rows of ``_killing_gram``, zeros left out, against
        # trace(ad_a . ad_b) of dense adjoint matrices, on gl(n), on the
        # rank normal forms and on dense random J.
        rng = random.Random(7)
        params = [BracketParam.commutator(n) for n in (1, 2, 3)]
        shapes = [(2, 2), (2, 3), (3, 2), (3, 3)]
        params += [BracketParam.normal(n, m, r) for n, m in shapes for r in range(min(n, m) + 1)]
        params += [
            BracketParam(n, m, Matrix([[rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)] for _ in range(m)]))
            for n, m in shapes
        ]
        for param in params:
            dense = killing_gram_bruteforce(param)
            rows = [{b: v for b, v in enumerate(dense.row(a)) if v} for a in range(param.dim)]
            flat = algebra._flat_ads(LieAlgebra.from_param(param))
            assert algebra._killing_gram(flat) == rows, (param.n, param.m)


@st.composite
def integer_parameters(draw, max_size=4):
    """An integer ``BracketParam`` up to ``max_size x max_size``: ``J`` is the
    product of an ``m x k`` and a ``k x n`` factor, so ``k = 0`` gives
    ``J = 0`` and ``k < min(n, m)`` a rank-deficient ``J``."""
    n, m = draw(st.integers(1, max_size)), draw(st.integers(1, max_size))
    k = draw(st.integers(0, min(n, m)))
    entries = st.sampled_from([0, 0, 1, -1, 2, -3])
    left = [draw(st.lists(entries, min_size=k, max_size=k)) for _ in range(m)]
    right = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(k)]
    return BracketParam(n, m, Matrix([[sum(a * b[y] for a, b in zip(row, right)) for y in range(n)] for row in left]))


class TestTraceLemmas:
    """The trace identity of ``J``: ``tr(J [A, B]_J) = tr(JAJB) - tr(JBJA)
    = 0``, so for ``J != 0`` the brackets lie in a hyperplane."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_brackets_are_traceless_against_the_parameter(self, data):
        # tr(J [A, B]_J) = 0 for all A and B.
        n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        entries = st.integers(-5, 5)

        def draw_matrix(rows, cols):
            return Matrix([data.draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)])

        param = BracketParam(n, m, draw_matrix(m, n))
        a, b = draw_matrix(n, m), draw_matrix(n, m)
        assert (param.j @ bracket(a, b, param)).trace() == 0


@st.composite
def unit_rule_parameters(draw, max_size=4):
    """A zero, unit, integer or rational ``J`` of a shape up to
    ``max_size x max_size``."""
    n, m = draw(st.integers(1, max_size)), draw(st.integers(1, max_size))
    kind = draw(st.sampled_from(["zero", "unit", "integer", "rational"]))
    if kind == "zero":
        return BracketParam(n, m, Matrix.zeros(m, n))
    if kind == "unit":
        return BracketParam(n, m, Matrix.unit(m, n, draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))))
    entries = st.sampled_from([0, 0, 1, -1, 2, -3])
    if kind == "rational":
        entries = st.builds(Fraction, entries, st.sampled_from([1, 2, 3, 4]))
    return BracketParam(n, m, Matrix([draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]))


def ad_matrix(L, x):
    """Dense matrix of ``y -> [x, y]``, assembled from ``_sparse_ads``."""
    xc = L.to_coords(x)
    ads = L._sparse_ads
    cols = []
    for b in range(L.dim):
        col = [0] * L.dim
        for a, xa in enumerate(xc):
            for k, w in ads[a].get(b, {}).items():
                col[k] += xa * w
        cols.append(col)
    return Matrix(tuple(zip(*cols)))


class TestAdjoint:
    """The sparse adjoint columns that the Jacobi check, the centralizer,
    the lower central series and the Killing form read."""

    def test_central_element_zero_map(self):
        alg = LieAlgebra.from_param(BracketParam.commutator(2))
        assert ad_matrix(alg, Matrix.identity(2)).is_zero()

    def test_columns_match_brackets(self):
        alg = LieAlgebra.from_param(BracketParam.commutator(2))
        ad = alg._sparse_ads[0]
        basis = basis_matrices(2, 2)
        for b, eb in enumerate(basis):
            expect = bracket(Matrix.unit(2, 2, 0, 0), eb, alg.model).entries
            assert tuple(ad.get(b, {}).get(k, 0) for k in range(4)) == expect

    def test_homomorphism_into_commutators(self):
        # ad_[x,y] = ad_x ad_y - ad_y ad_x, exactly.
        rng = random.Random(4)
        alg = LieAlgebra.from_param(BracketParam(2, 2, random_matrix(rng, 2, 2)))
        x = random_matrix(rng, 2, 2)
        y = random_matrix(rng, 2, 2)
        lhs = ad_matrix(alg, bracket(x, y, alg.model).entries)
        ax, ay = ad_matrix(alg, x), ad_matrix(alg, y)
        assert lhs == ax @ ay - ay @ ax

    def test_length_checked(self):
        alg = abelian(3)
        with pytest.raises(ShapeError):
            ad_matrix(alg, [1, 2])

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(unit_rule_parameters())
    @example(BracketParam(3, 4, Matrix([[1, Fraction(-1, 2), 3]] * 4)))
    @example(BracketParam.normal(4, 4, 4))
    def test_a_model_adjoint_is_its_table_and_its_bracket(self, param):
        # A model's adjoint is built from J, not from its table: column
        # ads[a][b] is table[(a, b)] above the diagonal, its negation below,
        # and the coordinates of the matrix bracket of E_a and E_b, with no
        # empty column and no zero, and ints for an integer J.
        L = LieAlgebra.from_param(param)
        ads = L._sparse_ads
        table = structure_constants(param).table
        basis = basis_matrices(param.n, param.m)
        integer = all(type(x) is int for x in param.j.entries)
        for a, cols in enumerate(ads):
            assert all(col and all(col.values()) for col in cols.values())
            if integer:
                assert all(type(v) is int for col in cols.values() for v in col.values())
            for b, e in enumerate(basis):
                col = cols.get(b, {})
                if a < b:
                    assert col == table.get((a, b), {})
                else:
                    assert col == {k: -v for k, v in table.get((b, a), {}).items()}
                assert algebra._dense(col, param.dim) == bracket(basis[a], e, param).entries

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        integer_parameters(max_size=3),
        st.lists(st.dictionaries(st.integers(0, 8), st.sampled_from([1, -1, 2, -3]), min_size=1, max_size=3), max_size=4),
    )
    @example(BracketParam.normal(3, 3, 3), [{0: 2}, {4: -3}, {1: 1, 3: 2}, {8: -1}])
    @example(BracketParam.normal(2, 3, 2), [{1: -3}, {3: 2}, {5: 1}])
    def test_the_series_kernel_brackets_the_rows_it_is_given(self, param, rows):
        # ``_next_generators`` yields the nonzero brackets of the rows it is
        # given, whatever their coefficients, single-entry rows included.
        d, basis = param.dim, basis_matrices(param.n, param.m)
        rows = [{k % d: v for k, v in row.items()} for row in rows]
        L = LieAlgebra.from_param(param)

        def element(row):
            return Matrix.from_flat(param.n, param.m, algebra._dense(row, d))

        pairs = [(element(y), element(z)) for p, y in enumerate(rows) for z in rows[p + 1 :]]
        acting = [e for e in basis if any(not bracket(e, f, param).is_zero() for f in basis)]
        for lower_central, operands in ((False, pairs), (True, [(e, element(y)) for e in acting for y in rows])):
            expected = [w for w in (bracket(x, y, param).entries for x, y in operands) if any(w)]
            got = algebra._next_generators(L, rows, lower_central)
            assert [algebra._dense(v, d) for v in got] == expected


class TestSubalgebraClosed:
    def test_block_triangle_shape_closed(self):
        # Matrices (G, H; 0, K) form a subalgebra of the rank-r algebra.
        n, r = 3, 2
        param = BracketParam.normal(n, n, r)
        mats = [Matrix.unit(n, n, i, j) for i in range(r) for j in range(r)]
        mats += [Matrix.unit(n, n, i, j) for i in range(r) for j in range(r, n)]
        assert subalgebra_closed(param, Subspace.span(n, n, mats)).passed
        mats += [Matrix.unit(n, n, i, j) for i in range(r, n) for j in range(r, n)]
        assert subalgebra_closed(param, Subspace.span(n, n, mats)).passed

    def test_whole_algebra_closed(self):
        param = BracketParam.commutator(2)
        assert subalgebra_closed(param, Subspace.span(2, 2, basis_matrices(2, 2))).passed

    def test_off_diagonal_pair_not_closed(self):
        param = BracketParam.commutator(2)
        span = Subspace.span(2, 2, [Matrix.unit(2, 2, 0, 1), Matrix.unit(2, 2, 1, 0)])
        verdict = subalgebra_closed(param, span)
        assert not verdict.passed
        assert verdict.witness["pair"] == [0, 1]

    def test_shape_guard_raises_before_any_bracket(self, monkeypatch):
        # The subspace must lie in Mat(param.n x param.m); a wrong ambient is
        # refused before any pair is bracketed.
        def no_bracket(*args, **kwargs):
            raise AssertionError("bracket formed before the shape check")

        monkeypatch.setattr(algebra, "bracket", no_bracket)
        span = Subspace.span(4, 1, [Matrix.unit(4, 1, 0, 0), Matrix.unit(4, 1, 1, 0)])
        with pytest.raises(ShapeError, match=r"subspace ambient 4x1 does not match algebra ambient 2x2"):
            subalgebra_closed(BracketParam.commutator(2), span)


class TestHomCheck:
    def test_identity_map(self):
        param = BracketParam.commutator(2)
        verdict = hom_check(Matrix.identity(4), LieAlgebra.from_param(param), param)
        assert verdict.is_hom and verdict.injective

    def test_zero_map(self):
        param = BracketParam.commutator(2)
        zero = Matrix.zeros(4, 4)
        verdict = hom_check(zero, LieAlgebra.from_param(param), param)
        assert verdict.is_hom and not verdict.injective

    def test_multiplication_by_invertible_parameter(self):
        # A -> J A is an isomorphism onto the commutator algebra.
        rng = random.Random(5)
        n = 2
        j = random_matrix(rng, n, n)
        while rank(j) != n:
            j = random_matrix(rng, n, n)
        src = LieAlgebra.from_param(BracketParam(n, n, j))
        cols = [(j @ e).entries for e in basis_matrices(n, n)]
        verdict = hom_check(from_columns(cols), src, BracketParam.commutator(n))
        assert verdict.is_hom and verdict.injective

    def test_non_hom_witnessed(self):
        src = LieAlgebra(3, sl2_constants())
        dst = BracketParam(3, 1, Matrix.zeros(1, 3))  # abelian: the zero bracket on columns
        verdict = hom_check(Matrix.identity(3), src, dst)
        assert not verdict.is_hom
        assert verdict.witness is not None

    @pytest.mark.parametrize("shape", [(4, 3), (5, 4)], ids=["too-few-columns", "too-many-rows"])
    def test_shape_guard_raises_before_any_bracket(self, monkeypatch, shape):
        # The map's matrix must be dst.dim x src.dim; a wrong shape is refused
        # before anything is bracketed.
        def no_bracket(*args, **kwargs):
            raise AssertionError("bracket formed before the shape check")

        monkeypatch.setattr(algebra, "_packed_brackets", no_bracket)
        param = BracketParam.commutator(2)
        with pytest.raises(ShapeError, match=rf"map {shape[0]}x{shape[1]} does not fit algebras of dims 4 -> 4"):
            hom_check(Matrix.zeros(*shape), LieAlgebra.from_param(param), param)


def first_hom_failure(f, src_param, dst_param):
    """The first basis pair a < b where ``f([x_a, x_b]) != [f x_a, f x_b]``,
    with both sides, from products with the map's matrix and the matrix
    bracket."""
    n, m = dst_param.n, dst_param.m
    basis = basis_matrices(src_param.n, src_param.m)
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            lhs = (f @ Matrix.column(bracket(basis[a], basis[b], src_param).entries)).entries
            fa, fb = (Matrix.from_flat(n, m, f.column_tuple(c)) for c in (a, b))
            rhs = bracket(fa, fb, dst_param).entries
            if lhs != rhs:
                return [a, b], lhs, rhs
    return None


def nonzero_json(coords):
    return {str(k): str(v) for k, v in enumerate(coords) if v != 0}


class TestHomCheckWitness:
    """A failure witness carries the values of the unscaled test, although
    the check runs on the map scaled to integers."""

    SRC = BracketParam(2, 3, Matrix([[1, 2], [0, -1], [3, 1]]))
    DST = BracketParam(2, 3, Matrix([[2, 0], [1, 1], [0, -3]]))

    def fractional_map(self):
        rng = random.Random(8)
        pool = [0, 1, -2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
        f = Matrix([[rng.choice(pool) for _ in range(6)] for _ in range(6)])
        assert any(type(x) is Fraction for x in f.entries)
        return f

    def test_model_route(self):
        f = self.fractional_map()
        verdict = hom_check(f, LieAlgebra.from_param(self.SRC), self.DST)
        pair, lhs, rhs = first_hom_failure(f, self.SRC, self.DST)
        assert not verdict.is_hom
        assert verdict.witness == {
            "pair": pair,
            "f_of_bracket": nonzero_json(lhs),
            "bracket_of_images": nonzero_json(rhs),
        }
        assert verdict.injective == (rank(f) == 6)

    def test_fractional_homomorphism_passes(self):
        # A -> A / 2 maps the bracket of J to the bracket of 2J.
        half = Matrix.identity(6) * Fraction(1, 2)
        verdict = hom_check(half, LieAlgebra.from_param(self.SRC), BracketParam(2, 3, self.SRC.j * 2))
        assert verdict.bijective and verdict.witness is None


def plain_hom_failures(f, src, dst):
    """The witness of every failing basis pair of ``hom_check``, in pair
    order, from a plain loop over the basis pairs: the right side from
    ``brackets.bracket`` on the image matrices under the parameter ``dst``,
    each pair compared entry by entry.  The reference for the packed
    comparison, independent of its kernel."""
    d = src.dim
    flat, den = matrices._integer_row(f.entries)
    fcols = [flat[a::d] for a in range(d)]
    fterms = [[(t, x) for t, x in enumerate(col) if x] for col in fcols]
    rows, cols = dst.n, dst.m
    images = [Matrix._raw(tuple(tuple(col[i * cols : (i + 1) * cols]) for i in range(rows))) for col in fcols]
    pairs = ((a, b, bracket(images[a], images[b], dst).entries) for a in range(d) for b in range(a + 1, d))
    for a, b, rhs in pairs:
        lhs = [0] * dst.dim
        for k, v in src.constants.table.get((a, b), {}).items():
            w = den * v
            for t, x in fterms[k]:
                lhs[t] += w * x
        if tuple(lhs) != tuple(rhs):
            den2 = den * den
            yield {
                "pair": [a, b],
                "f_of_bracket": nonzero_json(scalar_div(x, den2) for x in lhs),
                "bracket_of_images": nonzero_json(scalar_div(x, den2) for x in rhs),
            }


def plain_hom_check(f, src, dst):
    """``hom_check`` from ``plain_hom_failures``: its first failure, and the
    rank of the map for injectivity."""
    witness = next(plain_hom_failures(f, src, dst), None)
    return HomVerdict(witness is None, rank(f) == src.dim, witness)


def typed(x):
    """``x`` with the type of every value, dicts in their key order."""
    if isinstance(x, dict):
        return ("dict", [(typed(k), typed(v)) for k, v in x.items()])
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, [typed(v) for v in x])
    return (type(x).__name__, x)


def assert_same_verdict(f, src, dst):
    got, expected = hom_check(f, src, dst), plain_hom_check(f, src, dst)
    assert (got.is_hom, got.injective) == (expected.is_hom, expected.injective)
    assert typed(got.witness) == typed(expected.witness)
    return got


@st.composite
def hom_cases(draw):
    """``(f, src, dst)`` on shapes up to 4x4, 1xk and kx1 included, with
    integer or rational parameters (so rational source constants too):
    an isomorphism witness (a homomorphism), the witness times a scalar
    other than 1, a dense map (which fails at the first pair whose bracket
    is not zero), a map with only its last two images nonzero from an abelian
    source (which can fail at the last pair only), or the zero map."""
    n, m = draw(st.sampled_from([(a, b) for a in range(1, 5) for b in range(1, 5)]))
    d = n * m

    def entries(pool, count):
        return draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count))

    def square(size, pool):
        # Lower unitriangular times upper triangular with a nonzero diagonal.
        nonzero = [x for x in pool if x != 0]

        def pick(entries):
            return draw(st.sampled_from(entries))

        low = Matrix([[1 if i == j else pick(pool) if j < i else 0 for j in range(size)] for i in range(size)])
        up = Matrix([[pick(nonzero if i == j else pool) if j >= i else 0 for j in range(size)] for i in range(size)])
        return low @ up

    pool = draw(st.sampled_from([INTEGERS, RATIONALS]))
    flat = entries(pool, d)
    j2 = Matrix([flat[i * n : (i + 1) * n] for i in range(m)])
    kind = draw(st.sampled_from(["witness", "scaled", "dense", "last-pair", "zero"]))
    if kind in ("witness", "scaled"):
        j1 = square(m, pool) @ j2 @ square(n, pool)
        f = iso_witness(j1, j2)
        if kind == "scaled":
            f = f * draw(st.sampled_from([2, -1, Fraction(1, 2), Fraction(-3, 2)]))
    else:
        flat = entries(draw(st.sampled_from([INTEGERS, RATIONALS])), d)
        j1 = Matrix([flat[i * n : (i + 1) * n] for i in range(m)]) if kind == "dense" else Matrix.zeros(m, n)
        map_pool = draw(st.sampled_from([INTEGERS, RATIONALS]))
        nonzero = {"dense": d, "last-pair": min(d, 2), "zero": 0}[kind]
        cols = [[0] * d for _ in range(d - nonzero)] + [entries(map_pool, d) for _ in range(nonzero)]
        f = from_columns(cols)
    return f, LieAlgebra.from_param(BracketParam(n, m, j1)), BracketParam(n, m, j2)


class TestPackedHomCheck:
    """``hom_check`` packs each side of each pair into one integer.  Its
    verdicts and witnesses must be those of the plain loop."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(hom_cases())
    def test_matches_the_plain_loop(self, case):
        assert_same_verdict(*case)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(hom_cases())
    def test_failures_are_every_failing_pair_in_order(self, case):
        # ``_hom_failures`` yields the witness of every failing pair of the
        # plain loop, in pair order, and ``hom_check`` reports the first.
        f, src, dst = case
        d = src.dim
        flat, den = matrices._integer_row(f.entries)
        got = list(algebra._hom_failures([flat[a::d] for a in range(d)], den, src.constants.table, dst))
        assert typed(got) == typed(list(plain_hom_failures(f, src, dst)))
        assert typed(hom_check(f, src, dst).witness) == typed(got[0] if got else None)

    # Cases at the slot-width bound.  Each pairs a source table on the pair
    # (0, 1) alone with images chosen so that the two sides of that pair
    # differ by a vector that packs to 0 at a slot narrower than the bound
    # allows: ``-2^v e_0 + e_1`` (or a multiple), as ``-2^v + 2^v = 0``.
    # The first case reaches the bound; the others have a left side that
    # outweighs the right one, through the coefficients, the image entries
    # or the map's and the parameter's denominators.
    BOUND_CASES = {
        # 2x4, J with a zero first row and ones below: [X_0, X_1] has the
        # entry 48 = 2 n max|X| max|Y| (max|X| = 2, max|Y| = 2 * 3), and the
        # left side is (-16, 1, 0, ...), so they pack alike with 6-bit slots.
        "right-side-at-the-bound": (
            2, 4, [[0, 0], [1, 1], [1, 1], [1, 1]],
            [[2, 2, 2, 2, 2, 0, 0, 0], [2, -2, -2, -2, 2, 0, 0, 0], [2, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0]],
            {2: -8, 3: 1},
        ),
        "left-side-by-its-coefficients": (
            1, 4, [[0], [0], [0], [0]], [[0] * 4, [0] * 4, [1, 0, 0, 0], [0, 1, 0, 0]], {2: -4, 3: 1},
        ),
        "left-side-by-its-images": (
            2, 2, [[0, 0], [0, 0]], [[0] * 4, [0] * 4, [4, 0, 0, 0], [0, 1, 0, 0]], {2: -2, 3: 1},
        ),
        "left-side-by-the-denominators": (
            3, 1, [[Fraction(1, 2), -1, 0]], [[0, -1, -1], [1, 1, 0], [1, 1, 0]], {2: 2047},
        ),
    }

    @pytest.mark.parametrize("name", sorted(BOUND_CASES))
    def test_matches_the_plain_loop_at_the_bound(self, name):
        n, m, j, cols, terms = self.BOUND_CASES[name]
        d = n * m
        cols = cols + [[0] * d for _ in range(d - len(cols))]
        src = LieAlgebra(d, StructureConstants(d, {(0, 1): terms}))
        verdict = assert_same_verdict(from_columns(cols), src, BracketParam(n, m, Matrix(j)))
        assert verdict.witness["pair"] == [0, 1]

    def test_the_bound_case_reaches_the_bound(self):
        n, m, j, cols, terms = self.BOUND_CASES["right-side-at-the-bound"]
        param = BracketParam(n, m, Matrix(j))
        x0, x1 = (Matrix.from_flat(n, m, c) for c in cols[:2])
        right = bracket(x0, x1, param).entries
        max_x = max(abs(v) for c in cols for v in c)
        max_y = max(abs(v) for c in cols for v in (Matrix.from_flat(n, m, c) @ param.j).entries)
        assert right[0] == 2 * n * max_x * max_y == 48
        left = [sum(v * cols[k][t] for k, v in terms.items()) for t in range(n * m)]
        assert left[:2] == [-16, 1] and left[2:] == list(right[2:]) == [0] * 6
        assert left[0] + (left[1] << 6) == right[0]  # equal packings with 6-bit slots

    def test_one_packed_bracket_kernel(self, monkeypatch):
        # ``_pair_brackets``, ``hom_check`` into a matrix model and the
        # witness check of ``classify`` on a pair whose factor identity
        # fails bracket through one kernel: with ``brackets._packed_brackets``
        # refused wherever it is bound, each of them raises.
        real = brackets._packed_brackets

        class Refused(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Refused

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "liebrackets" and getattr(module, "_packed_brackets", None) is real:
                monkeypatch.setattr(module, "_packed_brackets", refuse)
        param = BracketParam.normal(2, 3, 1)
        L = LieAlgebra.from_param(param)
        with pytest.raises(Refused):
            _pair_brackets(basis_matrices(2, 3), param)
        with pytest.raises(Refused):
            hom_check(Matrix.identity(6), L, param)
        pflat, dp, qflat, dq = classify._witness_factors(param.j, param.j)
        monkeypatch.setattr(classify, "_witness_factors", lambda j1, j2: (pflat, dp, qflat, 2 * dq))
        with pytest.raises(Refused):
            classify._checked_witness(param.j, param.j)


class TestSignature:
    def test_abelian(self):
        sig = invariant_signature(abelian(4))
        assert sig.dim == 4 and sig.center_dim == 4
        assert sig.derived_dims == (4, 0) and sig.lcs_dims == (4, 0)
        assert sig.killing_rank == 0 and sig.derived_center_dim == 0

    def test_gl2_vs_rank_one(self):
        full = invariant_signature(LieAlgebra.from_param(BracketParam.commutator(2)))
        low = invariant_signature(LieAlgebra.from_param(BracketParam(2, 2, Matrix.diagonal([1, 0]))))
        assert full.center_dim == 1 and full.killing_rank == 3
        assert low.center_dim == 1
        assert low.killing_rank != full.killing_rank
        assert full != low

    def test_preserved_by_verified_isomorphism(self):
        rng = random.Random(6)
        for _ in range(5):
            n, m = rng.randint(2, 3), rng.randint(2, 3)
            r = rng.randint(0, min(n, m))
            j1 = random_parameter(rng, m, n, r)
            j2 = random_parameter(rng, m, n, r)
            src = LieAlgebra.from_param(BracketParam(n, m, j1))
            dst = BracketParam(n, m, j2)
            assert hom_check(iso_witness(j1, j2), src, dst).bijective
            assert invariant_signature(src) == invariant_signature(LieAlgebra.from_param(dst))

    def test_random_integer_j_matches_rank_normal_form(self):
        # Dense integer J drive entry growth in elimination; the bracket is
        # still isomorphic to the one of the rank normal form.
        rng = random.Random(7)
        for n in (5, 6):
            j = Matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            sig = invariant_signature(LieAlgebra.from_param(BracketParam(n, n, j)))
            assert sig == invariant_signature(LieAlgebra.from_param(BracketParam.normal(n, n, rank(j))))

    def test_json_flat(self):
        sig = invariant_signature(abelian(2))
        js = sig.to_json()
        assert set(js) == {
            "dim",
            "center_dim",
            "derived_dims",
            "lcs_dims",
            "killing_rank",
            "derived_center_dim",
        }

    def test_invariant_under_scaling_j(self):
        # J, J/3 and (7/2) J have the signature of the rank normal form of J:
        # the equal-rank classification, reached through scaled constants.
        rng = random.Random(9)
        for n, m in ((3, 3), (2, 4), (4, 2)):
            j = random_matrix(rng, m, n)
            sigs = {
                invariant_signature(LieAlgebra.from_param(BracketParam(n, m, j * c)))
                for c in (1, Fraction(1, 3), Fraction(7, 2))
            }
            assert sigs == {invariant_signature(LieAlgebra.from_param(BracketParam.normal(n, m, rank(j))))}

    @pytest.mark.parametrize("n, m", [(n, m) for n in range(1, 6) for m in range(1, 6)])
    def test_center_dim_is_the_dimension_of_center(self, n, m):
        # The signature's rank of the transposed adjoint rows against the
        # kernel basis of the public ``center``, on every normal form.
        for r in range(min(n, m) + 1):
            L = LieAlgebra.from_param(BracketParam.normal(n, m, r))
            assert invariant_signature(L).center_dim == center(L).dim

    def test_path_parameter_has_gl_signature(self):
        # J_t = (1 - t) I + t J_r at t = 1/3 is invertible: the bracket is
        # isomorphic to the commutator of gl_4.  (r = n gives J_t = I.)
        n = 4
        gl = invariant_signature(LieAlgebra.from_param(BracketParam.commutator(n)))
        for r in range(n):
            param = deformation_bracket(n, rank_normal_form(n, n, r), Fraction(1, 3))
            assert any(type(x) is Fraction for x in param.j.entries)
            assert invariant_signature(LieAlgebra.from_param(param)) == gl


# ---------------------------------------------------------------------------
# The signature engine against the Fraction-coordinate engine it replaced.
# ---------------------------------------------------------------------------


def reference_jacobi_check(L):
    """``algebra.jacobi_check`` kept verbatim from before it read the sparse
    adjoint columns: it expands each inner bracket through ``bracket_basis``."""
    cb = L.constants.bracket_basis
    d = L.dim
    pair_cache = {}
    for a in range(d):
        for b in range(a + 1, d):
            pair_cache[(a, b)] = cb(a, b)

    def ad_into(acc, sign, x, inner):
        for k, v in inner.items():
            for t, w in cb(x, k).items():
                acc[t] = acc.get(t, 0) + sign * v * w

    for a in range(d):
        for b in range(a + 1, d):
            ab = pair_cache[(a, b)]
            for c in range(b + 1, d):
                defect = {}
                ad_into(defect, 1, a, pair_cache[(b, c)])
                ad_into(defect, -1, b, pair_cache[(a, c)])
                ad_into(defect, 1, c, ab)
                if any(v != 0 for v in defect.values()):
                    return Verdict(
                        False,
                        {
                            "triple": [a, b, c],
                            "defect": {str(k): scalar_str(v) for k, v in defect.items() if v != 0},
                        },
                    )
    return Verdict(True)


def second_term_flipped(param):
    """The algebra of ``param`` with the sign of the second term of every
    basis-pair bracket flipped (``[E_a, E_b] = T(a, b) + T(b, a)``): a table
    laid out like a bracket-family table that breaks Jacobi."""
    m = param.m
    table = {
        (a, b): {k: -v if k == b - b % m + a % m else v for k, v in terms.items()}
        for (a, b), terms in structure_constants(param).table.items()
    }
    return LieAlgebra(param.dim, StructureConstants(param.dim, table))


def family_parameters(n, m, rng):
    """Dense integer and rational J, every unit E_p and ten sums E_p + E_q."""
    units = [Matrix.unit(m, n, x, y) for x in range(m) for y in range(n)]
    sums = [(p, q) for p in range(len(units)) for q in range(p + 1, len(units))]
    return (
        [random_matrix(rng, m, n) for _ in range(2)]
        + [Matrix([[rng.choice(RATIONALS) for _ in range(n)] for _ in range(m)])]
        + units
        + [units[p] + units[q] for p, q in rng.sample(sums, min(10, len(sums)))]
    )


class TestJacobiDifferential:
    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("m", range(1, 5))
    def test_bracket_family_tables_match_the_reference(self, n, m):
        # Family tables pass; their flipped tables fail, so the witnesses of
        # failures laid out like family tables are compared too.
        rng = random.Random(f"jacobi:{n}x{m}")
        for j in family_parameters(n, m, rng):
            param = BracketParam(n, m, j)
            for L in (LieAlgebra.from_param(param), second_term_flipped(param)):
                got, expected = jacobi_check(L), reference_jacobi_check(L)
                assert got == expected, (n, m, str(j))
                assert json.dumps(got.witness) == json.dumps(expected.witness)


def _kernel_subspace(L: LieAlgebra, rows: Dict[tuple, list]) -> Subspace:
    """The kernel of the dense ``rows`` through ``matrices.kernel``, written
    out as ambient matrices and spanned again: the route ``algebra.center``
    and ``centralizer`` took before they read the null space off the sparse
    echelon basis, kept verbatim as the reference of both."""
    if not rows:
        return L.full_subspace()
    mat = Matrix._raw(tuple(tuple(rows[key]) for key in sorted(rows)))
    ker = kernel(mat)
    ar, ac = L.ambient_shape
    return Subspace.span(ar, ac, [L.from_coords(v.column_tuple(0)) for v in ker.basis])


def reference_center(L):
    """``algebra.center`` kept verbatim from before it delegated to
    ``centralizer``: its own loop over the constants table."""
    rows = {}

    def row(b, k):
        key = (b, k)
        if key not in rows:
            rows[key] = [0] * L.dim
        return rows[key]

    for (i, j), terms in L.constants.table.items():
        for k, v in terms.items():
            row(j, k)[i] += v
            row(i, k)[j] -= v
    return _kernel_subspace(L, rows)


def reference_centralizer(L, S):
    """``algebra.centralizer`` kept verbatim from before it scaled the basis
    of ``S`` to integers."""
    if (S.ambient_rows, S.ambient_cols) != L.ambient_shape:
        raise ShapeError(
            f"subspace ambient {S.ambient_rows}x{S.ambient_cols} does not match "
            f"algebra ambient {L.ambient_shape[0]}x{L.ambient_shape[1]}"
        )
    rows = {}
    for s_idx, s in enumerate(S.basis):
        sc = L.to_coords(s)

        def row(k, _s=s_idx):
            key = (_s, k)
            if key not in rows:
                rows[key] = [0] * L.dim
            return rows[key]

        for (i, j), terms in L.constants.table.items():
            ci, cj = sc[i], sc[j]
            if ci == 0 and cj == 0:
                continue
            for k, v in terms.items():
                if cj != 0:
                    row(k)[i] += v * cj
                if ci != 0:
                    row(k)[j] -= v * ci
    return _kernel_subspace(L, rows)


def reference_bracket_coords(constants, x, y):
    """Bilinear expansion of ``[x, y]`` for dense coordinate vectors, by a
    scan of the whole table: the former ``StructureConstants.bracket_coords``."""
    out = [0] * constants.dim
    for (a, b), terms in constants.table.items():
        c = x[a] * y[b] - x[b] * y[a]
        if c != 0:
            for k, v in terms.items():
                out[k] += c * v
    return tuple(out)


def _span_coords(vectors) -> list:
    """Echelonized list of coordinate tuples spanning the given vectors (the
    former ``algebra._span_coords``, which ``reference_series`` calls)."""
    return list(_eliminate(vectors)[0])


def reference_series(L, lower_central):
    """``algebra._series`` kept verbatim from before it bracketed integer
    vectors: it brackets the canonical (``Fraction``) echelon rows of each
    term, and starts from the unit vectors."""
    d = L.dim
    current = [tuple(1 if i == k else 0 for i in range(d)) for k in range(d)]
    terms = [L.full_subspace()]
    dims = [d]
    while len(terms) <= d + 1:
        if lower_central:
            gens = []
            for a in range(d):
                for y in current:
                    v = [0] * d
                    for b, yb in enumerate(y):
                        if yb == 0 or a == b:
                            continue
                        for k, w in L.constants.bracket_basis(a, b).items():
                            v[k] += yb * w
                    gens.append(tuple(v))
        else:
            gens = [
                reference_bracket_coords(L.constants, current[a], current[b])
                for a in range(len(current))
                for b in range(a + 1, len(current))
            ]
        nxt = _span_coords(gens)
        terms.append(Subspace._from_echelon(*L.ambient_shape, nxt))
        if len(nxt) == 0 or len(nxt) == dims[-1]:
            break
        dims.append(len(nxt))
        current = nxt
    return terms


def reference_invariant_signature(L):
    """``algebra.invariant_signature`` kept verbatim from before it scaled
    the constants to integers, on the reference center, series and
    centralizer."""
    ctr = reference_center(L)
    der = reference_series(L, lower_central=False)
    lcs = reference_series(L, lower_central=True)
    _, k_rank = killing_form(L)
    derived_sub = der[1] if len(der) > 1 else der[0]
    if derived_sub.dim == 0:
        dcd = 0
    else:
        dcd = intersection(reference_centralizer(L, derived_sub), derived_sub).dim
    return InvariantSignature(
        dim=L.dim,
        center_dim=ctr.dim,
        derived_dims=tuple(t.dim for t in der),
        lcs_dims=tuple(t.dim for t in lcs),
        killing_rank=k_rank,
        derived_center_dim=dcd,
    )


def typed_rows(space):
    """Echelon rows and basis entries of a subspace, each with its type."""
    return (
        [[(x, type(x)) for x in row] for row in space._echelon_rows()],
        [[(x, type(x)) for x in b.entries] for b in space.basis],
    )


INTEGERS = [0, 0, 0, 1, -1, 2, -3, 7]
RATIONALS = INTEGERS + [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6), Fraction(-7, 4)]
PATH_TIMES = [Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), Fraction(2, 7), 1]


@st.composite
def signature_algebras(draw):
    """An algebra of one of five kinds: the bracket of an integer, a rational
    or the zero J, or of a path parameter ``(1 - t) I + t J_r``, on shapes up
    to 3x4 and 4x3; or random antisymmetric constants with no matrix model
    (the Jacobi identity is not needed by the series or the centralizer)."""
    kind = draw(st.sampled_from(["integer", "rational", "zero", "path", "abstract"]))
    if kind == "abstract":
        d = draw(st.integers(1, 7))
        table = {}
        for a in range(d):
            for b in range(a + 1, d):
                if draw(st.booleans()):
                    table[(a, b)] = dict(
                        draw(st.lists(st.tuples(st.integers(0, d - 1), st.sampled_from(RATIONALS)), max_size=2))
                    )
        return LieAlgebra(d, StructureConstants(d, table))
    if kind == "path":
        n = draw(st.integers(1, 3))
        r = draw(st.integers(0, n))
        t = draw(st.sampled_from(PATH_TIMES))
        return LieAlgebra.from_param(deformation_bracket(n, rank_normal_form(n, n, r), t))
    n, m = draw(st.sampled_from([(a, b) for a in range(1, 5) for b in range(1, 5) if a * b <= 12]))
    pool = {"integer": INTEGERS, "rational": RATIONALS, "zero": [0]}[kind]
    flat = draw(st.lists(st.sampled_from(pool), min_size=n * m, max_size=n * m))
    return LieAlgebra.from_param(BracketParam(n, m, Matrix([flat[i * n : (i + 1) * n] for i in range(m)])))


@st.composite
def random_spans(draw, L):
    """A span of up to four random elements of the algebra's space."""
    rows, cols = L.ambient_shape
    count = draw(st.integers(0, 4))
    mats = [
        Matrix.from_flat(rows, cols, draw(st.lists(st.sampled_from(RATIONALS), min_size=L.dim, max_size=L.dim)))
        for _ in range(count)
    ]
    return Subspace.span(rows, cols, mats)


def without_dense_route(compute):
    """``compute()`` with ``matrices.kernel``, ``Subspace.span``,
    ``algebra._dense`` and the checked ``Matrix`` constructor refusing to
    run: the center and the centralizers read the null space off the sparse
    echelon basis, so they build no dense kernel basis, span or row."""

    def refuse(*args, **kwargs):
        raise AssertionError("took the dense route")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrices, "kernel", refuse)
        mp.setattr(Subspace, "span", refuse)
        mp.setattr(algebra, "_dense", refuse)
        mp.setattr(Matrix, "__init__", refuse)
        return compute()


SIGNATURE_DIFFERENTIAL = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestSignatureDifferential:
    @SIGNATURE_DIFFERENTIAL
    @given(signature_algebras())
    def test_series_match_reference(self, L):
        for lower_central, series in ((False, derived_series), (True, lower_central_series)):
            got, expected = series(L), reference_series(L, lower_central)
            assert [typed_rows(t) for t in got] == [typed_rows(t) for t in expected]

    @SIGNATURE_DIFFERENTIAL
    @given(signature_algebras(), st.data())
    def test_centralizer_matches_reference(self, L, data):
        derived = reference_series(L, lower_central=False)[1]
        for S in (derived, data.draw(random_spans(L))):
            expected = typed_rows(reference_centralizer(L, S))
            assert without_dense_route(lambda: typed_rows(centralizer(L, S))) == expected

    @SIGNATURE_DIFFERENTIAL
    @given(signature_algebras())
    def test_center_matches_reference(self, L):
        expected = typed_rows(reference_center(L))
        assert without_dense_route(lambda: typed_rows(center(L))) == expected

    @SIGNATURE_DIFFERENTIAL
    @given(signature_algebras())
    def test_center_dim_is_the_dimension_of_center(self, L):
        dim = center(L).dim
        assert invariant_signature(L).center_dim == invariant_signature(model_less(L)).center_dim == dim

    @SIGNATURE_DIFFERENTIAL
    @given(signature_algebras())
    def test_jacobi_verdict_matches_reference(self, L):
        # The abstract kind gives tables that break Jacobi, so failure
        # witnesses are compared too, in the order the CLI prints them.
        got, expected = jacobi_check(L), reference_jacobi_check(L)
        assert got == expected
        assert json.dumps(got.witness) == json.dumps(expected.witness)

    @SIGNATURE_DIFFERENTIAL
    @given(signature_algebras())
    def test_signature_matches_reference(self, L):
        # With a model the signature is taken on the rank normal form; its
        # model-less twin runs the kernel on the algebra itself.
        expected = reference_invariant_signature(L)
        assert invariant_signature(L) == invariant_signature(model_less(L)) == expected

    @SIGNATURE_DIFFERENTIAL
    @given(signature_algebras())
    def test_signature_builds_no_subspace(self, L):
        # Only dimensions are read, so no span, kernel basis or intersection
        # is built: each one raises here.
        expected = reference_invariant_signature(L)

        def refuse(*args, **kwargs):
            raise AssertionError("invariant_signature built a subspace")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Subspace, "_from_echelon", refuse)
            mp.setattr(matrices, "kernel", refuse)
            assert invariant_signature(L) == expected

    @SIGNATURE_DIFFERENTIAL
    @given(signature_algebras())
    def test_ranks_match_sympy(self, L):
        sympy = pytest.importorskip("sympy")
        expected = sympy_signature_ranks(sympy, L)
        for A in (L, model_less(L)):
            sig = invariant_signature(A)
            assert (sig.center_dim, sig.killing_rank, sig.derived_center_dim) == expected


# Table, derived dimensions and lower-central dimensions.  gl(3) has
# [g, g] = sl(3) perfect, so its lower central series is read off the derived
# one; on the others it is eliminated.  sl(2) + b(2), with b(2) the
# two-dimensional non-abelian algebra ([h, e] = e), has a derived series that
# becomes stationary one step later than its lower central series does.
STATIONARY_CASES = {
    "gl3": (structure_constants(BracketParam.commutator(3)), (9, 8, 8), (9, 8, 8)),
    "heisenberg": (heisenberg3_constants(), (3, 1, 0), (3, 1, 0)),
    "filiform": (StructureConstants(4, {(0, 1): {2: 1}, (0, 2): {3: 1}}), (4, 2, 0), (4, 2, 1, 0)),
    "sl2+b2": (
        StructureConstants(5, {**sl2_constants().table, (3, 4): {4: 1}}),
        (5, 4, 3, 3),
        (5, 4, 4),
    ),
}


class TestSignatureStationaryDerivedAlgebra:
    @pytest.mark.parametrize("name", sorted(STATIONARY_CASES))
    def test_lower_central_series_is_eliminated_unless_g_g_is_perfect(self, monkeypatch, name):
        constants, derived, lcs = STATIONARY_CASES[name]
        L = LieAlgebra(constants.dim, constants)
        calls = []
        real = algebra._series_rows

        def spy(L, lower_central):
            calls.append(lower_central)
            return real(L, lower_central)

        monkeypatch.setattr(algebra, "_series_rows", spy)
        sig = invariant_signature(L)
        assert (sig.derived_dims, sig.lcs_dims) == (derived, lcs)
        assert sig == reference_invariant_signature(L)
        assert calls == ([False] if name == "gl3" else [False, True])


# ``(dim Z([g, g]), dim (Z(g) meet [g, g]), dim [g, g])`` of the algebras
# above, by hand.  gl(3): [g, g] = sl(3) is centerless, and the scalars Z(g)
# are not traceless.  Heisenberg: [g, g] = Z(g) = <z>.  Filiform:
# [g, g] = <x2, x3> is abelian, while Z(g) = <x3>.  sl(2) + b(2):
# [g, g] = sl(2) + <x4> has center <x4>, while Z(g) = 0, so Z([g, g]) is
# neither of the other two.
DERIVED_CENTERS = {"gl3": (0, 0, 8), "heisenberg": (1, 1, 1), "filiform": (2, 1, 2), "sl2+b2": (1, 0, 4)}


@pytest.mark.parametrize("name", sorted(DERIVED_CENTERS))
def test_derived_center_dim_by_hand(name):
    constants = STATIONARY_CASES[name][0]
    L = LieAlgebra(constants.dim, constants)
    expected, center_in_derived, derived_dim = DERIVED_CENTERS[name]
    derived = derived_series(L)[1]
    assert (derived.dim, intersection(center(L), derived).dim) == (derived_dim, center_in_derived)
    assert invariant_signature(L).derived_center_dim == expected


def sympy_signature_ranks(sympy, L):
    """``(center_dim, killing_rank, derived_center_dim)`` by sympy, from the
    constants table alone: ``ad_a[k, b] = c_ab^k``, the center is the null
    space of the stacked ``ad_a``, the Killing form is ``trace(ad_a ad_b)``,
    and the center of ``[g, g]`` is the null space of ``c -> ([B c, b_j])_j``
    for a column basis ``B`` of the brackets of the basis pairs."""
    d = L.dim
    ads = [sympy.zeros(d, d) for _ in range(d)]
    for (a, b), terms in L.constants.table.items():
        for k, v in terms.items():
            v = sympy.Rational(v.numerator, v.denominator)
            ads[a][k, b] += v
            ads[b][k, a] -= v
    center_dim = len(sympy.Matrix.vstack(*ads).nullspace())
    killing_rank = sympy.Matrix(d, d, lambda a, b: (ads[a] * ads[b]).trace()).rank()
    pairs = [ads[a][:, b] for a, b in L.constants.table]
    basis = sympy.Matrix.hstack(*pairs).columnspace() if pairs else []
    if not basis:
        return center_dim, killing_rank, 0
    b_mat = sympy.Matrix.hstack(*basis)
    # [y, b_j] = C_j y with column a of C_j equal to ad_a b_j.
    blocks = [sympy.Matrix.hstack(*(ad * b for ad in ads)) * b_mat for b in basis]
    return center_dim, killing_rank, len(sympy.Matrix.vstack(*blocks).nullspace())


def reference_echelon(rows, width=None, bound=None):
    """``matrices._echelon`` kept verbatim from before it read sparse rows:
    each row is scaled to integers by ``_integer_row`` and reduced as a dense
    list at every basis pivot.  Returns ``[pivot column, primitive integer
    row]`` in the order built."""
    if width is None:
        width = len(rows[0]) if rows else 0
    if bound is None:
        bound = width
    basis = []  # [pivot column, primitive integer row]
    for row in rows:
        v = matrices._integer_row(row)[0]
        if not any(v):
            continue
        for c, prow in basis:
            f = v[c]
            if f:
                p = prow[c]
                v = [p * x - f * y for x, y in zip(v, prow)]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is None:
            continue
        g = math.gcd(*v)
        if g != 1:
            v = [x // g for x in v]
        pv = v[lead]
        for entry in basis:
            prow = entry[1]
            f = prow[lead]
            if f:
                b = [pv * x - f * y for x, y in zip(prow, v)]
                g = math.gcd(*b)
                entry[1] = b if g == 1 else [x // g for x in b]
        basis.append([lead, v])
        if len(basis) == bound:
            break
    return basis


def dense_reference_signature(L):
    """The invariant signature from dense rows alone, every rank taken by
    ``reference_echelon``: brackets by ``reference_bracket_coords``, the
    center from the stacked adjoint, both series eliminated in full (no
    bound and no shortcut), the Killing rank from ``trace(ad_a ad_b)`` and
    the derived center from the rows ``([b_i, b_j]_t)_i``."""
    d = L.dim
    units = [tuple(int(i == k) for i in range(d)) for k in range(d)]

    def br(y, z):
        return reference_bracket_coords(L.constants, y, z)

    def basis(rows, width=d):
        return [row for _, row in reference_echelon(list(rows), width)]

    ad = [[br(units[a], units[b]) for b in range(d)] for a in range(d)]  # ad[a][b] = [x_a, x_b]
    derived = basis(ad[a][b] for a in range(d) for b in range(a + 1, d))

    def series_dims(lower_central):
        terms = [derived]
        prev = d
        while 0 < len(terms[-1]) < prev:
            prev = len(terms[-1])
            cur = terms[-1]
            if lower_central:
                gens = [br(x, y) for x in units for y in cur]
            else:
                gens = [br(y, z) for p, y in enumerate(cur) for z in cur[p + 1 :]]
            terms.append(basis(gens))
        return (d,) + tuple(len(t) for t in terms)

    # Row k of ad_a, flattened, and column k of ad_b: trace(ad_a ad_b) is their dot product.
    flat_rows = [[ad[a][c][k] for k in range(d) for c in range(d)] for a in range(d)]
    flat_cols = [[ad[b][k][c] for k in range(d) for c in range(d)] for b in range(d)]
    gram = [[sum(map(mul, flat_rows[a], flat_cols[b])) for b in range(d)] for a in range(d)]
    k = len(derived)
    center_rows = [[ad[x][i][t] for i in range(d)] for x in range(d) for t in range(d)]
    m_rows = []
    for z in derived:
        brackets = [br(y, z) for y in derived]
        m_rows += [[w[t] for w in brackets] for t in range(d)]
    return InvariantSignature(
        dim=d,
        center_dim=d - len(basis(center_rows)),
        derived_dims=series_dims(False),
        lcs_dims=series_dims(True),
        killing_rank=len(basis(gram)),
        derived_center_dim=k - len(basis(m_rows, k)),
    )


def low_rank_rational(rng, n, m, r):
    """A rational ``m x n`` parameter of rank at most ``r``: a sum of ``r``
    outer products of vectors with entries in ``RATIONALS``."""
    us = [[rng.choice(RATIONALS) for _ in range(m)] for _ in range(r)]
    vs = [[rng.choice(RATIONALS) for _ in range(n)] for _ in range(r)]
    return Matrix([[sum(u[i] * v[j] for u, v in zip(us, vs)) for j in range(n)] for i in range(m)])


def dense_reference_cases():
    """``(id, algebra)`` for the signatures compared with the dense reference."""
    for n in range(1, 7):
        for m in range(1, 7):
            if min(n, m) <= 3:
                for r in range(min(n, m) + 1):
                    yield f"normal-{n}x{m}-r{r}", BracketParam.normal(n, m, r)
    for n in range(1, 4):
        for r in range(n + 1):
            for t in DEFORM_PATH_TIMES[1:-1]:
                yield f"path-{n}-r{r}-t{t}", deformation_bracket(n, rank_normal_form(n, n, r), t)
    rng = random.Random(19)
    for i in range(20):
        n, m = ((3, 4), (4, 3))[i % 2]
        j = Matrix([[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)] for _ in range(m)])
        yield f"dense-{n}x{m}-{i}", BracketParam(n, m, j)
    for n, m, r in ((3, 4, 1), (4, 3, 2), (3, 3, 2), (2, 5, 1), (4, 4, 3)):
        yield f"rational-{n}x{m}-r{r}", BracketParam(n, m, low_rank_rational(rng, n, m, r))


DENSE_REFERENCE_CASES = dict(dense_reference_cases())


class TestSparseSignature:
    @pytest.mark.parametrize("name", sorted(DENSE_REFERENCE_CASES))
    def test_signature_matches_the_dense_reference_kernel(self, name):
        L = LieAlgebra.from_param(DENSE_REFERENCE_CASES[name])
        expected = dense_reference_signature(L)
        assert invariant_signature(L) == invariant_signature(model_less(L)) == expected

    @pytest.mark.parametrize("name", ["normal-3x6-r2", "normal-6x3-r3", "dense-3x4-0", "dense-4x3-1"])
    def test_integer_signature_reads_only_sparse_rows(self, monkeypatch, name):
        # With integer constants no row is scaled to integers, and every row
        # the kernel reads is a dict of nonzero entries.  A dense J runs on
        # its model-less twin, so that the kernel, and not the transport to
        # the normal form, meets its constants.
        L = LieAlgebra.from_param(DENSE_REFERENCE_CASES[name])
        if name.startswith("dense"):
            L = model_less(L)
        expected = dense_reference_signature(L)
        read = sparse_rows_only(monkeypatch)
        assert invariant_signature(L) == expected
        assert read and all(read)

    @pytest.mark.parametrize("name", ["normal-3x6-r3", "dense-3x4-0"])
    def test_every_signature_rank_reads_the_system_of_its_public_function(self, monkeypatch, name):
        # The generic kernel takes each rank on rows the public functions
        # build: the center rank on the rows ``center`` eliminates, the
        # Killing rank on the Gram rows of ``killing_form``, and the
        # derived-center rank on the d - k annihilator rows of [g, g]
        # stacked on the centralizer rows of its echelon basis.  Each runs
        # on its model-less twin, since the signature of a model is read off
        # the weight grading of N_r.
        L = model_less(LieAlgebra.from_param(DENSE_REFERENCE_CASES[name]))
        d = L.dim
        eliminated, ranked = [], []

        def spying(record, real):
            def spy(rows, bound):
                rows = list(rows)
                record.append([dict(row) for row in rows])
                return real(rows, bound)

            return spy

        monkeypatch.setattr(algebra, "_echelon", spying(eliminated, algebra._echelon))
        center(L)
        monkeypatch.setattr(algebra, "_rank", spying(ranked, algebra._rank))
        assert invariant_signature(L) == dense_reference_signature(L)
        derived_center_rows, center_rows, gram = ranked
        assert center_rows == eliminated[0]
        assert Matrix(algebra._dense(row, d) for row in gram) == killing_form(L)[0]
        derived = L._derived_rows
        null = algebra._null_rows(derived, d)
        assert len(null) == d - len(derived) > 0
        assert derived_center_rows == [*null.values(), *algebra._centralizer_rows(L, derived.values()).values()]

    @pytest.mark.parametrize("name", ["dense-3x4-0", "dense-4x3-1"])
    def test_transported_signature_reads_only_sparse_rows(self, monkeypatch, name):
        # The transport eliminates J on dense rows; the weight grading then
        # runs once, on the normal-form algebra, under the guard of the test
        # above, and the generic kernel not at all.
        param = DENSE_REFERENCE_CASES[name]
        L = LieAlgebra.from_param(param)
        expected = dense_reference_signature(L)
        real = algebra._graded_signature
        graded, read = [], []

        def guarded(A, r):
            graded.append((A.model, r))
            with pytest.MonkeyPatch.context() as patch:
                rows = sparse_rows_only(patch)
                sig = real(A, r)
            read.extend(rows)
            return sig

        def refuse(A):
            raise AssertionError("ran the generic kernel on a proved transport")

        monkeypatch.setattr(algebra, "_graded_signature", guarded)
        monkeypatch.setattr(algebra, "_signature", refuse)
        assert invariant_signature(L) == expected
        r = rank(param.j)
        assert graded == [(BracketParam.normal(param.n, param.m, r), r)]
        assert read and all(read)


def model_less(L):
    """The model-less twin of ``L``: its constants with no matrix model, so
    its signature is computed on its own constants."""
    return LieAlgebra(L.dim, L.constants)


def sparse_rows_only(patch):
    """Make every package binding of ``_integer_row`` refuse to run and of
    ``_echelon`` and ``_rank`` record, for each row they read, whether the
    row is a dict of nonzero entries; returns the list of those records."""
    real_integer_row = matrices._integer_row
    read = []

    def refuse(v):
        raise AssertionError("the signature scaled a dense row to integers")

    def recording(real):
        def kernel(rows, bound):
            def recorded():
                for row in rows:
                    read.append(type(row) is dict and all(row.values()))
                    yield row

            return real(recorded(), bound)

        return kernel

    kernels = {name: (getattr(matrices, name), recording(getattr(matrices, name))) for name in ("_echelon", "_rank")}
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "liebrackets":
            if getattr(module, "_integer_row", None) is real_integer_row:
                patch.setattr(module, "_integer_row", refuse)
            for name, (real, kernel) in kernels.items():
                if getattr(module, name, None) is real:
                    patch.setattr(module, name, kernel)
    return read


class TestModelLessAdjoint:
    @pytest.mark.parametrize(
        "L",
        [
            heisenberg_realization(2).realized_algebra(),
            LieAlgebra(3, sl2_constants()),
            model_less(LieAlgebra.from_param(DENSE_REFERENCE_CASES["dense-3x4-0"])),
            model_less(LieAlgebra.from_param(DENSE_REFERENCE_CASES["rational-4x3-r2"])),
        ],
        ids=["realized-heisenberg-2", "abstract-sl2", "dense-3x4-0", "rational-4x3-r2"],
    )
    def test_readers_leave_the_table_unchanged(self, L):
        # The adjoint of an algebra without a model shares the dicts of its
        # table as its upper half, so no reader may change a column.
        before = copy.deepcopy(L.constants.table)
        invariant_signature(L)
        center(L)
        lower_central_series(L)
        derived_series(L)
        killing_form(L)
        assert jacobi_check(L)
        assert L.constants.table == before


# Dense integer, rational and path parameters that are not in rank normal
# form; the first three have rank < n, so P has rows at free columns.
TRANSPORTED = ["dense-4x3-1", "rational-4x3-r2", "rational-3x3-r2", "dense-3x4-0", "path-3-r1-t1/3"]
# Rational parameters with m - r >= 2, so Q has two null rows or more.
TALL_NULL_BLOCK = ["rational-3x4-r1", "rational-2x5-r1"]
UNTRANSPORTED = {
    "normal-3x4-r2": LieAlgebra.from_param(BracketParam.normal(3, 4, 2)),
    "normal-2x3-r0": LieAlgebra.from_param(BracketParam.normal(2, 3, 0)),
    "commutator-3": LieAlgebra.from_param(BracketParam.commutator(3)),
    "abstract-sl2": LieAlgebra(3, sl2_constants()),
}


class TestNormalFormTransport:
    @pytest.mark.parametrize(
        "name, fault",
        [(name, "halve-q") for name in TRANSPORTED]
        + [(name, "zero-null-p-columns") for name in TRANSPORTED[:3]]
        + [(name, "dependent-null-q-rows") for name in TALL_NULL_BLOCK],
    )
    def test_a_failed_proof_falls_back_to_the_algebra(self, monkeypatch, name, fault):
        # Halving Q breaks the factor identity.  Zeroing the columns of P
        # past r, which span the null space of J, keeps N_r = Q J P, as N_r
        # is zero there, but leaves P singular.  Copying one null row of Q
        # (a row past r, which J sends to 0) onto another keeps the identity
        # too, but leaves Q singular.  Either way the signature is computed
        # on L, as on its model-less twin, and no normal-form algebra is
        # built.
        param = DENSE_REFERENCE_CASES[name]
        L = LieAlgebra.from_param(param)
        n, m, r = param.n, param.m, rank(param.j)
        real = matrices._normal_form_factors
        identities = []

        def corrupted(e, n_, m_):
            pflat, dp, qflat, dq = real(e, n_, m_)
            if fault == "halve-q":
                dq *= 2
            elif fault == "zero-null-p-columns":
                pflat = [0 if i % n >= r else x for i, x in enumerate(pflat)]
            else:
                qflat = qflat[: (r + 1) * m] + qflat[r * m : (r + 1) * m] + qflat[(r + 2) * m :]
            normal = rank_normal_form(m, n, r)
            identities.append(matrices._factor_identity(normal, param.j, pflat, dp, qflat, dq))
            return pflat, dp, qflat, dq

        def refuse(*args, **kwargs):
            raise AssertionError("built an algebra")

        expected = invariant_signature(model_less(L))
        monkeypatch.setattr(matrices, "_normal_form_factors", corrupted)
        monkeypatch.setattr(LieAlgebra, "from_param", refuse)
        assert {"halve-q": True, "zero-null-p-columns": r < n, "dependent-null-q-rows": m - r >= 2}[fault]
        assert invariant_signature(L) == expected
        assert identities == [fault != "halve-q"]

    @pytest.mark.parametrize("name", TRANSPORTED + TALL_NULL_BLOCK)
    def test_the_proof_ranks_only_the_null_blocks(self, monkeypatch, name):
        # By the null-block lemma the transport ranks the m - r null rows of
        # Q and the n - r null columns of P, each stopped at its count, and
        # takes no rank when both are empty (the full-rank square path
        # point): never a rank of all of P or Q.
        param = DENSE_REFERENCE_CASES[name]
        L = LieAlgebra.from_param(param)
        expected = invariant_signature(model_less(L))
        n, m, r = param.n, param.m, rank(param.j)
        real = matrices._rank
        calls = []

        def spy(rows, bound):
            rows = list(rows)
            calls.append((len(rows), bound))
            return real(rows, bound)

        monkeypatch.setattr(matrices, "_rank", spy)
        assert invariant_signature(L) == expected
        assert sorted(calls) == sorted((k, k) for k in (m - r, n - r) if k)

    @pytest.mark.parametrize("name", sorted(UNTRANSPORTED))
    def test_no_elimination_without_a_dense_parameter(self, monkeypatch, name):
        # A normal form, the commutator among them, is recognised by one scan
        # of J, and an algebra without a model has no J: neither eliminates.
        L = UNTRANSPORTED[name]
        expected = reference_invariant_signature(L)

        def refuse(*args, **kwargs):
            raise AssertionError("eliminated a parameter")

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "liebrackets":
                for attr in ("_rref_rows", "_gauss_jordan"):
                    if getattr(module, attr, None) is getattr(matrices, attr):
                        monkeypatch.setattr(module, attr, refuse)
        assert invariant_signature(L) == expected

    @pytest.mark.parametrize("name", TRANSPORTED)
    def test_one_transport_for_a_dense_parameter(self, monkeypatch, name):
        # One factor build, and one graded signature, on the normal-form
        # algebra; the generic kernel does not run.
        param = DENSE_REFERENCE_CASES[name]
        L = LieAlgebra.from_param(param)
        expected = invariant_signature(model_less(L))
        real_factors, real_graded = matrices._normal_form_factors, algebra._graded_signature
        factors, graded = [], []

        def spy_factors(*args):
            factors.append(args[1:])
            return real_factors(*args)

        def spy_graded(A, r):
            graded.append((A.model, r))
            return real_graded(A, r)

        def refuse(A):
            raise AssertionError("ran the generic kernel on a proved transport")

        monkeypatch.setattr(matrices, "_normal_form_factors", spy_factors)
        monkeypatch.setattr(algebra, "_graded_signature", spy_graded)
        monkeypatch.setattr(algebra, "_signature", refuse)
        assert invariant_signature(L) == expected
        r = rank(param.j)
        assert factors == [(param.n, param.m)]
        assert graded == [(BracketParam.normal(param.n, param.m, r), r)]

    @pytest.mark.parametrize("name", ["dense-3x4-0", "dense-4x3-1", "rational-4x3-r2"])
    def test_a_transported_model_builds_only_the_normal_form_table(self, monkeypatch, name):
        # The table of a model is built on its first read: the signature of
        # a dense J reads no table, not even that of N_r, whose adjoint comes
        # from J, and a later read of L's table gives the one
        # ``structure_constants`` builds.
        param = DENSE_REFERENCE_CASES[name]
        expected_signature = invariant_signature(model_less(LieAlgebra.from_param(param)))
        built = []
        real = algebra.structure_constants
        monkeypatch.setattr(algebra, "structure_constants", lambda p: built.append(p) or real(p))
        L = LieAlgebra.from_param(param)
        assert invariant_signature(L) == expected_signature
        assert built == []
        expected = structure_constants(param)
        assert L.constants.table == expected.table
        assert L.constants == expected and L.constants.to_json() == expected.to_json()
        assert repr(L.constants) == repr(expected)
        assert L.constants.table is L.constants.table
        assert built == [param]

    @pytest.mark.parametrize(
        "name, proved",
        [("normal-3x4-r2", True), ("normal-6x3-r3", True), ("dense-3x4-0", True), ("dense-4x3-1", True)]
        + [("rational-4x3-r2", True), ("rational-4x3-r2", False), ("rational-3x3-r2", False)],
    )
    def test_a_model_signature_reads_no_table(self, monkeypatch, name, proved):
        # The signature of a model, transported or not, and of a rational J
        # scaled to integers when its transport is refused, reads its
        # adjoint off J: no table is built and no lazy table is read.
        param = DENSE_REFERENCE_CASES[name]
        expected = dense_reference_signature(LieAlgebra.from_param(param))

        def refuse(*args):
            raise AssertionError("built a structure-constants table")

        monkeypatch.setattr(algebra, "structure_constants", refuse)
        monkeypatch.setattr(algebra._ModelConstants, "__getattr__", refuse)
        if not proved:
            monkeypatch.setattr(algebra, "_normal_form_transport", lambda j: None)
        assert invariant_signature(LieAlgebra.from_param(param)) == expected

    @pytest.mark.parametrize(
        "L",
        [LieAlgebra.from_param(BracketParam.normal(n, m, 0)) for n, m in [(1, 1), (3, 5), (6, 3)]] + [abelian(4)],
        ids=["normal-1x1-r0", "normal-3x5-r0", "normal-6x3-r0", "abstract-abelian-4"],
    )
    def test_an_abelian_signature_takes_no_derived_center_rank(self, monkeypatch, L):
        # [g, g] = 0, whose center is 0: no annihilator rows are built.
        def refuse(*args):
            raise AssertionError("built the derived-center system of an abelian algebra")

        expected = reference_invariant_signature(L)
        monkeypatch.setattr(algebra, "_null_rows", refuse)
        sig = invariant_signature(L)
        assert sig == expected and sig.derived_center_dim == 0

    @pytest.mark.parametrize("name", ["normal-3x6-r3", "dense-4x3-1"])
    def test_counts_go_to_the_rank_kernel_and_spans_to_echelon(self, monkeypatch, name):
        # On the model-less twin the kernel runs on the d coordinates: the
        # center, Killing and derived-center ranks are counts bounded by d
        # and go through ``_rank``, and ``_echelon`` runs only where a basis
        # is read: once for [g, g], bounded by d, and once per series step,
        # bounded by the dimension of the term before.  The model is N_r, or
        # is transported to it, and its signature is read off the weight grading: the
        # center and derived-center ranks and every span have width at most
        # r, each span bounded by the dimension of the H part of the term
        # before (r for g), and the Killing rank is a count with no rank.
        # A dense J costs one Gauss-Jordan, the elimination of J; a normal
        # form and a twin none.  J is a fresh copy, since a ``Matrix`` keeps
        # its elimination and an earlier test may have run it.
        param = DENSE_REFERENCE_CASES[name]
        param = BracketParam(param.n, param.m, Matrix.from_flat(param.j.rows, param.j.cols, param.j.entries))
        n, m, r = param.n, param.m, rank(param.j)
        L = LieAlgebra.from_param(param)
        expected = dense_reference_signature(L)
        normal = LieAlgebra.from_param(BracketParam.normal(n, m, r))
        derived, lcs = derived_series(normal), lower_central_series(normal)
        calls = {"_rank": [], "_echelon": []}  # (bound, rows, width) of each call
        eliminations = []
        real_gauss_jordan = matrices._gauss_jordan

        def spying(kernel):
            real = getattr(matrices, kernel)

            def spy(rows, bound):
                rows = list(rows)
                calls[kernel].append((bound, len(rows), max((max(row) + 1 for row in rows if row), default=0)))
                return real(rows, bound)

            return spy

        def spy_gauss_jordan(*args):
            eliminations.append(args[1])
            return real_gauss_jordan(*args)

        for kernel in calls:
            monkeypatch.setattr(algebra, kernel, spying(kernel))
        monkeypatch.setattr(matrices, "_gauss_jordan", spy_gauss_jordan)
        sig = invariant_signature(model_less(L))
        assert sig == expected
        d = sig.dim
        assert [(bound, width <= d) for bound, _, width in calls["_rank"]] == [(d, True)] * 3
        k = sig.derived_dims[1]
        steps = list(sig.derived_dims[1:-1])
        if sig.derived_dims != (d, k, k):  # else the lower central series is not eliminated
            steps += list(sig.lcs_dims[1:-1])
        assert [bound for bound, _, _ in calls["_echelon"]] == [d] + steps
        assert eliminations == []

        for kernel_calls in calls.values():
            kernel_calls.clear()
        assert invariant_signature(L) == expected
        h_dims = h_part_dims(derived, m, r)  # of g (that is, r), [g, g], ...
        bounds = h_dims[:-1]
        if sig.derived_dims != (d, k, k):
            bounds += h_part_dims(lcs[1:-1], m, r)
        assert [bound for bound, _, _ in calls["_echelon"]] == bounds
        assert all(width <= r for kernel_calls in calls.values() for _, _, width in kernel_calls)
        assert [bound for bound, _, _ in calls["_rank"]] == [r, h_dims[1]]
        assert eliminations == ([] if name.startswith("normal") else [n])


def h_part_dims(terms, m: int, r: int) -> list:
    """``dim(T ∩ H)`` for each subspace ``T`` of ``Mat(n x m)``, with ``H``
    the span of the units ``E_kk``, ``k < r``: ``T ∩ H`` is the kernel of
    the projection of ``T`` off the coordinates of ``H``."""
    diagonal = {k * (m + 1) for k in range(r)}
    dims = []
    for S in terms:
        rows = [[x for i, x in enumerate(b.entries) if i not in diagonal] for b in S.basis]
        dims.append(S.dim - (rank(Matrix(rows)) if rows and rows[0] else 0))
    return dims
