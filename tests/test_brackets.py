"""The parametrized bracket, its block form, and structure constants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liebrackets.brackets import (
    BracketParam,
    StructureConstants,
    _pair_brackets,
    basis_matrices,
    block_bracket,
    bracket,
    structure_constants,
)
from liebrackets.matrices import (
    Matrix,
    ShapeError,
    join_blocks,
    parse_matrix,
    rank,
    rank_normal_form,
)


def random_matrix(rng, rows, cols, lo=-3, hi=3):
    return Matrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def split_blocks(m, r):
    """Split ``m`` at row and column ``r`` into (top-left, bottom-left,
    top-right, bottom-right); a block of zero extent is None."""
    cuts = ((0, r, 0, r), (r, m.rows, 0, r), (0, r, r, m.cols), (r, m.rows, r, m.cols))
    return tuple(
        Matrix([row[c0:c1] for row in m._data[r0:r1]]) if r0 < r1 and c0 < c1 else None
        for r0, r1, c0, c1 in cuts
    )


class TestBracketParam:
    def test_parameter_shape_enforced(self):
        with pytest.raises(ShapeError):
            BracketParam(2, 3, Matrix.zeros(2, 3))  # must be 3x2
        BracketParam(2, 3, Matrix.zeros(3, 2))

    def test_normal_and_commutator(self):
        assert BracketParam.normal(2, 3, 1).j == rank_normal_form(3, 2, 1)
        assert BracketParam.commutator(2).j == Matrix.identity(2)


class TestBracket:
    def test_rank_one_heisenberg_pair(self):
        # [E21, E12] with parameter diag(1,0) lands on E22.
        param = BracketParam(2, 2, Matrix.diagonal([1, 0]))
        out = bracket(Matrix.unit(2, 2, 1, 0), Matrix.unit(2, 2, 0, 1), param)
        assert out == Matrix.unit(2, 2, 1, 1)

    def test_sl2_pair_with_corank_parameter(self):
        # [diag(1,-1), E12] with parameter diag(0,1) returns E12.
        param = BracketParam(2, 2, Matrix.diagonal([0, 1]))
        h = Matrix.diagonal([1, -1])
        x = Matrix.unit(2, 2, 0, 1)
        assert bracket(h, x, param) == x
        assert bracket(h, Matrix.unit(2, 2, 1, 0), param) == -Matrix.unit(2, 2, 1, 0)

    def test_self_bracket_vanishes(self):
        rng = random.Random(3)
        param = BracketParam(2, 3, random_matrix(rng, 3, 2))
        a = random_matrix(rng, 2, 3)
        assert bracket(a, a, param).is_zero()

    def test_zero_parameter_abelian(self):
        rng = random.Random(4)
        param = BracketParam(3, 2, Matrix.zeros(2, 3))
        a, b = random_matrix(rng, 3, 2), random_matrix(rng, 3, 2)
        assert bracket(a, b, param).is_zero()

    def test_operand_shape_checked(self):
        param = BracketParam(2, 2, Matrix.identity(2))
        with pytest.raises(ShapeError):
            bracket(Matrix.zeros(2, 3), Matrix.zeros(2, 2), param)

    def test_antisymmetry_random(self):
        rng = random.Random(5)
        for _ in range(20):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            param = BracketParam(n, m, random_matrix(rng, m, n))
            a, b = random_matrix(rng, n, m), random_matrix(rng, n, m)
            assert bracket(a, b, param) == -bracket(b, a, param)

    def test_linear_in_parameter(self):
        rng = random.Random(6)
        for _ in range(20):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            j1, j2 = random_matrix(rng, m, n), random_matrix(rng, m, n)
            alpha = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            a, b = random_matrix(rng, n, m), random_matrix(rng, n, m)
            combined = bracket(a, b, BracketParam(n, m, j1 + alpha * j2))
            parts = bracket(a, b, BracketParam(n, m, j1)) + alpha * bracket(a, b, BracketParam(n, m, j2))
            assert combined == parts

    def test_full_rank_transport_to_commutator(self):
        # For invertible J, A -> J A carries the J-bracket to the commutator.
        rng = random.Random(7)
        for n in (2, 3):
            j = random_matrix(rng, n, n)
            while rank(j) != n:
                j = random_matrix(rng, n, n)
            param = BracketParam(n, n, j)
            a, b = random_matrix(rng, n, n), random_matrix(rng, n, n)
            lhs = j @ bracket(a, b, param)
            rhs = (j @ a) @ (j @ b) - (j @ b) @ (j @ a)
            assert lhs == rhs


ENTRIES = st.sampled_from([0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5)])


@st.composite
def pair_bracket_cases(draw):
    """A parameter and one to five rational elements of a tall, wide or
    square operand shape."""
    small = draw(st.integers(1, 3))
    large = draw(st.integers(small + 1, 4))
    n, m = draw(st.sampled_from([(large, small), (small, large), (small, small)]))

    def block(rows, cols):
        flat = draw(st.lists(ENTRIES, min_size=rows * cols, max_size=rows * cols))
        return Matrix([flat[i * cols : (i + 1) * cols] for i in range(rows)])

    elements = [block(n, m) for _ in range(draw(st.integers(1, 5)))]
    return BracketParam(n, m, block(m, n)), elements, draw(st.integers(0, len(elements)))


def assert_pair_brackets_match(elements, param):
    d = len(elements)
    expect = [
        (a, b, bracket(elements[a], elements[b], param)._data) for a in range(d) for b in range(a + 1, d)
    ]
    got = [(a, b, w._data) for a, b, w in _pair_brackets(elements, param)]
    assert got == expect
    # Entry types too: Fraction(2, 1) and 2 compare equal.
    assert [[type(x) for row in w for x in row] for *_, w in got] == [
        [type(x) for row in w for x in row] for *_, w in expect
    ]


class TestPairBrackets:
    @settings(max_examples=80, deadline=None)
    @given(pair_bracket_cases())
    def test_equals_bracket_pair_for_pair(self, case):
        param, elements, insert_at = case
        assert_pair_brackets_match(elements, param)
        if param.n != param.m:
            wrong = elements[:insert_at] + [Matrix.zeros(param.m, param.n)] + elements[insert_at:]
            with pytest.raises(ShapeError):
                _pair_brackets(wrong, param)

    @pytest.mark.parametrize(
        "j, elements",
        [
            ("1 2 0; -1 0 3", ["0 0; 1/2 1; 0 0", "2 0; 0 0; 0 -1", "0 0; 0 0; 1 1/3"]),
            ("1 2 0; -1 0 3", ["1 1; 0 2; -1 1", "0 0; 0 0; 0 0", "0 1/2; 3 0; 0 0"]),
            ("0 0 0; 0 0 0", ["1 1; 0 2; -1 1", "0 1/2; 3 0; 1 0", "2 0; 0 0; 0 -1"]),
            ("1/2 0 -2/3; 0 3/5 1", ["1 1/3; 0 2; -1 1", "0 1/2; 3 0; 1 0", "2 0; 1/7 0; 0 -1"]),
            ("1/2 0 -2/3; 0 3/5 1", ["1 1/3; 0 2; -1 1"]),
        ],
        ids=["zero-rows", "all-zero-element", "zero-parameter", "parameter-denominators", "single-element"],
    )
    def test_edge_cases(self, j, elements):
        param = BracketParam(3, 2, parse_matrix(j))
        elements = [parse_matrix(x) for x in elements]
        assert_pair_brackets_match(elements, param)


class TestBlockBracket:
    def test_zero_blocks(self):
        z = Matrix.zeros(1, 1)
        out = block_bracket((z, z, z, z), (z, z, z, z), 1)
        assert all(blk.is_zero() for blk in out)

    def test_bottom_right_never_enters(self):
        rng = random.Random(8)
        a4 = random_matrix(rng, 2, 2)
        b4 = random_matrix(rng, 2, 2)
        out = block_bracket((None, None, None, a4), (None, None, None, b4), 0)
        assert out[0] is None and out[1] is None and out[2] is None
        assert out[3].is_zero()

    def test_matches_generic_bracket_random(self):
        rng = random.Random(9)
        m1 = random_matrix(rng, 3, 3)
        m2 = random_matrix(rng, 3, 3)
        param = BracketParam.normal(3, 3, 1)
        out = block_bracket(split_blocks(m1, 1), split_blocks(m2, 1), 1)
        assert join_blocks(out, 3, 3, 1) == bracket(m1, m2, param)

    def test_matches_generic_exhaustive_small(self):
        for n in range(1, 5):
            for m in range(1, 5):
                basis = basis_matrices(n, m)
                for r in range(min(n, m) + 1):
                    param = BracketParam.normal(n, m, r)
                    for a in range(len(basis)):
                        for b in range(a + 1, len(basis)):
                            out = block_bracket(
                                split_blocks(basis[a], r), split_blocks(basis[b], r), r
                            )
                            assert join_blocks(out, n, m, r) == bracket(basis[a], basis[b], param)

    def test_inconsistent_shapes(self):
        with pytest.raises(ShapeError):
            block_bracket(
                (Matrix.identity(2), None, None, None),
                (Matrix.identity(1), None, None, None),
                2,
            )


class TestBasisIndex:
    """The canonical basis is ordered row-major: E_{i,j} -> (i-1)*m + (j-1)."""

    def test_linearization_bijection(self):
        n, m = 3, 4
        basis = basis_matrices(n, m)
        assert len(basis) == n * m
        for k, e in enumerate(basis):
            i, j = divmod(k, m)
            assert e == Matrix.unit(n, m, i, j)

    def test_basis_matrix(self):
        # E_{2,1} of Mat(2 x 3) sits at linear position (2-1)*3 + (1-1) = 3.
        assert basis_matrices(2, 3)[3] == Matrix.unit(2, 3, 1, 0)


def model_matches_constants(param):
    """The comparison of ``verify.check_lie_axioms``: the kernel's bracket of
    every basis pair against the dense expansion of its structure constants."""
    dim = param.dim
    table = structure_constants(param).table
    return all(
        w.entries == tuple(table.get((a, b), {}).get(k, 0) for k in range(dim))
        for a, b, w in _pair_brackets(basis_matrices(param.n, param.m), param)
    )


class TestStructureConstants:
    def test_matches_the_model_at_every_unit_parameter(self):
        # The matrix bracket and the constants c(J) are both linear in J, so
        # their difference is too.  The unit matrices E_p span Mat(m x n), so
        # agreement at every E_p proves it for every J of the shape.
        checked = 0
        for n in range(1, 5):
            for m in range(1, 5):
                for p in range(m * n):
                    param = BracketParam(n, m, Matrix.unit(m, n, *divmod(p, n)))
                    assert model_matches_constants(param), (n, m, p)
                    checked += 1
        assert checked == 100

    def test_matches_the_model_at_a_rational_parameter(self):
        # The kernel brackets with d_J J, d_J the lcm of J's denominators, and
        # divides d_J back out.  At an integer J, every E_p included, d_J = 1,
        # so only a J with denominators shows a kernel that drops d_J.
        assert model_matches_constants(BracketParam(3, 2, parse_matrix("1/2 0 -2/3; 0 3/5 1")))

    def test_commutator_matches_classical_formula(self):
        # [E_ij, E_kl] = d(j,k) E_il - d(l,i) E_kj for the identity parameter.
        sc = structure_constants(BracketParam.commutator(2))
        m = 2
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    for l in range(m):
                        a, b = i * m + j, k * m + l
                        if a >= b:
                            continue
                        expect = {}
                        if j == k:
                            expect[i * m + l] = expect.get(i * m + l, 0) + 1
                        if l == i:
                            expect[k * m + j] = expect.get(k * m + j, 0) - 1
                        expect = {kk: v for kk, v in expect.items() if v != 0}
                        assert sc.bracket_basis(a, b) == expect

    def test_zero_parameter_empty(self):
        sc = structure_constants(BracketParam(2, 2, Matrix.zeros(2, 2)))
        assert sc.table == {}

    def test_column_space_constants(self):
        # Operands are columns of height 2, parameter the row (1 0).
        param = BracketParam(2, 1, parse_matrix("1 0"))
        sc = structure_constants(param)
        basis = basis_matrices(2, 1)
        # oracle: expand the generic bracket on the basis vectors
        expect = bracket(basis[1], basis[0], param)
        assert expect == basis[1]  # [e2, e1] = e2
        assert sc.bracket_basis(1, 0) == {1: 1}

    def test_expansion_reproduces_bracket(self):
        rng = random.Random(10)
        for _ in range(10):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            param = BracketParam(n, m, random_matrix(rng, m, n))
            sc = structure_constants(param)
            basis = basis_matrices(n, m)
            for a in range(len(basis)):
                for b in range(a + 1, len(basis)):
                    via_matrices = bracket(basis[a], basis[b], param).entries
                    via_constants = sc.bracket_basis(a, b)
                    dense = tuple(via_constants.get(k, 0) for k in range(n * m))
                    assert dense == via_matrices

    def test_antisymmetric_reads(self):
        sc = StructureConstants(3, {(0, 1): {2: Fraction(1, 2)}})
        assert sc.bracket_basis(1, 0) == {2: Fraction(-1, 2)}
        assert sc.bracket_basis(1, 1) == {}

    def test_storage_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            StructureConstants(2, {(1, 0): {0: 1}})
        with pytest.raises(ValueError):
            StructureConstants(2, {(0, 1): {5: 1}})

    def test_zero_terms_pruned(self):
        sc = StructureConstants(2, {(0, 1): {0: 0}})
        assert sc.table == {}

    def test_json_round_trip(self):
        sc = structure_constants(BracketParam(2, 2, Matrix.diagonal([1, 0])))
        again = StructureConstants.from_json(sc.to_json())
        assert again == sc

    def test_bracket_coords_bilinear(self):
        rng = random.Random(11)
        sc = structure_constants(BracketParam.commutator(3))
        x = [rng.randint(-3, 3) for _ in range(9)]
        y = [rng.randint(-3, 3) for _ in range(9)]
        param = BracketParam.commutator(3)
        xm = Matrix.from_flat(3, 3, x)
        ym = Matrix.from_flat(3, 3, y)
        assert sc.bracket_coords(x, y) == bracket(xm, ym, param).entries
