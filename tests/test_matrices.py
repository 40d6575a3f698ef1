"""Exact linear algebra: arithmetic, row reduction, rank factorization."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from liebrackets.matrices import (
    Matrix,
    ShapeError,
    SingularMatrixError,
    Subspace,
    inverse,
    join_blocks,
    kernel,
    matrix_from_json,
    matrix_to_json,
    parse_matrix,
    rank,
    rank_factorization,
    rank_normal_form,
    rref,
    solve_coordinates,
    split_blocks,
)
from liebrackets.scalars import as_fraction, to_scalar


def random_matrix(rng, rows, cols, lo=-4, hi=4):
    return Matrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def det_bruteforce(m):
    """Permutation-expansion determinant; the independent oracle for rank."""
    n = m.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = sign
        for i in range(n):
            prod *= m[i, perm[i]]
        total += prod
    return total


def rank_bruteforce(m):
    """Largest k with a nonzero k x k minor."""
    best = 0
    for k in range(1, min(m.rows, m.cols) + 1):
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                sub = Matrix([[m[i, j] for j in cols] for i in rows])
                if det_bruteforce(sub) != 0:
                    best = k
                    break
            else:
                continue
            break
    return best


class TestScalars:
    def test_parse_forms(self):
        assert to_scalar("3/4") == Fraction(3, 4)
        assert to_scalar("-7") == -7
        assert type(to_scalar(Fraction(4, 2))) is int

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            to_scalar(0.5)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="zero denominator in '1/0'"):
            to_scalar("1/0")

    def test_canonical_form_random(self):
        rng = random.Random(5)
        vals = [Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(50)]
        for a, b in zip(vals, vals[1:]):
            for res in (a + b, a * b, a - b):
                f = as_fraction(res)
                assert f.denominator > 0
                assert math.gcd(f.numerator, f.denominator) == 1


class TestMatrixBasics:
    def test_identity_product(self):
        m = Matrix([[1, 2], [3, Fraction(1, 2)]])
        assert Matrix.identity(2) @ m == m

    def test_unit_product(self):
        assert Matrix.unit(2, 2, 0, 1) @ Matrix.unit(2, 2, 1, 0) == Matrix.unit(2, 2, 0, 0)

    def test_scalar_matrix_product(self):
        a = Fraction(1, 2) * Matrix.identity(2)
        b = Fraction(2, 3) * Matrix.identity(2)
        assert a @ b == Fraction(1, 3) * Matrix.identity(2)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match="2x3.*3x4|2x3 by 4"):
            Matrix.zeros(2, 3) @ Matrix.zeros(4, 2)

    def test_degenerate_shapes_rejected(self):
        with pytest.raises(ShapeError):
            Matrix([])
        with pytest.raises(ShapeError):
            Matrix([[]])
        with pytest.raises(ShapeError):
            Matrix.zeros(0, 3)

    def test_ragged_rejected(self):
        with pytest.raises(ShapeError):
            Matrix([[1, 2], [3]])

    def test_text_round_trip(self):
        m = parse_matrix("1 0; 0 1/2")
        assert m[1, 1] == Fraction(1, 2)
        assert parse_matrix(str(m)) == m

    def test_json_round_trip(self):
        m = parse_matrix("1 -2/3; 4 5")
        assert matrix_from_json(matrix_to_json(m)) == m

    def test_json_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matrix_from_json({"rows": 3, "cols": 2, "entries": [["1", "2"]]})

    def test_hash_eq(self):
        assert hash(parse_matrix("2")) == hash(Matrix([[Fraction(4, 2)]]))


class TestRref:
    def test_identity(self):
        reduced, pivots, transform = rref(Matrix.identity(3))
        assert reduced == Matrix.identity(3)
        assert pivots == (0, 1, 2)
        assert transform == Matrix.identity(3)

    def test_zero(self):
        z = Matrix.zeros(2, 3)
        reduced, pivots, transform = rref(z)
        assert reduced == z and pivots == () and transform == Matrix.identity(2)

    def test_dependent_rows(self):
        m = parse_matrix("1 2; 2 4")
        reduced, pivots, transform = rref(m)
        assert pivots == (0,)
        assert transform @ m == reduced  # the oracle: re-multiply the transform

    def test_transform_invertible_random(self):
        rng = random.Random(11)
        for _ in range(25):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            reduced, pivots, transform = rref(m)
            assert transform @ m == reduced
            assert rank(transform) == m.rows

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(13)
        for _ in range(25):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert rank(m) == rank(m.transpose())


class TestRank:
    def test_normal_form_rank(self):
        assert rank(rank_normal_form(3, 2, 1)) == 1

    def test_normal_form_rejects_empty_shape(self):
        for rows, cols in ((0, 0), (0, 2), (2, 0)):
            with pytest.raises(ShapeError):
                rank_normal_form(rows, cols, 0)

    def test_zero(self):
        assert rank(Matrix.zeros(3, 3)) == 0

    def test_antidiagonal_vs_minor_oracle(self):
        m = parse_matrix("0 1; 1 0")
        assert rank_bruteforce(m) == 2
        assert rank(m) == 2

    def test_matches_bruteforce_random(self):
        rng = random.Random(17)
        for _ in range(15):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -2, 2)
            assert rank(m) == rank_bruteforce(m)


class TestKernel:
    def test_identity_trivial(self):
        assert kernel(Matrix.identity(2)).dim == 0

    def test_zero_full(self):
        assert kernel(Matrix.zeros(2, 2)).dim == 2

    def test_projection(self):
        m = parse_matrix("1 0; 0 0")
        ker = kernel(m)
        assert ker.dim == 1
        for v in ker.basis:
            assert (m @ v).is_zero()  # oracle: actually annihilates
        assert ker.contains(Matrix.column([0, 1]))

    def test_rank_nullity(self):
        rng = random.Random(19)
        for _ in range(25):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert kernel(m).dim + rank(m) == m.cols


class TestInverse:
    def test_identity(self):
        assert inverse(Matrix.identity(4)) == Matrix.identity(4)

    def test_diagonal(self):
        assert inverse(Matrix.diagonal([2, Fraction(1, 3)])) == Matrix.diagonal([Fraction(1, 2), 3])

    def test_unipotent(self):
        m = parse_matrix("1 1; 0 1")
        inv = inverse(m)
        assert inv == parse_matrix("1 -1; 0 1")
        assert m @ inv == Matrix.identity(2)

    def test_singular_carries_rank(self):
        with pytest.raises(SingularMatrixError) as exc:
            inverse(parse_matrix("1 2; 2 4"))
        assert exc.value.rank == 1

    def test_non_square(self):
        with pytest.raises(ShapeError):
            inverse(Matrix.zeros(2, 3))


class TestRankFactorization:
    def test_already_normal(self):
        f = rank_factorization(rank_normal_form(3, 2, 1))
        assert (f.q, f.p, f.rank) == (Matrix.identity(3), Matrix.identity(2), 1)

    def test_zero(self):
        f = rank_factorization(Matrix.zeros(2, 3))
        assert (f.q, f.p, f.rank) == (Matrix.identity(2), Matrix.identity(3), 0)

    def test_antidiagonal(self):
        m = parse_matrix("0 1; 1 0")
        f = rank_factorization(m)
        assert f.rank == 2
        assert f.reconstruct() == m  # oracle: re-multiply
        assert rank(f.q) == 2 and rank(f.p) == 2

    def test_round_trip_random(self):
        rng = random.Random(23)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -3, 3)
            f = rank_factorization(m)
            assert f.reconstruct() == m
            assert rank(f.q) == m.rows and rank(f.p) == m.cols
            assert f.rank == rank(m)


class TestSubspace:
    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError):
            Subspace(2, 1, [Matrix.column([1, 2]), Matrix.column([2, 4])])

    def test_span_canonical_equality(self):
        s1 = Subspace.span(2, 1, [Matrix.column([1, 1]), Matrix.column([1, -1])])
        s2 = Subspace.span(2, 1, [Matrix.column([2, 0]), Matrix.column([0, 3])])
        assert s1 == s2 and s1.dim == 2

    def test_contains(self):
        s = Subspace.span(2, 2, [Matrix.unit(2, 2, 0, 0), Matrix.unit(2, 2, 1, 1)])
        assert s.contains(Matrix.diagonal([3, -5]))
        assert not s.contains(Matrix.unit(2, 2, 0, 1))
        assert s.contains(Matrix.zeros(2, 2))

    def test_reduce_residual(self):
        s = Subspace.span(2, 1, [Matrix.column([1, 0])])
        residual = s.reduce(Matrix.column([2, 3]))
        assert residual == Matrix.column([0, 3])

    def test_intersection(self):
        xy = Subspace.span(3, 1, [Matrix.column([1, 0, 0]), Matrix.column([0, 1, 0])])
        yz = Subspace.span(3, 1, [Matrix.column([0, 1, 0]), Matrix.column([0, 0, 1])])
        inter = xy.intersection(yz)
        assert inter.dim == 1
        assert inter.contains(Matrix.column([0, 5, 0]))

    def test_solve_coordinates(self):
        basis = [Matrix.column([-1, 0]), Matrix.column([0, 1])]
        assert solve_coordinates(basis, Matrix.column([2, 3])) == (-2, 3)
        assert solve_coordinates([Matrix.column([1, 0])], Matrix.column([0, 1])) is None

    def test_solve_coordinates_dependent_basis(self):
        dependent = [Matrix.column([1, 2]), Matrix.column([2, 4])]
        with pytest.raises(ValueError):
            solve_coordinates(dependent, Matrix.column([1, 2]))


class TestBlocks:
    def test_round_trip_all_splits(self):
        rng = random.Random(29)
        for rows, cols in [(2, 3), (3, 3), (4, 2)]:
            m = random_matrix(rng, rows, cols)
            for r in range(min(rows, cols) + 1):
                blocks = split_blocks(m, r)
                assert join_blocks(blocks, rows, cols, r) == m

    def test_empty_blocks_are_none(self):
        m = Matrix.identity(2)
        tl, bl, tr, br = split_blocks(m, 0)
        assert tl is None and bl is None and tr is None
        assert br == m
        tl, bl, tr, br = split_blocks(m, 2)
        assert tl == m and bl is None and tr is None and br is None
