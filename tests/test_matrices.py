"""Exact linear algebra: arithmetic, row reduction, rank factorization."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from liebrackets import matrices
from liebrackets.matrices import (
    Matrix,
    ShapeError,
    SingularMatrixError,
    Subspace,
    format_matrix,
    inverse,
    kernel,
    matrix_from_json,
    matrix_to_json,
    parse_matrix,
    rank,
    rank_factorization,
    rank_normal_form,
    rref,
)
from liebrackets.scalars import scalar_div, to_scalar


def random_matrix(rng, rows, cols, lo=-4, hi=4):
    return Matrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def split_blocks(m, r):
    """Split ``m`` at row and column ``r`` into (top-left, bottom-left,
    top-right, bottom-right); a block of zero extent is None."""
    cuts = ((0, r, 0, r), (r, m.rows, 0, r), (0, r, r, m.cols), (r, m.rows, r, m.cols))
    return tuple(
        Matrix([row[c0:c1] for row in m._data[r0:r1]]) if r0 < r1 and c0 < c1 else None
        for r0, r1, c0, c1 in cuts
    )


def join_blocks(blocks, rows: int, cols: int, r: int) -> Matrix:
    """Reassemble (top-left, bottom-left, top-right, bottom-right) split at
    ``r``; the former ``matrices.join_blocks``, verbatim."""
    tl, bl, tr, br = blocks
    out = [[0] * cols for _ in range(rows)]
    for block, r0, c0 in ((tl, 0, 0), (bl, r, 0), (tr, 0, r), (br, r, r)):
        if block is None:
            continue
        for i, row in enumerate(block._data):
            out[r0 + i][c0 : c0 + block.cols] = row
    return Matrix._raw(tuple(map(tuple, out)))


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


def solve_coordinates(basis, target):
    """Coordinates of ``target`` in the span of the independent ``basis``, or
    None if outside: the span kernel run on the rows of ``[B | t]``.  Kept
    from the package, which no longer needs it, as a reference that reads
    the kernel's pivots and early exit."""
    if not basis:
        return () if target.is_zero() else None
    k = len(basis)
    reduced, pivots = matrices._eliminate(list(zip(*(m.entries for m in basis), target.entries)))
    if k in pivots:
        return None
    if len(pivots) != k:
        raise ValueError("basis matrices are linearly dependent")
    coords = [0] * k
    for i, p in enumerate(pivots):
        coords[p] = reduced[i][k]
    return tuple(coords)


def intersection(s, t):
    """The intersection of the subspaces ``s`` and ``t`` of one ambient space:
    the kernel of ``[basis of s | -basis of t]`` mapped back through the basis
    of ``s``.  Kept from the package, which no longer needs it, as a
    reference."""
    if (s.ambient_rows, s.ambient_cols) != (t.ambient_rows, t.ambient_cols):
        raise ShapeError("subspaces live in different ambient spaces")
    if not s.basis or not t.basis:
        return Subspace(s.ambient_rows, s.ambient_cols, ())
    cols = [b.entries for b in s.basis] + [tuple(-x for x in b.entries) for b in t.basis]
    mats = []
    for kvec in kernel(Matrix(tuple(zip(*cols)))).basis:
        combo = Matrix.zeros(s.ambient_rows, s.ambient_cols)
        for a, b in zip(kvec.column_tuple(0)[: s.dim], s.basis):
            if a != 0:
                combo = combo + a * b
        mats.append(combo)
    return Subspace.span(s.ambient_rows, s.ambient_cols, mats)


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

    def test_text_syntax_is_integer_or_p_over_q(self):
        assert to_scalar(" +3/6 ") == Fraction(1, 2)
        assert to_scalar("\t-12\n") == -12
        assert type(to_scalar("8/4")) is int

    @pytest.mark.parametrize(
        "text", ["1e-5", "0.5", ".5", "1_0", "1/-2", "1 / 2", "--1", "", "inf", "nan", "0x10", "\u0663"]
    )
    def test_other_literals_rejected(self, text):
        with pytest.raises(ValueError) as exc:
            to_scalar(text)
        assert repr(text) in str(exc.value)

    def test_int_subclasses_become_int(self):
        # bool is read as the int it subclasses, as any int subclass is.
        class Count(int):
            pass

        for value, expected in ((True, 1), (False, 0), (Count(7), 7)):
            assert type(to_scalar(value)) is int and to_scalar(value) == expected

    def test_canonical_form_random(self):
        rng = random.Random(5)
        vals = [Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(50)]
        for a, b in zip(vals, vals[1:]):
            for res in (a + b, a * b, a - b):
                c = to_scalar(res)
                f = Fraction(c)
                assert f == res and f.denominator > 0
                assert math.gcd(f.numerator, f.denominator) == 1
                assert (type(c) is int) == (f.denominator == 1)


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

    def test_operators_refuse_non_matrices(self):
        m = Matrix.identity(2)
        for method in (m.__add__, m.__sub__, m.__matmul__, m.__eq__):
            assert method([[1, 0], [0, 1]]) is NotImplemented
        assert m != [[1, 0], [0, 1]]
        with pytest.raises(TypeError):
            m + 1

    def test_non_square_is_no_scalar_multiple_of_identity(self):
        assert Matrix.identity(2).is_scalar_multiple_of_identity()
        assert not Matrix([[1, 0]]).is_scalar_multiple_of_identity()


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
            assert rank(m) == rank(Matrix([m.column_tuple(c) for c in range(m.cols)]))


def gcd_normalised_rref_rows(m):
    """``_rref_rows`` with every input row of ``[m | I]`` scaled to integers
    and then divided by its gcd before ``_gauss_jordan``."""
    rows = []
    for i in range(m.rows):
        row = [Fraction(m[i, j]) for j in range(m.cols)] + [Fraction(int(i == k)) for k in range(m.rows)]
        den = math.lcm(*(x.denominator for x in row))
        ints = [int(x * den) for x in row]
        g = math.gcd(*ints)
        rows.append([x // g for x in ints])
    a, pivots, order = matrices._gauss_jordan(rows, m.cols)
    r = len(pivots)
    divisors = [row[pivots[i]] if i < r else row[m.cols + order[i]] for i, row in enumerate(a)]
    return [tuple(row) for row in a], list(pivots), divisors


class TestRrefRows:
    @staticmethod
    def seeded_parameters():
        # Integer and rational J of every shape up to 6x6, dense and with
        # half their entries zero, so that many are rank-deficient.
        rng = random.Random(40)
        for rows in range(1, 7):
            for cols in range(1, 7):
                for zeros in (0.0, 0.5):
                    yield Matrix([[0 if rng.random() < zeros else rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
                    yield Matrix(
                        [
                            [0 if rng.random() < zeros else Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(cols)]
                            for _ in range(rows)
                        ]
                    )

    def test_rows_are_the_gcd_normalised_elimination(self):
        # The primitive-row lemma: no input row of [J | I] needs its gcd
        # taken, so the rows equal those of the elimination that takes it;
        # each row is primitive and is its divisor times the rational row.
        for j in self.seeded_parameters():
            a, pivots, divisors = matrices._rref_rows(j)
            assert ([tuple(row) for row in a], list(pivots), list(divisors)) == gcd_normalised_rref_rows(j)
            reduced, ref_pivots, transform = reference_rref(j)
            assert tuple(pivots) == ref_pivots
            for i, (row, d) in enumerate(zip(a, divisors)):
                assert math.gcd(*row) == 1
                expected = [reduced[i, c] for c in range(j.cols)] + [transform[i, c] for c in range(j.rows)]
                assert [Fraction(x, d) for x in row] == expected

    def test_a_matrix_keeps_its_elimination(self):
        for j in self.seeded_parameters():
            first = matrices._rref_rows(j)
            assert matrices._rref_rows(j) is first
            a, pivots, divisors = first
            assert type(a) is type(pivots) is type(divisors) is tuple
            assert all(type(row) is tuple for row in a)
            copy = Matrix.from_flat(j.rows, j.cols, j.entries)
            assert matrices._rref_rows(copy) == first and matrices._rref_rows(copy) is not first


class TestEchelon:
    """The span kernel ``_echelon`` on small fixed inputs, ahead of the
    hypothesis tests, so that a broken reduction fails here first."""

    def test_a_basis_pivot_other_than_one_scales_the_incoming_row(self):
        # (4, 3) meets the basis row (2, 1) at its pivot 2: it becomes
        # 2 (4, 3) - 4 (2, 1) = (0, 2), primitive (0, 1), which then clears
        # column 1 of (2, 1), leaving (2, 0), primitive (1, 0).
        rows = [(2, 1), (4, 3)]
        assert matrices._echelon(map(matrices._sparse_row, rows), 2) == {0: {0: 1}, 1: {1: 1}}
        assert matrices._eliminate(rows) == (((1, 0), (0, 1)), (0, 1))

    def test_basis_rows_are_primitive(self):
        # The returned rows are primitive integer rows with their pivot as
        # their first column, on the seeded parameters and their transposes.
        for j in TestRrefRows.seeded_parameters():
            for m in (j, Matrix(tuple(zip(*j._data)))):
                basis = matrices._echelon(map(matrices._sparse_row, m._data), min(m.rows, m.cols))
                assert len(basis) == len(reference_rref(m)[1])
                for c, row in basis.items():
                    assert min(row) == c and math.gcd(*row.values()) == 1, (m, row)


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
        assert f.q @ rank_normal_form(2, 2, f.rank) @ f.p == m  # oracle: re-multiply
        assert rank(f.q) == 2 and rank(f.p) == 2

    def test_round_trip_random(self):
        rng = random.Random(23)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -3, 3)
            f = rank_factorization(m)
            assert f.q @ rank_normal_form(m.rows, m.cols, f.rank) @ f.p == m
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

    def test_reduce_and_contains_check_the_shape(self):
        # A 3x2 matrix has as many entries as the 2x3 ambient space, but is
        # not in it: reducing it must not read it as a 2x3 matrix.
        s = Subspace.span(2, 3, [Matrix.unit(2, 3, 0, 0)])
        wrong = Matrix([[1, 0], [0, 0], [0, 0]])
        for check in (s.reduce, s.contains):
            with pytest.raises(ShapeError, match="3x2 vs ambient 2x3"):
                check(wrong)

    def test_eq_refuses_non_subspaces_and_repr(self):
        s = Subspace.span(2, 3, [Matrix.unit(2, 3, 0, 0)])
        assert s.__eq__(Matrix.unit(2, 3, 0, 0)) is NotImplemented
        assert repr(s) == "Subspace(dim=1, ambient=2x3)"

    def test_intersection(self):
        xy = Subspace.span(3, 1, [Matrix.column([1, 0, 0]), Matrix.column([0, 1, 0])])
        yz = Subspace.span(3, 1, [Matrix.column([0, 1, 0]), Matrix.column([0, 0, 1])])
        inter = intersection(xy, yz)
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


# -- differential tests of the elimination kernel -------------------------------


def reference_rref(m):
    """Gauss-Jordan over the rationals, kept verbatim from the original
    ``rref``: the reference the integer kernel must reproduce exactly."""
    a = [list(row) for row in m._data]
    t = [[1 if i == j else 0 for j in range(m.rows)] for i in range(m.rows)]
    pivots = []
    prow = 0
    for col in range(m.cols):
        pr = next((r for r in range(prow, m.rows) if a[r][col] != 0), None)
        if pr is None:
            continue
        if pr != prow:
            a[prow], a[pr] = a[pr], a[prow]
            t[prow], t[pr] = t[pr], t[prow]
        pv = a[prow][col]
        if pv != 1:
            a[prow] = [scalar_div(x, pv) for x in a[prow]]
            t[prow] = [scalar_div(x, pv) for x in t[prow]]
        for r in range(m.rows):
            if r == prow:
                continue
            f = a[r][col]
            if f != 0:
                arow, apiv = a[r], a[prow]
                a[r] = [x - f * y for x, y in zip(arow, apiv)]
                trow, tpiv = t[r], t[prow]
                t[r] = [x - f * y for x, y in zip(trow, tpiv)]
        pivots.append(col)
        prow += 1
        if prow == m.rows:
            break
    return Matrix(a), tuple(pivots), Matrix(t)


def reference_matmul(a, b):
    """The sum-of-products ``Matrix.__matmul__`` kept verbatim from before
    products were formed on integers.  Its entries are not canonical: a sum
    of ``Fraction`` terms stays a ``Fraction`` even when it is integral."""
    bcols = tuple(zip(*b._data))
    return Matrix._raw(
        tuple(tuple(sum(x * y for x, y in zip(arow, bcol)) for bcol in bcols) for arow in a._data)
    )


# Entries drawn from a fixed pool keep generation cheap; zeros are frequent
# so that pivots are skipped and rows are left untouched.
INTEGERS = [0, 0, 0, 1, -1, 2, -3, 5, 997, -1000]
FRACTIONS = [Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5), Fraction(-5, 6), Fraction(1, 7)]
ENTRIES = st.sampled_from(INTEGERS + FRACTIONS)


@st.composite
def rational_matrices(draw, max_rows=40, max_cols=8):
    """Tall and wide rational matrices, many rank-deficient, some with zero rows.

    A product has rank at most the inner size ``k``.  It is formed by
    ``reference_matmul``, so it also carries non-canonical ``Fraction(k, 1)``
    entries, which ``Matrix.__matmul__`` no longer produces.
    """
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))

    def block(r, c):
        flat = draw(st.lists(ENTRIES, min_size=r * c, max_size=r * c))
        data = [flat[i * c : (i + 1) * c] for i in range(r)]
        for i in draw(st.sets(st.integers(0, r - 1), max_size=r // 2)):
            data[i] = [0] * c
        return Matrix(data)

    if draw(st.booleans()):
        k = draw(st.integers(1, cols))
        return reference_matmul(block(rows, k), block(k, cols))
    return block(rows, cols)


@st.composite
def product_operands(draw):
    """A pair ``(A, B)`` with ``A @ B`` defined: rational, integer or sparse."""
    pool = draw(
        st.sampled_from(
            [
                INTEGERS + FRACTIONS,  # rational
                INTEGERS,  # integer
                [0] * 12 + [1, -1, 3, Fraction(1, 2), Fraction(-5, 6)],  # sparse
            ]
        )
    )
    rows, inner, cols = (draw(st.integers(1, 7)) for _ in range(3))

    def block(r, c):
        flat = draw(st.lists(st.sampled_from(pool), min_size=r * c, max_size=r * c))
        return Matrix([flat[i * c : (i + 1) * c] for i in range(r)])

    return block(rows, inner), block(inner, cols)


def canonical(m):
    """Entries with their types: Fraction(2, 1) and 2 must not both occur."""
    return [(x, type(x)) for x in m.entries]


DIFFERENTIAL = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
ORACLE = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestProductDifferential:
    @DIFFERENTIAL
    @given(product_operands())
    def test_product_matches_reference(self, operands):
        a, b = operands
        product = a @ b
        assert product == reference_matmul(a, b)
        for x in product.entries:
            assert type(x) is int or (type(x) is Fraction and x.denominator != 1)

    def test_integral_fraction_product_is_int(self):
        # (1/2)(2/3) + (1/2)(4/3) = 1: a sum of Fraction terms, integral.
        a = Matrix([[Fraction(1, 2), Fraction(1, 2)]])
        b = Matrix([[Fraction(2, 3)], [Fraction(4, 3)]])
        assert type(reference_matmul(a, b)[0, 0]) is Fraction
        assert type((a @ b)[0, 0]) is int and (a @ b)[0, 0] == 1


@st.composite
def arithmetic_operands(draw):
    """Two matrices of one shape and a scalar, from a rational, an integer or
    a sparse pool; halves and thirds make integral sums and multiples."""
    pool = draw(
        st.sampled_from(
            [
                INTEGERS + FRACTIONS + [Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3)],  # rational
                INTEGERS,  # integer
                [0] * 12 + [1, -1, Fraction(1, 2), Fraction(-1, 2)],  # sparse
            ]
        )
    )
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))

    def block():
        flat = draw(st.lists(st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols))
        return Matrix([flat[i * cols : (i + 1) * cols] for i in range(rows)])

    return block(), block(), draw(st.sampled_from(pool + [2, Fraction(3, 2), Fraction(-2, 1)]))


def fraction_entries(values):
    """The plain ``Fraction`` values, each with the canonical type it must have."""
    return [(v, int if v.denominator == 1 else Fraction) for v in values]


class TestArithmeticDifferential:
    """``+``, ``-``, unary ``-`` and scalar ``*`` against plain ``Fraction``
    arithmetic: equal values, and entries of type ``int`` when integral."""

    @DIFFERENTIAL
    @given(arithmetic_operands())
    def test_matches_fraction_arithmetic(self, operands):
        a, b, c = operands
        fa = [Fraction(x) for x in a.entries]
        fb = [Fraction(x) for x in b.entries]
        cases = [
            (a + b, [x + y for x, y in zip(fa, fb)]),
            (a - b, [x - y for x, y in zip(fa, fb)]),
            (-a, [-x for x in fa]),
            (a * c, [x * c for x in fa]),
            (c * a, [c * x for x in fa]),
        ]
        for got, expected in cases:
            assert [(x, type(x)) for x in got.entries] == fraction_entries(expected)

    def test_integral_results_are_int(self):
        half = Fraction(1, 2)
        assert canonical(Matrix.identity(2) * half) == [(half, Fraction), (0, int), (0, int), (half, Fraction)]
        assert canonical(Matrix([[half]]) + Matrix([[half]])) == [(1, int)]
        assert canonical(Matrix([[half]]) - Matrix([[half]])) == [(0, int)]
        assert canonical(Matrix([[half, 3]]) * 2) == [(1, int), (6, int)]


# Zero or dependent rows ahead of pivot rows: the swaps push a null row
# down, so its divisor must be read in the identity column of its original
# index, not of the place it ends in.
NULL_ROWS_BEFORE_PIVOTS = [
    Matrix([[0, 0], [0, 2], [3, 1]]),
    Matrix([[0, 1], [0, 2], [1, 0]]),
    Matrix([[0]]),
    Matrix(
        [
            [Fraction(1, 2), 1, Fraction(-2, 3)],
            [0, 0, 0],
            [1, 2, Fraction(-4, 3)],
            [Fraction(3, 5), 0, Fraction(7, 2)],
        ]
    ),
]


class TestKernelDifferential:
    @DIFFERENTIAL
    @given(st.one_of(rational_matrices(), rational_matrices(max_rows=8, max_cols=40)))
    @example(NULL_ROWS_BEFORE_PIVOTS[0])
    @example(NULL_ROWS_BEFORE_PIVOTS[1])
    @example(NULL_ROWS_BEFORE_PIVOTS[2])
    @example(NULL_ROWS_BEFORE_PIVOTS[3])
    def test_rref_matches_reference(self, m):
        reduced, pivots, transform = rref(m)
        ref_reduced, ref_pivots, ref_transform = reference_rref(m)
        assert pivots == ref_pivots
        assert canonical(reduced) == canonical(ref_reduced)
        assert canonical(transform) == canonical(ref_transform)

    @DIFFERENTIAL
    @given(rational_matrices())
    def test_span_basis_is_reference_rref(self, m):
        # Subspace.span builds its basis from the kernel without the identity block.
        span = Subspace.span(1, m.cols, [Matrix([m.row(i)]) for i in range(m.rows)])
        ref_reduced, ref_pivots, _ = reference_rref(m)
        expected = [(x, type(x)) for i in range(len(ref_pivots)) for x in ref_reduced.row(i)]
        assert [e for b in span.basis for e in canonical(b)] == expected


def to_sympy(m):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for x in m.entries])


def from_sympy(sm):
    return Matrix([[Fraction(int(x.p), int(x.q)) for x in sm.row(i)] for i in range(sm.rows)])


class TestSympyOracle:
    @ORACLE
    @given(rational_matrices())
    def test_rank(self, m):
        assert rank(m) == to_sympy(m).rank()

    @ORACLE
    @given(rational_matrices())
    def test_kernel_spans_null_space(self, m):
        null = [from_sympy(v) for v in to_sympy(m).nullspace()]
        ker = kernel(m)
        assert ker == Subspace.span(m.cols, 1, null)
        assert [canonical(v) for v in ker.basis] == [canonical(v) for v in null]
        assert all((m @ v).is_zero() for v in ker.basis)

    @ORACLE
    @given(rational_matrices(max_rows=8, max_cols=8))
    def test_inverse(self, m):
        sm = to_sympy(m)
        if m.rows != m.cols or sm.det() == 0:
            with pytest.raises((ShapeError, SingularMatrixError)):
                inverse(m)
        else:
            assert inverse(m) == from_sympy(sm.inv())

    @ORACLE
    @given(rational_matrices(), st.data())
    def test_solve_coordinates(self, m, data):
        sympy = pytest.importorskip("sympy")
        sm = to_sympy(m)
        _, sym_pivots = sm.rref()
        basis = [Matrix.column(m.column_tuple(c)) for c in sym_pivots]
        target = Matrix.column(data.draw(st.lists(ENTRIES, min_size=m.rows, max_size=m.rows)))
        coords = solve_coordinates(basis, target)
        if not basis:
            assert coords == (() if target.is_zero() else None)
            return
        system = sympy.Matrix.hstack(*(sm.col(c) for c in sym_pivots))
        try:
            solution, _ = system.gauss_jordan_solve(to_sympy(target))
        except ValueError:
            assert coords is None
        else:
            assert coords == tuple(Fraction(int(x.p), int(x.q)) for x in solution)

    @ORACLE
    @given(rational_matrices())
    def test_rank_factorization(self, m):
        f = rank_factorization(m)
        assert f.rank == to_sympy(m).rank()
        assert f.q @ rank_normal_form(m.rows, m.cols, f.rank) @ f.p == m
        assert to_sympy(f.q).det() != 0 and to_sympy(f.p).det() != 0


@st.composite
def full_rank_heads(draw, max_cols=8, max_tail=30):
    """``(m, k)``: a tall rational matrix whose first ``k`` rows already have
    full column rank, followed by arbitrary rows (zero, repeated, rational).

    The head is ``L @ U`` with triangular factors of nonzero diagonal, so it
    is invertible; formed by ``reference_matmul``, it can carry
    ``Fraction(k, 1)`` entries.  A multiple of a head row may sit right after
    it, so that rank is reached only at row ``k > cols``.
    """
    w = draw(st.integers(1, max_cols))
    nonzero = st.sampled_from([x for x in INTEGERS + FRACTIONS if x != 0])

    def triangular(lower):
        return Matrix(
            [
                [draw(nonzero) if i == j else (draw(ENTRIES) if (j < i) == lower else 0) for j in range(w)]
                for i in range(w)
            ]
        )

    head = list(reference_matmul(triangular(True), triangular(False))._data)
    for i in sorted(draw(st.sets(st.integers(0, w - 1), max_size=2)), reverse=True):
        head.insert(i + 1, tuple(draw(nonzero) * x for x in head[i]))
    tail_rows = draw(st.integers(1, max_tail))
    flat = draw(st.lists(ENTRIES, min_size=tail_rows * w, max_size=tail_rows * w))
    tail = [tuple(flat[i * w : (i + 1) * w]) for i in range(tail_rows)]
    return Matrix(head + tail), len(head)


class TestEarlyExit:
    """The span kernel stops once its basis has full column rank; the rows
    after that point are in the span and must change no result."""

    @ORACLE
    @given(full_rank_heads())
    def test_span_results_match_reference_and_sympy(self, case):
        m, _ = case
        ref_reduced, ref_pivots, _ = reference_rref(m)
        assert rank(m) == len(ref_pivots) == m.cols == to_sympy(m).rank()
        ker = kernel(m)
        assert ker.dim == 0 and to_sympy(m).nullspace() == []
        span = Subspace.span(1, m.cols, [Matrix([m.row(i)]) for i in range(m.rows)])
        expected = [(x, type(x)) for i in range(m.cols) for x in ref_reduced.row(i)]
        assert [e for b in span.basis for e in canonical(b)] == expected

    @ORACLE
    @given(full_rank_heads(max_cols=6), st.data())
    def test_solve_coordinates_stops_at_a_target_outside(self, case, data):
        # Columns 0..k-1 of the head are independent; the rows of [B | t]
        # reach rank k + 1 early exactly when t is outside their span.
        sympy = pytest.importorskip("sympy")
        m, _ = case
        k = data.draw(st.integers(1, m.cols))
        basis = [Matrix.column(m.column_tuple(c)) for c in range(k)]
        if data.draw(st.booleans()):
            target = Matrix.column(m.column_tuple(m.cols - 1))
        else:
            target = Matrix.column(data.draw(st.lists(ENTRIES, min_size=m.rows, max_size=m.rows)))
        coords = solve_coordinates(basis, target)
        stacked = Matrix([col + (t,) for col, t in zip(zip(*(b.entries for b in basis)), target.entries)])
        _, ref_pivots, _ = reference_rref(stacked)
        assert (coords is None) == (k in ref_pivots)
        system = sympy.Matrix.hstack(*(to_sympy(b) for b in basis))
        try:
            solution, _ = system.gauss_jordan_solve(to_sympy(target))
        except ValueError:
            assert coords is None
        else:
            assert coords == tuple(Fraction(int(x.p), int(x.q)) for x in solution)

    @pytest.mark.parametrize(
        "run",
        [
            rank,
            kernel,
            lambda m: Subspace.span(1, m.cols, [Matrix([m.row(i)]) for i in range(m.rows)]),
        ],
        ids=["rank", "kernel", "span"],
    )
    @pytest.mark.parametrize("tail", ["1/2 3 -1", "0 0 0", "1 0 0", "7/3 -5/6 997"])
    def test_rows_after_full_rank_are_not_converted(self, monkeypatch, run, tail):
        m = parse_matrix("1 2 0; 2 4 0; 0 1/2 1; 3 0 -1; " + "; ".join([tail] * 20))
        converted = []
        real = matrices._integer_row

        def spy(v):
            converted.append(tuple(v))
            return real(v)

        monkeypatch.setattr(matrices, "_integer_row", spy)
        run(m)
        assert converted == [m.row(i) for i in range(4)]

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    def test_rows_after_the_bound_are_not_read(self, bound):
        # Every row lies in the span of the first ``bound`` unit vectors of
        # Q^4.  The stream raises if it is read after the row that brings the
        # basis to ``bound`` rows; a zero row and multiples come before it.
        rows = [(0, 0, 0, 0)]
        for i in range(bound):
            v = tuple(Fraction(1, i + 1) if c == i else 3 * (c < i) for c in range(4))
            rows += [v, tuple(-2 * x for x in v)]
        rows.pop()
        tail = [tuple(7 if c < bound else 0 for c in range(4))] * 3

        def stream():
            yield from rows
            raise AssertionError("row read after the bound was reached")

        got = matrices._reduced_rows(matrices._echelon(map(matrices._sparse_row, stream()), bound), 4)
        assert got == matrices._eliminate(rows + tail)


def sympy_rref(sympy, rows, width):
    """``(reduced, pivots)`` of sympy's ``rref`` of ``rows``: its nonzero
    rows, with entries as canonical scalars, and its pivot columns."""
    if not rows:
        return (), ()
    flat = [sympy.Rational(x.numerator, x.denominator) for row in rows for x in row]
    reduced, pivots = sympy.Matrix(len(rows), width, flat).rref()
    out = tuple(
        tuple(int(x.p) if x.q == 1 else Fraction(int(x.p), int(x.q)) for x in reduced.row(i))
        for i in range(len(pivots))
    )
    return out, tuple(pivots)


def typed_result(result):
    reduced, pivots = result
    return [[(x, type(x)) for x in row] for row in reduced], pivots


NONZERO = [x for x in INTEGERS + FRACTIONS if x != 0]
ROW_ENTRIES = {
    "mostly-zero": st.sampled_from([0] * 12 + [1, -1, 3, -7, Fraction(1, 2)]),
    "dense": st.sampled_from([x for x in INTEGERS if x]),
    "rational": st.sampled_from(NONZERO),
    "all-zero": st.just(0),
}


@st.composite
def elimination_inputs(draw):
    """``(rows, width)``: rows that are mostly zero, dense integer, dense
    rational, all zero, or repeats and multiples of up to three rows (which
    can carry non-canonical ``Fraction(k, 1)`` entries)."""
    kind = draw(st.sampled_from(sorted(ROW_ENTRIES) + ["repeated"]))
    width = draw(st.integers(1, 10))
    count = draw(st.integers(0, 14))

    def row(entries):
        return tuple(draw(st.lists(entries, min_size=width, max_size=width)))

    if kind == "repeated":
        base = [row(ENTRIES) for _ in range(draw(st.integers(1, 3)))]
        scale = st.sampled_from([1, 1, -1, 2, Fraction(1, 3)])
        return [tuple(draw(scale) * x for x in draw(st.sampled_from(base))) for _ in range(count)], width
    return [row(ROW_ENTRIES[kind]) for _ in range(count)], width


class TestSparseKernelOracle:
    """``_eliminate`` (the sparse kernel ``_echelon`` behind its dense
    boundary) gives the rows, pivots and entry types of sympy's ``rref``,
    and the count-only kernel ``_rank`` gives its rank."""

    @ORACLE
    @given(elimination_inputs())
    def test_eliminate_matches_sympy_rref(self, case):
        sympy = pytest.importorskip("sympy")
        rows, width = case
        expected = sympy_rref(sympy, rows, width)
        assert typed_result(matrices._eliminate(rows)) == typed_result(expected)
        sparse = [matrices._sparse_row(row) for row in rows]
        assert matrices._rank(sparse, width) == len(expected[1]) == len(matrices._echelon(sparse, width))

    @ORACLE
    @given(st.data())
    def test_a_generator_with_a_valid_bound_gives_the_all_rows_result(self, data):
        # Every row is a combination of ``bound`` rows, so the span lies in a
        # space of dimension ``bound``; the rows are given as a generator.
        sympy = pytest.importorskip("sympy")
        width = data.draw(st.integers(1, 8))
        bound = data.draw(st.integers(1, width))
        space = [data.draw(st.lists(ENTRIES, min_size=width, max_size=width)) for _ in range(bound)]
        rows = []
        for _ in range(data.draw(st.integers(0, 12))):
            coefs = data.draw(st.lists(ENTRIES, min_size=bound, max_size=bound))
            rows.append(tuple(sum(c * v[i] for c, v in zip(coefs, space)) for i in range(width)))
        basis = matrices._echelon(map(matrices._sparse_row, iter(rows)), bound)
        expected = sympy_rref(sympy, rows, width)
        assert typed_result(matrices._reduced_rows(basis, width)) == typed_result(expected)
        assert typed_result(matrices._reduced_rows(basis, width)) == typed_result(matrices._eliminate(rows))
        assert matrices._rank(map(matrices._sparse_row, iter(rows)), bound) == len(expected[1]) == len(basis)

    @ORACLE
    @given(st.data())
    def test_rank_of_a_tall_rank_deficient_sparse_matrix(self, data):
        # More rows than columns, each a sparse integer combination of fewer
        # sparse rows than columns: the public ``rank`` (the ``_echelon``
        # basis) and the count loop ``_rank`` both give sympy's rank.
        sympy = pytest.importorskip("sympy")
        width = data.draw(st.integers(1, 8))
        sparse = st.sampled_from([0] * 8 + [1, -1, 2, -3, 5])
        k = data.draw(st.integers(0, width - 1))
        space = [data.draw(st.lists(sparse, min_size=width, max_size=width)) for _ in range(k)]
        rows = []
        for _ in range(data.draw(st.integers(width + 1, 4 * width + 4))):
            coefs = data.draw(st.lists(sparse, min_size=k, max_size=k))
            rows.append(tuple(sum(c * v[i] for c, v in zip(coefs, space)) for i in range(width)))
        m = Matrix(rows)
        expected = sympy.Matrix(rows).rank()
        assert expected < width
        assert rank(m) == expected == matrices._rank(map(matrices._sparse_row, rows), width)

    @ORACLE
    @given(elimination_inputs())
    def test_rank_and_normal_form_factors_leave_their_inputs_unchanged(self, case):
        # Callers hand ``_rank`` rows they read again (the signature's center
        # rank reads the ``_flat_ads`` rows the Killing form reads next), and
        # ``_normal_form_factors`` the ``_rref_rows`` of J; the factors it
        # writes pass ``_normal_form_transport``, which writes them.
        rows, width = case
        sparse = [matrices._sparse_row(row) for row in rows]
        before = [dict(row) for row in sparse]
        count = matrices._rank(sparse, width)
        assert sparse == before
        assert matrices._rank(sparse, width) == count
        if rows:
            j = Matrix(rows)
            e = matrices._rref_rows(j)
            snapshot = ([list(row) for row in e[0]], list(e[1]), list(e[2]))
            assert matrices._normal_form_transport(j) == count
            assert ([list(row) for row in e[0]], list(e[1]), list(e[2])) == snapshot
            assert len(e[1]) == count


# Integers and p/q, each in the canonical type the parsers return.
canonical_scalars = st.one_of(
    st.integers(-10**6, 10**6),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4)),
).map(lambda x: x.numerator if type(x) is Fraction and x.denominator == 1 else x)


@st.composite
def text_matrices(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return Matrix([draw(st.lists(canonical_scalars, min_size=cols, max_size=cols)) for _ in range(rows)])


def typed_entries(m):
    return [(x, type(x)) for x in m.entries]


class TestRoundTrips:
    @settings(max_examples=100, deadline=None)
    @given(text_matrices())
    def test_parse_matrix_inverts_format_matrix(self, m):
        text = format_matrix(m)
        again = parse_matrix(text)
        assert again.shape == m.shape
        assert typed_entries(again) == typed_entries(m)
        assert format_matrix(again) == text

    @settings(max_examples=100, deadline=None)
    @given(text_matrices())
    def test_matrix_from_json_inverts_matrix_to_json(self, m):
        obj = json.loads(json.dumps(matrix_to_json(m)))
        again = matrix_from_json(obj)
        assert again.shape == m.shape
        assert typed_entries(again) == typed_entries(m)
        assert matrix_to_json(again) == obj
