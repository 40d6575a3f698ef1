"""The parametrized bracket, its block form, and structure constants."""

import json
import math
import random
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liebrackets.brackets import (
    BracketParam,
    StructureConstants,
    _packed_brackets,
    _pair_brackets,
    basis_matrices,
    bracket,
    structure_constants,
)
from liebrackets.constructions import semidirect_S
from liebrackets.matrices import (
    Matrix,
    ShapeError,
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
        (a, b, bracket(elements[a], elements[b], param).entries) for a in range(d) for b in range(a + 1, d)
    ]
    got = list(_pair_brackets(elements, param))
    assert got == expect
    # Entry types too: Fraction(2, 1) and 2 compare equal.
    assert [[type(x) for x in w] for *_, w in got] == [[type(x) for x in w] for *_, w in expect]


def scaled(rows, s):
    return Matrix([[s * x for x in row] for row in rows])


# Cases at the slot width of ``_packed_brackets``: the largest entry of
# the brackets of the operands scaled to integers needs all but the sign
# bit of a slot, so a slot one bit narrower decodes it wrongly.
# ``HUGE`` is odd and prime to the denominators, so each element scales
# back to the integer operand it is built from.
HUGE, DEN = 3**45, 10**30 + 7
# 2x4, J with a zero first row and ones below: [X_0, X_1] has the entry
# 12 HUGE^2 = 2 n max|X| max|Y| (max|X| = HUGE, max|Y| = 3 HUGE).
TALL_J = [[0, 0], [1, 1], [1, 1], [1, 1]]
TALL = ([[1, 1, 1, 1], [1, 0, 0, 0]], [[1, -1, -1, -1], [1, 0, 0, 0]])
TALL_MIXED = [[HUGE, 1 - HUGE, 5, -HUGE], [-7, HUGE, 0, 1]]
# 1x4, J = (3, -5, 0, 0)^T: [X_0, X_1] = (0, 0, 16 HUGE^2, -16 HUGE^2),
# and 2 n max|X| max|Y| = 2 HUGE (8 HUGE).
ROW_J = [[3], [-5], [0], [0]]
ROW = ([[1, -1, 1, -1]], [[-1, 1, 1, -1]])
ROW_MIXED = [[HUGE - 2, 0, -HUGE, 9]]
PACKING_BOUND_CASES = {
    "huge-mixed-sign-2x4": (2, 4, TALL_J, [(e, HUGE) for e in TALL] + [(TALL_MIXED, 1)]),
    "huge-mixed-sign-1x4": (1, 4, ROW_J, [(e, HUGE) for e in ROW] + [(ROW_MIXED, 1)]),
    "large-denominators-2x4": (
        2, 4, [[Fraction(x, 2**61 - 1) for x in row] for row in TALL_J],
        [(TALL[0], Fraction(HUGE, DEN)), (TALL[1], Fraction(-HUGE, DEN + 2)), (TALL_MIXED, Fraction(1, DEN))],
    ),
}


def transposed(x: Matrix) -> Matrix:
    return Matrix([list(x.column_tuple(j)) for j in range(x.cols)])


@st.composite
def transposition_cases(draw):
    """A rational J and two rational operands of a shape up to 4x4."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def block(rows, cols):
        flat = draw(st.lists(ENTRIES, min_size=rows * cols, max_size=rows * cols))
        return Matrix([flat[i * cols : (i + 1) * cols] for i in range(rows)])

    return BracketParam(n, m, block(m, n)), block(n, m), block(n, m)


class TestTransposition:
    @settings(max_examples=80, deadline=None)
    @given(transposition_cases())
    def test_transpose_of_a_bracket(self, case):
        # ([A, B]_J)^T = -[A^T, B^T]_(J^T): A -> -A^T is an isomorphism from
        # the J-bracket on Mat(n x m) onto the J^T-bracket on Mat(m x n),
        # the lemma that lets verify share the signatures of (n, m) and (m, n).
        param, a, b = case
        flipped = BracketParam(param.m, param.n, transposed(param.j))
        assert transposed(bracket(a, b, param)) == -bracket(transposed(a), transposed(b), flipped)

    def test_normal_forms_transpose(self):
        for n in range(1, 5):
            for m in range(1, 5):
                for r in range(min(n, m) + 1):
                    assert transposed(rank_normal_form(m, n, r)) == rank_normal_form(n, m, r)


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

    @pytest.mark.parametrize("name", sorted(PACKING_BOUND_CASES))
    def test_at_the_packing_bound(self, name):
        n, m, j, elements = PACKING_BOUND_CASES[name]
        param = BracketParam(n, m, Matrix(j))
        elements = [scaled(rows, s) for rows, s in elements]
        assert_pair_brackets_match(elements, param)
        ints = [x * math.lcm(*(Fraction(v).denominator for v in x.entries)) for x in elements]
        int_param = BracketParam(n, m, param.j * math.lcm(*(Fraction(v).denominator for v in param.j.entries)))
        w, _ = _packed_brackets([x.entries for x in ints], int_param.j.entries, n, m)
        top = max(abs(v) for a, x in enumerate(ints) for y in ints[a + 1 :] for v in bracket(x, y, int_param).entries)
        assert top.bit_length() == w - 1

    def test_a_pair_with_a_zero_bracket(self):
        # x J != 0, but [x, 2x] = [x, 3x] = [2x, 3x] = 0: each pair gets the
        # one shared zero tuple.
        param = BracketParam(2, 4, Matrix(TALL_J))
        x = scaled(TALL_MIXED, Fraction(1, DEN))
        assert not (x @ param.j).is_zero()
        elements = [x, x * 2, x * 3]
        assert_pair_brackets_match(elements, param)
        assert len({id(w) for *_, w in _pair_brackets(elements, param)}) == 1

    @pytest.mark.parametrize(
        "j, elements",
        [
            ([[0, 0]] * 4, [TALL_MIXED, [[HUGE, 0, 0, 0], [0, 0, 0, -HUGE]], TALL[1]]),
            (TALL_J, [TALL_MIXED]),
        ],
        ids=["zero-parameter", "single-element"],
    )
    def test_huge_entries_without_a_nonzero_bracket(self, j, elements):
        assert_pair_brackets_match([Matrix(e) for e in elements], BracketParam(2, 4, Matrix(j)))


# ---------------------------------------------------------------------------
# The block form of the bracket under a rank normal form, kept as a reference.
# ---------------------------------------------------------------------------


def block_bracket(a_blocks, b_blocks, r: int):
    """Bracket under the rank-r normal-form parameter, block by block.

    Blocks are (top-left, bottom-left, top-right, bottom-right) split at
    ``r`` in both directions.  ``None`` stands for a zero block (including
    blocks of zero extent, which ``join_blocks`` skips); sizes are
    inferred from whichever side carries data.  Returns the blocks of
    the bracket in the same order:

        ([A1, B1], A2 B1 - B2 A1, A1 B3 - B1 A3, A2 B3 - B2 A3)

    The bottom-right operand blocks never enter.  Kept verbatim from the
    former ``brackets.block_bracket``, which built ``semidirect_S``'s table
    by dense block products.
    """
    a1, a2, a3, a4 = a_blocks
    b1, b2, b3, b4 = b_blocks
    nr = next((blk.rows for blk in (a2, b2, a4, b4) if blk is not None), 0)
    mr = next((blk.cols for blk in (a3, b3, a4, b4) if blk is not None), 0)
    expectations = (
        ("top-left", (a1, b1), (r, r)),
        ("bottom-left", (a2, b2), (nr, r)),
        ("top-right", (a3, b3), (r, mr)),
        ("bottom-right", (a4, b4), (nr, mr)),
    )
    for name, pair, want in expectations:
        for blk in pair:
            if blk is not None and blk.shape != want:
                raise ShapeError(
                    f"{name} block has shape {blk.rows}x{blk.cols}, expected {want[0]}x{want[1]}"
                )
    c1 = _pair(a1, b1, b1, a1, r, r)
    c2 = _pair(a2, b1, b2, a1, nr, r)
    c3 = _pair(a1, b3, b1, a3, r, mr)
    c4 = _pair(a2, b3, b2, a3, nr, mr)
    return (c1, c2, c3, c4)


def _pair(x, y, u, v, out_rows: int, out_cols: int) -> Optional[Matrix]:
    """x @ y - u @ v where any factor may be an absent (None) block."""
    if out_rows == 0 or out_cols == 0:
        return None
    first = None if (x is None or y is None) else x @ y
    second = None if (u is None or v is None) else u @ v
    if first is None and second is None:
        return Matrix.zeros(out_rows, out_cols)
    if first is None:
        return -second
    if second is None:
        return first
    return first - second


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


def reference_semidirect(r, s):
    """The table, ``phi`` columns and labels of ``semidirect_S(r, s)`` as it
    built them before it wrote the table from unit products: the reference
    ``block_bracket`` of every pair of basis quadruples, flattened to
    coordinates, and ``join_blocks`` of each quadruple."""
    n = r + s
    dim = n * n
    components = (("X", r, r, 0), ("A", s, r, r * r), ("B", r, s, r * r + s * r), ("C", s, s, r * r + 2 * r * s))
    basis_blocks = []
    labels = []
    for name, rows, cols, _ in components:
        for i in range(rows):
            for j in range(cols):
                blocks = {cname: None for cname, *_ in components}
                blocks[name] = Matrix.unit(rows, cols, i, j)
                basis_blocks.append((blocks["X"], blocks["A"], blocks["B"], blocks["C"]))
                labels.append(f"{name}[{i + 1},{j + 1}]")

    def flatten(blocks):
        coords = [0] * dim
        for (name, rows, cols, off), blk in zip(components, blocks):
            if blk is None or rows == 0 or cols == 0:
                continue
            for i in range(rows):
                for j in range(cols):
                    coords[off + i * cols + j] = blk[i, j]
        return tuple(coords)

    table = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            w = block_bracket(basis_blocks[a], basis_blocks[b], r)
            terms = {k: v for k, v in enumerate(flatten(w)) if v != 0}
            if terms:
                table[(a, b)] = terms
    columns = [join_blocks(blocks, n, n, r).entries for blocks in basis_blocks]
    return StructureConstants(dim, table), columns, tuple(labels)


class TestSemidirectTable:
    """``semidirect_S`` writes its table from the four unit-block products;
    the dense block bracket of every pair of quadruples is the reference."""

    @pytest.mark.parametrize("r, s", [(r, s) for r in range(1, 7) for s in range(7 - r)])
    def test_unit_products_match_the_block_bracket(self, r, s):
        model = semidirect_S(r, s)
        constants, columns, labels = reference_semidirect(r, s)
        assert ordered_table(model.constants) == ordered_table(constants)
        phi = model.phi
        assert [phi.column_tuple(a) for a in range(model.dim)] == columns
        assert model.labels == labels


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
        w == tuple(table.get((a, b), {}).get(k, 0) for k in range(dim))
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

    def test_table_is_what_validation_keeps(self):
        # structure_constants skips the validating constructor; its table
        # must be the one that constructor keeps, entry types included.
        rng = random.Random(11)
        for _ in range(30):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            j = Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(m)])
            sc = structure_constants(BracketParam(n, m, j))
            validated = StructureConstants(sc.dim, sc.table)
            assert sc == validated
            assert list(sc.table.items()) == list(validated.table.items())
            assert [type(v) for t in sc.table.values() for v in t.values()] == [
                type(v) for t in validated.table.values() for v in t.values()
            ]

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
        assert reference_bracket_coords(sc, x, y) == bracket(xm, ym, param).entries


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


# ---------------------------------------------------------------------------
# The sparse walk of structure_constants against the pair loop it replaced.
# ---------------------------------------------------------------------------


def reference_structure_constants(param):
    """``brackets.structure_constants`` kept verbatim from before it walked
    the nonzero entries of J: it visits every basis pair a < b."""
    n, m, j = param.n, param.m, param.j
    table = {}
    for a in range(n * m):
        i, jj = divmod(a, m)
        for b in range(a + 1, n * m):
            k, ll = divmod(b, m)
            terms = {}
            c1 = j._data[jj][k]
            if c1 != 0:
                terms[i * m + ll] = terms.get(i * m + ll, 0) + c1
            c2 = j._data[ll][i]
            if c2 != 0:
                t = k * m + jj
                terms[t] = terms.get(t, 0) - c2
            terms = {kk: v for kk, v in terms.items() if v != 0}
            if terms:
                table[(a, b)] = terms
    return StructureConstants(n * m, table)


def ordered_table(sc):
    """Every pair and term of a table, in iteration order, with its type."""
    return [(pair, [(k, v, type(v)) for k, v in terms.items()]) for pair, terms in sc.table.items()]


ENTRY_POOLS = {
    "zero": [0],
    "integer": [0, 0, 1, -1, 2, -3],
    "rational": [0, 0, 1, -2, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 4)],
    "sparse": [0] * 6 + [1, -1, Fraction(5, 3)],
}


class TestStructureConstantsDifferential:
    @pytest.mark.parametrize("pool", sorted(ENTRY_POOLS))
    def test_every_shape_up_to_six_matches_the_reference(self, pool):
        rng = random.Random(f"structure-constants:{pool}")
        for n in range(1, 7):
            for m in range(1, 7):
                j = Matrix([[rng.choice(ENTRY_POOLS[pool]) for _ in range(n)] for _ in range(m)])
                param = BracketParam(n, m, j)
                assert ordered_table(structure_constants(param)) == ordered_table(
                    reference_structure_constants(param)
                ), (n, m, str(j))

    @pytest.mark.parametrize(
        "param",
        [BracketParam.commutator(9), BracketParam.normal(5, 7, 3), BracketParam.normal(7, 5, 5)],
        ids=["commutator-9", "normal-5x7-r3", "normal-7x5-r5"],
    )
    def test_normal_forms_match_the_reference(self, param):
        assert ordered_table(structure_constants(param)) == ordered_table(reference_structure_constants(param))


# Integers and p/q, each in the canonical type the parsers return.
canonical_scalars = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
).map(lambda x: x.numerator if type(x) is Fraction and x.denominator == 1 else x)


@st.composite
def constants_tables(draw):
    """A table of random constants, or the table of a random parameter."""
    if draw(st.booleans()):
        n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        flat = draw(st.lists(st.one_of(st.just(0), canonical_scalars), min_size=n * m, max_size=n * m))
        return structure_constants(BracketParam(n, m, Matrix([flat[i * n : (i + 1) * n] for i in range(m)])))
    d = draw(st.integers(1, 6))
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    terms = st.lists(st.tuples(st.integers(0, d - 1), canonical_scalars), max_size=3)
    return StructureConstants(d, {pair: dict(draw(terms)) for pair in chosen})


class TestConstantsJsonRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(constants_tables())
    def test_from_json_inverts_to_json(self, sc):
        obj = json.loads(json.dumps(sc.to_json()))
        again = StructureConstants.from_json(obj)
        assert again == sc
        assert {p: {k: type(v) for k, v in t.items()} for p, t in again.table.items()} == {
            p: {k: type(v) for k, v in t.items()} for p, t in sc.table.items()
        }
        assert again.to_json() == obj

    @pytest.mark.parametrize(
        "obj",
        [
            {"dim": True, "brackets": []},
            {"dim": 2.0, "brackets": []},
            {"dim": 2, "brackets": [{"i": False, "j": 1, "terms": []}]},
            {"dim": 2, "brackets": [{"i": 0, "j": 1.0, "terms": []}]},
            {"dim": 2, "brackets": [{"i": 0, "j": 1, "terms": [{"k": True, "coef": "1"}]}]},
        ],
        ids=["dim-bool", "dim-float", "i-bool", "j-float", "k-bool"],
    )
    def test_from_json_refuses_non_integer_indices(self, obj):
        with pytest.raises(ValueError, match='"dim", "i", "j" and "k" must be integers'):
            StructureConstants.from_json(obj)

    def test_eq_refuses_other_types(self):
        sc = StructureConstants(2, {(0, 1): {0: 1}})
        assert sc.__eq__(sc.to_json()) is NotImplemented
        assert sc != sc.to_json()
