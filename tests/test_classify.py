"""Equivalence, witnesses, and the desk-scale classification harness."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from liebrackets import algebra, brackets, classify, cli, matrices, scalars, verify
from liebrackets.algebra import LieAlgebra, hom_check, invariant_signature
from liebrackets.brackets import BracketParam, basis_matrices
from liebrackets.classify import (
    ClassificationError,
    classify_rank_family,
    iso_witness,
    random_parameter,
)
from liebrackets.matrices import (
    Matrix,
    ShapeError,
    inverse,
    parse_matrix,
    rank,
    rank_factorization,
    rank_normal_form,
    rref,
)
from liebrackets.verify import check_deformation_coboundary, check_iso_soundness, check_signature_separation
from test_algebra import from_columns


def equivalent(j1, j2):
    """Whether ``iso_witness`` relates the two parameters: it does exactly
    when they share a rank, and refuses parameters of different ranks."""
    try:
        iso_witness(j1, j2)
    except ClassificationError:
        return False
    return True


class TestEquivalent:
    def test_reflexive(self):
        j = parse_matrix("1 2; 3 4")
        assert equivalent(j, j)

    def test_rank_one_pair(self):
        assert equivalent(Matrix.diagonal([1, 0]), Matrix.diagonal([0, 1]))

    def test_different_ranks(self):
        assert not equivalent(Matrix.identity(2), Matrix.diagonal([1, 0]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            equivalent(Matrix.identity(2), Matrix.zeros(2, 3))

    def test_equivalence_relation_random(self):
        rng = random.Random(0)
        for _ in range(20):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            ranks = [rng.randint(0, min(rows, cols)) for _ in range(3)]
            a, b, c = (random_parameter(rng, rows, cols, r) for r in ranks)
            assert equivalent(a, a)
            assert equivalent(a, b) == equivalent(b, a) == (ranks[0] == ranks[1])
            if equivalent(a, b) and equivalent(b, c):
                assert equivalent(a, c)


class TestNormalForm:
    def test_wraps_factorization(self):
        f = rank_factorization(parse_matrix("0 1; 1 0"))
        assert (f.q.rows, f.p.rows, f.rank) == (2, 2, 2)
        assert f.q @ rank_normal_form(2, 2, f.rank) @ f.p == parse_matrix("0 1; 1 0")

    def test_normal_input_is_fixed(self):
        f = rank_factorization(rank_normal_form(3, 2, 1))
        assert f.q == Matrix.identity(3)
        assert f.p == Matrix.identity(2)


def _verify_witness(j1, j2):
    n, m = j1.cols, j1.rows
    return hom_check(iso_witness(j1, j2), LieAlgebra.from_param(BracketParam(n, m, j1)), BracketParam(n, m, j2))


def reference_iso_witness(j1, j2):
    """The witness formed by two ``Matrix`` products ``P @ E_ij @ Q`` per
    basis element, kept as the reference for the outer-product columns."""
    f1, f2 = rank_factorization(j1), rank_factorization(j2)
    q = f1.q @ inverse(f2.q)
    p = inverse(f2.p) @ f1.p
    return from_columns([(p @ e @ q).entries for e in basis_matrices(j1.cols, j1.rows)])


def column_factor_inverse(reduced, pivots):
    """The inverse of ``rank_factorization``'s column factor ``p`` (the
    nonzero rows of ``reduced``, then the unit rows of its non-pivot
    columns), written down without elimination: its column ``i`` is
    ``e_{c_i}`` for the pivot column ``c_i``, and the column after them for
    the non-pivot column ``f`` is ``e_f - sum_i reduced[i][f] e_{c_i}``."""
    n = reduced.cols
    columns = [tuple(1 if x == c else 0 for x in range(n)) for c in pivots]
    for f in range(n):
        if f in pivots:
            continue
        column = [0] * n
        column[f] = 1
        for i, c in enumerate(pivots):
            column[c] = -reduced[i, f]
        columns.append(column)
    return Matrix(tuple(zip(*columns)))


@st.composite
def same_rank_rational_pairs(draw):
    """Two rational ``rows x cols`` parameters of one rank, each a product of
    factors through the rank, so that ``P`` and ``Q`` carry fractions."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    r = draw(st.integers(0, min(rows, cols)))
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))

    def parameter():
        if r == 0:
            return Matrix.zeros(rows, cols)
        left = Matrix([[draw(entry) for _ in range(r)] for _ in range(rows)])
        right = Matrix([[draw(entry) for _ in range(cols)] for _ in range(r)])
        return left @ right

    j1, j2 = parameter(), parameter()
    assume(rank(j1) == rank(j2))
    return j1, j2


def rational_parameter(rows, cols, r, seed):
    """A seeded rational ``rows x cols`` parameter of rank exactly ``r``."""
    rng = random.Random(seed)
    if r == 0:
        return Matrix.zeros(rows, cols)
    while True:
        left = Matrix([[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r)] for _ in range(rows)])
        right = Matrix([[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)] for _ in range(r)])
        j = left @ right
        if rank(j) == r:
            return j


# The corners of the 6x6 range: rank 0 and full rank, square and rectangular.
EDGE_PAIRS = [
    (rational_parameter(rows, cols, r, 2 * seed), rational_parameter(rows, cols, r, 2 * seed + 1))
    for seed, (rows, cols, r) in enumerate(
        ((6, 6, 0), (6, 6, 6), (4, 6, 4), (6, 4, 4), (1, 6, 1), (6, 1, 0), (6, 5, 5))
    )
]


class TestIsoWitness:
    def test_identity_case(self):
        j = rank_normal_form(2, 3, 1)
        f = iso_witness(j, j)
        assert f == Matrix.identity(6)

    def test_rank_one_permutation_pair(self):
        verdict = _verify_witness(Matrix.diagonal([1, 0]), Matrix.diagonal([0, 1]))
        assert verdict.bijective

    def test_scaling_pair(self):
        verdict = _verify_witness(2 * Matrix.identity(2), Matrix.identity(2))
        assert verdict.bijective

    def test_rectangular_random(self):
        rng = random.Random(1)
        for _ in range(10):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            r = rng.randint(0, min(n, m))
            j1 = random_parameter(rng, m, n, r)
            j2 = random_parameter(rng, m, n, r)
            assert _verify_witness(j1, j2).bijective

    @settings(max_examples=80, deadline=None)
    @given(same_rank_rational_pairs())
    @example(EDGE_PAIRS[0])
    @example(EDGE_PAIRS[1])
    @example(EDGE_PAIRS[2])
    @example(EDGE_PAIRS[3])
    @example(EDGE_PAIRS[4])
    @example(EDGE_PAIRS[5])
    @example(EDGE_PAIRS[6])
    def test_matches_product_form_reference(self, pair):
        j1, j2 = pair
        got, expected = iso_witness(j1, j2), reference_iso_witness(j1, j2)
        assert got == expected
        assert [type(x) for x in got.entries] == [type(x) for x in expected.entries]

    @settings(max_examples=60, deadline=None)
    @given(same_rank_rational_pairs())
    def test_closed_form_p_inverse(self, pair):
        # The inverse of rank_factorization's column factor, read off the
        # reduced row-echelon form, is the one Gauss-Jordan gives.
        j = pair[0]
        p = rank_factorization(j).p
        reduced, pivots, _ = rref(j)
        p_inverse = column_factor_inverse(reduced, pivots)
        assert p_inverse @ p == Matrix.identity(j.cols)
        assert p_inverse == inverse(p)

    def test_eliminates_each_parameter_once(self, monkeypatch):
        # One Gauss-Jordan per parameter and one for Q, with no inverse and
        # no matrix product.  The parameters are fresh copies, since a
        # ``Matrix`` keeps its elimination and an earlier test may have run it.
        j1, j2 = (Matrix.from_flat(j.rows, j.cols, j.entries) for j in EDGE_PAIRS[2])
        expected = reference_iso_witness(*EDGE_PAIRS[2])
        calls = []
        real = matrices._gauss_jordan

        def spy(a, width):
            calls.append((len(a), width))
            return real(a, width)

        def refuse(*args):
            raise AssertionError("iso_witness must not invert or multiply matrices")

        with monkeypatch.context() as patch:
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "liebrackets":
                    if getattr(module, "_gauss_jordan", None) is real:
                        patch.setattr(module, "_gauss_jordan", spy)
                    if getattr(module, "inverse", None) is inverse:
                        patch.setattr(module, "inverse", refuse)
            patch.setattr(Matrix, "__matmul__", refuse)
            got = iso_witness(j1, j2)
        assert calls == [(4, 6), (4, 6), (4, 4)]
        assert got == expected

    EQUAL_PARAMETERS = ["0", "0 0 0; 0 0 0", "0 0; 0 0; 0 0", "3", "2 -1; 1 3", "1 2 0 -1; 2 4 0 -2",
                        "-3; 0; 1", "1/2 1 0; 0 2/3 1", "1/3 -2/5; 0 0; 1 7/4", "1/2 0 0 0; 0 0 0 -3/4"]

    @pytest.mark.parametrize("text", EQUAL_PARAMETERS)
    def test_equal_parameters_take_the_identity_witness_with_no_elimination(self, monkeypatch, text):
        # j1 = I j2 I is the proof: no Gauss-Jordan and no rank, of the
        # witness or of its check.  The parameters are fresh copies, so no
        # elimination kept on a matrix hides a call.
        calls = []
        real_gauss_jordan, real_rank = matrices._gauss_jordan, matrices._rank

        def refused(kind):
            return lambda *args: calls.append(kind)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "liebrackets":
                if getattr(module, "_gauss_jordan", None) is real_gauss_jordan:
                    monkeypatch.setattr(module, "_gauss_jordan", refused("gauss_jordan"))
                if getattr(module, "_rank", None) is real_rank:
                    monkeypatch.setattr(module, "_rank", refused("rank"))
        j = parse_matrix(text)
        identity = Matrix.identity(j.rows * j.cols)
        assert classify._checked_witness(j, parse_matrix(text)) == algebra.HomVerdict(True, True)
        assert classify.verified_witness(parse_matrix(text), parse_matrix(text)) == (
            identity,
            algebra.HomVerdict(True, True),
        )
        assert iso_witness(parse_matrix(text), parse_matrix(text)) == identity
        assert calls == []

    @settings(max_examples=60, deadline=None)
    @given(same_rank_rational_pairs())
    def test_elimination_gives_equal_parameters_the_identity_factors(self, pair):
        # The identity factors of equal parameters are those _rref_factors
        # writes from their eliminations, so every witness and report is
        # the one the elimination gives.
        j = pair[0]
        copy = Matrix.from_flat(j.rows, j.cols, j.entries)
        eliminated = matrices._rref_factors(matrices._rref_rows(j), matrices._rref_rows(copy), j.cols, j.rows)
        assert eliminated == matrices._identity_factors(j.cols, j.rows) == classify._witness_factors(j, copy)

    def test_verified_witness_builds_its_factors_once(self, monkeypatch):
        # The map and its verdict both come from one factor build: with the
        # factors' Q halved there, the map is half the witness, and its
        # verdict is the one hom_check gives that map.
        j1, j2 = Matrix([[1, 2], [3, 4]]), Matrix([[0, 1], [1, 0]])
        real = classify._witness_factors
        calls = []

        def halved_q(a, b):
            calls.append((a, b))
            pflat, dp, qflat, dq = real(a, b)
            return pflat, dp, qflat, 2 * dq

        monkeypatch.setattr(classify, "_witness_factors", halved_q)
        f, verdict = classify.verified_witness(j1, j2)
        assert calls == [(j1, j2)]
        monkeypatch.undo()
        assert f == iso_witness(j1, j2) * Fraction(1, 2)
        assert verdict == hom_check(f, LieAlgebra.from_param(BracketParam(2, 2, j1)), BracketParam(2, 2, j2))
        assert not verdict.is_hom and verdict.injective

    def test_inequivalent_carries_ranks(self):
        with pytest.raises(ClassificationError) as exc:
            iso_witness(Matrix.identity(2), Matrix.diagonal([1, 0]))
        assert (exc.value.rank1, exc.value.rank2) == (2, 1)

    def test_round_trip_is_automorphism(self):
        rng = random.Random(2)
        j1 = random_parameter(rng, 2, 2, 1)
        j2 = random_parameter(rng, 2, 2, 1)
        forward = iso_witness(j1, j2)
        back = iso_witness(j2, j1)
        composed = back @ forward
        param1 = BracketParam(2, 2, j1)
        verdict = hom_check(composed, LieAlgebra.from_param(param1), param1)
        assert verdict.bijective


CORRUPTIONS = ["witness", "drop-q2-inverse", "swap-p-rows", "double-q-last-row", "zero-p", "zero-q", "zero"]


def corrupted_factors(j1, j2, kind):
    """The factors of ``classify._witness_factors(j1, j2)``, or a wrong
    witness in their form: ``Q = q1`` without ``q2^-1``, ``P`` with its
    first and last rows swapped, ``Q`` with its last row doubled (which
    changes only the last row of ``Q J2 P``), ``P = 0``, ``Q = 0``, or the
    zero map."""
    pflat, dp, qflat, dq = classify._witness_factors(j1, j2)
    n, m = j1.cols, j1.rows
    if kind == "drop-q2-inverse":
        qflat, dq = matrices._integer_row(rank_factorization(j1).q.entries)
    elif kind == "swap-p-rows":
        prows = [list(pflat[i * n : (i + 1) * n]) for i in range(n)]
        prows[0], prows[-1] = prows[-1], prows[0]
        pflat = [x for row in prows for x in row]
    elif kind == "double-q-last-row":
        qflat = list(qflat[: (m - 1) * m]) + [2 * x for x in qflat[(m - 1) * m :]]
    if kind in ("zero-p", "zero"):
        pflat, dp = [0] * (n * n), 1
    if kind in ("zero-q", "zero"):
        qflat, dq = [0] * (m * m), 1
    return pflat, dp, qflat, dq


def product_form_map(n, m, pflat, dp, qflat, dq):
    """The map ``A -> P A Q`` on ``Mat(n x m)`` by two ``Matrix`` products per
    basis element, kept as the reference for the Kronecker columns."""
    p = Matrix([[Fraction(x, dp) for x in pflat[i * n : (i + 1) * n]] for i in range(n)])
    q = Matrix([[Fraction(x, dq) for x in qflat[j * m : (j + 1) * m]] for j in range(m)])
    return from_columns([(p @ e @ q).entries for e in basis_matrices(n, m)]), p, q


class TestFactorVerdict:
    @settings(max_examples=120, deadline=None)
    @given(same_rank_rational_pairs(), st.sampled_from(CORRUPTIONS))
    @example((Matrix([[1]]), Matrix([[Fraction(-2, 3)]])), "witness")
    @example((Matrix([[1]]), Matrix([[Fraction(-2, 3)]])), "drop-q2-inverse")
    @example((Matrix([[1]]), Matrix([[3]])), "zero")
    @example((Matrix.zeros(1, 1), Matrix.zeros(1, 1)), "zero")
    @example((Matrix.zeros(2, 3), Matrix.zeros(2, 3)), "swap-p-rows")
    @example((Matrix.zeros(2, 3), Matrix.zeros(2, 3)), "zero-p")
    @example((Matrix.zeros(2, 3), Matrix.zeros(2, 3)), "zero-q")
    @example(EDGE_PAIRS[1], "double-q-last-row")
    @example(EDGE_PAIRS[2], "drop-q2-inverse")
    @example(EDGE_PAIRS[3], "swap-p-rows")
    def test_matches_packed_check_of_the_kronecker_columns(self, pair, kind):
        # The factor route's verdict (identity plus two factor ranks) equals
        # the packed homomorphism check of the map A -> P A Q built by matrix
        # products, in is_hom, injective and witness; the packed check runs
        # exactly when the identity J1 = Q J2 P fails; and the Kronecker
        # columns it is given are that map.
        j1, j2 = pair
        n, m = j1.cols, j1.rows
        factors = corrupted_factors(j1, j2, kind)
        reference, p, q = product_form_map(n, m, *factors)
        packed_calls = []
        real_packed = classify._packed_hom_check

        def packed(cols, den, src, model):
            packed_calls.append(classify._columns_map(cols, den))
            return real_packed(cols, den, src, model)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classify, "_witness_factors", lambda a, b: factors)
            patch.setattr(classify, "_packed_hom_check", packed)
            got = classify._checked_witness(j1, j2)
        expected = hom_check(reference, LieAlgebra.from_param(BracketParam(n, m, j1)), BracketParam(n, m, j2))
        assert got == expected
        assert packed_calls == ([] if j1 == q @ j2 @ p else [reference])
        assert classify._columns_map(*classify._kronecker_columns(n, m, *factors)) == reference


class TestRandomParameter:
    def test_exact_rank(self):
        rng = random.Random(3)
        for rows, cols, r in ((4, 4, 2), (3, 2, 1), (2, 3, 2), (4, 3, 0)):
            m = random_parameter(rng, rows, cols, r)
            assert m.shape == (rows, cols)
            assert rank(m) == r

    def test_out_of_range(self):
        rng = random.Random(4)
        with pytest.raises(ShapeError):
            random_parameter(rng, 2, 2, 3)


class TestEliminationCounts:
    # (pairs, equal pairs, rank-0 pairs) of each run.
    @pytest.mark.parametrize(
        "run, expected_pairs",
        [
            (lambda: check_iso_soundness(2, 0), (40, 22, 22)),
            (lambda: classify_rank_family(2, 3, seed=0, witness_pairs=2), (6, 2, 2)),
        ],
        ids=["iso_soundness", "classify_rank_family"],
    )
    def test_a_drawn_parameter_is_eliminated_once(self, monkeypatch, run, expected_pairs):
        # A draw's rank test is the Gauss-Jordan of [J | I] that its witness
        # reads: each pair of unequal parameters costs three eliminations
        # (one per parameter, one for Q) and the two factor ranks of its
        # proof, plus one elimination for each rejected draw.  Equal
        # parameters take the identity witness with no elimination and no
        # rank; a rank-0 parameter is built with no draw, so a rank-0 pair
        # (always equal) is eliminated nowhere.
        real_gauss_jordan, real_rank = matrices._gauss_jordan, matrices._rank
        real_draw, real_witness, real_randints = random_parameter, classify._checked_witness, classify._randints
        where, counts = ["run"], {}
        pairs, attempts, drawn = [], [], []

        def counted(kind, real):
            def spy(*args):
                counts[kind, where[-1]] = counts.get((kind, where[-1]), 0) + 1
                return real(*args)

            return spy

        def inside(label, real, record):
            def spy(*args):
                where.append(label)
                try:
                    result = real(*args)
                finally:
                    where.pop()
                record.append((args, result))
                return result

            return spy

        replacements = {
            real_gauss_jordan: counted("gauss_jordan", real_gauss_jordan),
            real_rank: counted("rank", real_rank),
            real_draw: inside("draw", real_draw, drawn),
            real_witness: inside("witness", real_witness, pairs),
        }
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "liebrackets":
                for attr in ("_gauss_jordan", "_rank", "random_parameter", "_checked_witness"):
                    spy = replacements.get(getattr(module, attr, None))
                    if spy is not None:
                        monkeypatch.setattr(module, attr, spy)
        # Only the sampler reads classify's own binding of ``_randints``.
        monkeypatch.setattr(classify, "_randints", lambda *args: attempts.append(args) or real_randints(*args))
        run()
        rejected = len(attempts) // 2 - sum(1 for args, _ in drawn if args[3])
        zero_pairs = sum(1 for (j1, _), _ in pairs if j1.is_zero())
        unequal = sum(1 for (j1, j2), _ in pairs if j1 != j2)
        assert len(pairs) == len(drawn) // 2 > 0
        assert (len(pairs), len(pairs) - unequal, zero_pairs) == expected_pairs
        assert counts.get(("rank", "draw"), 0) == 0
        assert counts.get(("rank", "witness"), 0) == 2 * unequal
        assert counts.get(("gauss_jordan", "witness"), 0) == unequal
        assert counts.get(("gauss_jordan", "draw"), 0) == 2 * (len(pairs) - zero_pairs) + rejected
        assert counts.get(("gauss_jordan", "run"), 0) == 0
        total = sum(n for (kind, _), n in counts.items() if kind == "gauss_jordan")
        assert total == unequal + 2 * (len(pairs) - zero_pairs) + rejected


class TestRandints:
    # Every range the package draws: the entries of random parameters and
    # of the Lie-axiom and coboundary samples, the Heisenberg images, and
    # the ranks of iso_soundness up to the largest verify-all size.
    RANGES = [(-3, 3), (-2, 2), (0, 0)] + [(0, k) for k in range(1, cli.MAX_VERIFY_SIZE + 1)]

    @pytest.mark.parametrize("lo, hi", RANGES)
    def test_values_and_stream_are_those_of_randint(self, lo, hi):
        for seed in range(12):
            for count in (0, 1, 30):
                drawn, called = random.Random(seed), random.Random(seed)
                assert classify._randints(drawn, lo, hi, count) == [called.randint(lo, hi) for _ in range(count)]
                assert drawn.random() == called.random()

    def test_random_parameter_draws_what_randint_would(self):
        # The sampler as it drew through randint: the left factor row by
        # row, then the right one, redrawn until the product has the rank.
        def by_randint(rng, rows, cols, r):
            while r:
                left = Matrix([[rng.randint(-3, 3) for _ in range(r)] for _ in range(rows)])
                right = Matrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(r)])
                if rank(left @ right) == r:
                    return left @ right
            return Matrix.zeros(rows, cols)

        for seed in range(6):
            drawn, called = random.Random(seed), random.Random(seed)
            for rows, cols, r in ((4, 3, 0), (4, 3, 1), (4, 3, 2), (4, 3, 3), (2, 5, 2), (1, 1, 1)):
                assert random_parameter(drawn, rows, cols, r) == by_randint(called, rows, cols, r)
            assert drawn.random() == called.random()


class TestClassifyRankFamily:
    def test_square_two(self):
        report = classify_rank_family(2, 2, seed=0)
        assert len(report["entries"]) == 3
        assert report["pairwise_distinct"]
        assert not report["degenerate"]
        assert all(e["witness_verified"] for e in report["entries"])

    def test_column_shape(self):
        report = classify_rank_family(2, 1, seed=0)
        centers = [e["signature"]["center_dim"] for e in report["entries"]]
        assert centers == [2, 0]
        assert report["pairwise_distinct"]
        assert report["degenerate"]  # min(n, m) = 1: outside the theorems

    def test_scalar_shape_flagged(self):
        report = classify_rank_family(1, 1, seed=0)
        assert report["degenerate"]
        sigs = [e["signature"] for e in report["entries"]]
        assert sigs[0] == sigs[1]  # both 1-dimensional abelian
        assert not report["pairwise_distinct"]

    def test_report_seed_recorded(self):
        report = classify_rank_family(2, 2, seed=17)
        assert report["seed"] == 17

    def test_deterministic(self):
        assert classify_rank_family(3, 2, seed=5) == classify_rank_family(3, 2, seed=5)

    def test_verifies_each_witness_on_integers(self, monkeypatch):
        # A passing pair is verified by its factor identity and two factor
        # ranks alone: no structure constants, no Fraction, no packed
        # homomorphism check and no Kronecker columns.
        real_checked = classify._checked_witness
        functions = (
            brackets.structure_constants,
            scalars.scalar_div,
            algebra._packed_hom_check,
            classify._kronecker_columns,
        )
        spied = {f: i for i, f in enumerate(functions)}
        counts = []  # per verified pair: calls of each of ``functions``
        current = [None]  # the counts of the pair being verified, if any

        def spy(real):
            def wrapped(*args):
                if current[0] is not None:
                    current[0][spied[real]] += 1
                return real(*args)

            return wrapped

        def checked(j1, j2):
            current[0] = [0] * len(functions)
            counts.append(current[0])
            try:
                return real_checked(j1, j2)
            finally:
                current[0] = None

        with monkeypatch.context() as patch:
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "liebrackets":
                    for attr in (f.__name__ for f in functions):
                        real = getattr(module, attr, None)
                        if real in spied:
                            patch.setattr(module, attr, spy(real))
                    if getattr(module, "_checked_witness", None) is real_checked:
                        patch.setattr(module, "_checked_witness", checked)
            soundness = check_iso_soundness(2, 0)
            family = classify_rank_family(2, 3, seed=0, witness_pairs=2)
        assert soundness["pass"] and all(e["witness_verified"] for e in family["entries"])
        assert len(counts) == 40 + 3 * 2
        assert all(c == [0, 0, 0, 0] for c in counts), counts


class TestRankSignatures:
    def test_matches_the_signature_of_each_normal_form(self):
        for n in range(1, 5):
            for m in range(1, 5):
                assert classify._rank_signatures(n, m) == [
                    invariant_signature(LieAlgebra.from_param(BracketParam.normal(n, m, r)))
                    for r in range(min(n, m) + 1)
                ]

    def test_is_the_only_source_of_the_classification_signatures(self, monkeypatch):
        # The classify report and the table that signature_separation reads
        # take every signature they compute from one _rank_signatures call
        # per shape; the table takes the shapes n <= m alone and reads (m, n)
        # from (n, m).  deformation_coboundary takes none.
        real_helper, real_signature = classify._rank_signatures, algebra._signature
        shapes = []  # the shape of each helper call
        outside = []  # signatures computed outside the helper
        inside = [False]

        def helper(n, m):
            shapes.append((n, m))
            inside[0] = True
            try:
                return real_helper(n, m)
            finally:
                inside[0] = False

        def signature(L):
            if not inside[0]:
                outside.append(L.dim)
            return real_signature(L)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "liebrackets" and getattr(module, "_rank_signatures", None) is real_helper:
                monkeypatch.setattr(module, "_rank_signatures", helper)
        monkeypatch.setattr(algebra, "_signature", signature)

        assert classify_rank_family(3, 2, seed=0)["pairwise_distinct"]
        assert shapes == [(3, 2)]
        shapes.clear()
        assert check_signature_separation(4, signatures=verify._normal_form_signatures(4))["pass"]
        assert shapes == [(n, m) for n in range(1, 5) for m in range(n, 5)]
        shapes.clear()
        assert check_deformation_coboundary(3, 0)["pass"]
        assert shapes == []
        assert outside == []

    def test_transposed_shapes_have_equal_signatures(self):
        # A -> -A^T is an isomorphism from the J-bracket on Mat(n x m) onto
        # the J^T-bracket on Mat(m x n), and N_r(m, n)^T = N_r(n, m), which
        # lets verify read the shape (m, n) from the shape (n, m): its shared
        # table holds the signatures of each shape, rank by rank.
        table = verify._normal_form_signatures(5)
        for n in range(1, 6):
            for m in range(n + 1, 6):
                assert classify._rank_signatures(m, n) == classify._rank_signatures(n, m), (n, m)
                assert table[(m, n)] == classify._rank_signatures(m, n), (m, n)

    def test_run_all_takes_each_shape_once(self, monkeypatch):
        # run_all takes the signatures of the shapes n <= m once, into the
        # table that center_dimension_law and signature_separation share.
        real = classify._rank_signatures
        shapes = []
        monkeypatch.setattr(verify, "_rank_signatures", lambda n, m: shapes.append((n, m)) or real(n, m))
        assert verify.run_all(3, 0)["pass"]
        assert shapes == [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]

    def test_center_dim_is_the_dimension_of_the_center(self):
        # center_dimension_law reads center_dim off the signature table,
        # and the center command spans the center itself: the two agree at
        # every normal form of every shape up to 4 x 4, both orientations.
        for n in range(1, 5):
            for m in range(1, 5):
                sigs = classify._rank_signatures(n, m)
                for r in range(min(n, m) + 1):
                    ctr = algebra.center(LieAlgebra.from_param(BracketParam.normal(n, m, r)))
                    assert ctr.dim == sigs[r].center_dim, (n, m, r)

    def test_center_dimension_law_builds_no_algebra_and_no_center(self, monkeypatch):
        # Given the shared table, the check only reads it: no LieAlgebra is
        # constructed and no center is spanned, in any namespace.
        signatures = verify._normal_form_signatures(3)

        def refuse(*args, **kwargs):
            raise AssertionError("center_dimension_law built an algebra or a center")

        monkeypatch.setattr(LieAlgebra, "__init__", refuse)
        for module in (algebra, classify, verify):
            if hasattr(module, "center"):
                monkeypatch.setattr(module, "center", refuse)
        out = verify.check_center_dimensions(3, signatures=signatures)
        assert out == {"name": "center_dimension_law", "pass": True, "details": {"cases": 23, "failures": []}}


def test_iso_soundness_up_to_six():
    # Every shape n, m <= 6 (36 shapes): ten equal-rank pairs each, with
    # their witnesses verified as bijective homomorphisms.
    out = check_iso_soundness(max_size=6)
    assert out["pass"], out["details"]["failures"]
    assert out["details"]["pairs_checked"] == 360


def test_signature_separation_up_to_six():
    # Every shape n, m <= 6 with min(n, m) >= 2 (25 shapes): the ranks
    # 0..min(n, m) of the normal form have pairwise distinct signatures.
    out = check_signature_separation(max_size=6, signatures=verify._normal_form_signatures(6))
    assert out["pass"], out["details"]["failures"]
    assert out["details"]["shapes_checked"] == 25
