"""Symbolic contraction, the deformation path, and the coboundary identity."""

import random
from fractions import Fraction

import pytest

from liebrackets.brackets import BracketParam, basis_matrices, bracket, structure_constants
from liebrackets.deform import (
    ContractionDivergenceError,
    EpsStructureConstants,
    LaurentScalar,
    alpha_coboundary,
    ce_coboundary_check,
    contraction_constants,
    contraction_limit,
    deformation_bracket,
    psi_t,
    psi_t_inverse,
)
from liebrackets.matrices import Matrix, ShapeError, parse_matrix, rank_normal_form


def random_matrix(rng, rows, cols, lo=-3, hi=3):
    return Matrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


class TestLaurentScalar:
    def test_zero_coefficients_dropped(self):
        assert LaurentScalar({2: 0}).is_zero()
        assert (LaurentScalar.monomial(1, 1) + LaurentScalar.monomial(-1, 1)).is_zero()

    def test_arithmetic(self):
        a = LaurentScalar.monomial(Fraction(1, 2), 1)
        b = LaurentScalar.monomial(3, -1)
        assert (a + b).terms == {1: Fraction(1, 2), -1: 3}
        assert (a + a).terms == {1: 1}
        assert type((a + a).terms[1]) is int

    def test_exponent_bookkeeping(self):
        v = LaurentScalar({0: 2, 3: -1})
        assert v.min_exponent() == 0
        assert v.constant_term() == 2
        assert LaurentScalar().min_exponent() is None

    def test_json_sorted(self):
        v = LaurentScalar({2: 1, 0: -1})
        assert v.to_json() == [{"exp": 0, "coef": "-1"}, {"exp": 2, "coef": "1"}]


class TestContraction:
    def test_full_rank_no_scaling(self):
        eps = contraction_constants(2, 2)
        for terms in eps.table.values():
            for v in terms.values():
                assert set(v.terms) == {0}
        assert contraction_limit(eps) == structure_constants(BracketParam.commutator(2))

    def test_scaled_pair_coefficients(self):
        # [E'(1,2), E'(2,1)] = -E'(2,2) + eps^2 E'(1,1) when r = 1.
        eps = contraction_constants(2, 1)
        terms = eps.table[(1, 2)]
        assert terms[3] == LaurentScalar.monomial(-1, 0)
        assert terms[0] == LaurentScalar.monomial(1, 2)

    def test_unscaled_pair(self):
        eps = contraction_constants(2, 1)
        assert eps.table[(0, 1)] == {1: LaurentScalar.monomial(1, 0)}

    def test_limit_matches_normal_form(self):
        for n in (2, 3):
            for r in range(n + 1):
                limit = contraction_limit(contraction_constants(n, r))
                assert limit == structure_constants(BracketParam.normal(n, n, r))

    def test_limit_example_value(self):
        limit = contraction_limit(contraction_constants(2, 1))
        assert limit.bracket_basis(1, 2) == {3: -1}
        param = BracketParam.normal(2, 2, 1)
        assert bracket(Matrix.unit(2, 2, 0, 1), Matrix.unit(2, 2, 1, 0), param) == -Matrix.unit(2, 2, 1, 1)

    def test_negative_exponent_is_hard_failure(self):
        diverging = EpsStructureConstants(2, {(0, 1): {0: LaurentScalar.monomial(1, -1)}})
        with pytest.raises(ContractionDivergenceError) as exc:
            contraction_limit(diverging)
        assert exc.value.triple == (0, 1, 0)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            contraction_constants(2, 3)

    def test_normal_form_product_law(self):
        for n in range(1, 5):
            for r in range(n + 1):
                for s in range(n + 1):
                    prod = rank_normal_form(n, n, r) @ rank_normal_form(n, n, s)
                    assert prod == rank_normal_form(n, n, min(r, s))


class TestDeformationPath:
    def test_endpoints(self):
        j = rank_normal_form(2, 2, 1)
        assert deformation_bracket(2, j, 0).j == Matrix.identity(2)
        assert deformation_bracket(2, j, 1).j == j

    def test_midpoint(self):
        param = deformation_bracket(2, rank_normal_form(2, 2, 1), Fraction(1, 2))
        assert param.j == Matrix.diagonal([1, Fraction(1, 2)])

    def test_time_outside_unit_interval(self):
        with pytest.raises(ValueError, match=r"path time must lie in \[0, 1\], got 2"):
            deformation_bracket(2, Matrix.identity(2), 2)
        with pytest.raises(ShapeError):
            deformation_bracket(2, Matrix.identity(3), Fraction(1, 2))

    def test_decomposition_identity(self):
        rng = random.Random(0)
        for n, r in ((2, 1), (3, 1), (3, 2)):
            jr = rank_normal_form(n, n, r)
            t = Fraction(rng.randint(0, 3), 3)
            param_t = deformation_bracket(n, jr, t)
            param_comm = BracketParam.commutator(n)
            param_shift = BracketParam(n, n, jr - Matrix.identity(n))
            basis = basis_matrices(n, n)
            for a in range(len(basis)):
                for b in range(a + 1, len(basis)):
                    lhs = bracket(basis[a], basis[b], param_t)
                    rhs = bracket(basis[a], basis[b], param_comm) + t * bracket(
                        basis[a], basis[b], param_shift
                    )
                    assert lhs == rhs


class TestPsiT:
    def test_identity_at_zero(self):
        m = parse_matrix("1 2; 3 4")
        assert psi_t(m, 0, 1) == m

    def test_right_block_zeroed_at_one(self):
        m = parse_matrix("1 2; 3 4")
        assert psi_t(m, 1, 1) == parse_matrix("1 0; 3 0")

    def test_inverse_round_trip(self):
        m = parse_matrix("1 2; 3 4")
        t = Fraction(1, 3)
        assert psi_t_inverse(psi_t(m, t, 1), t, 1) == m

    def test_singular_at_one(self):
        with pytest.raises(ZeroDivisionError):
            psi_t_inverse(Matrix.identity(2), 1, 1)

    def test_transport_identity_random(self):
        rng = random.Random(1)
        n, r, t = 2, 1, Fraction(1, 3)
        param_t = deformation_bracket(n, rank_normal_form(n, n, r), t)
        for _ in range(10):
            x = random_matrix(rng, n, n)
            y = random_matrix(rng, n, n)
            px, py = psi_t(x, t, r), psi_t(y, t, r)
            assert bracket(x, y, param_t) == psi_t_inverse(px @ py - py @ px, t, r)


class TestCoboundary:
    def test_alpha_identity_parameter(self):
        m = parse_matrix("1 2; 3 4")
        assert alpha_coboundary(m, Matrix.identity(2)) == m
        # (I I + I I) / 2 = I, with int entries, not Fraction(1, 1).
        assert [type(x) for x in alpha_coboundary(Matrix.identity(2), Matrix.identity(2)).entries] == [int] * 4

    def test_alpha_zero_parameter(self):
        assert alpha_coboundary(parse_matrix("1 2; 3 4"), Matrix.zeros(2, 2)).is_zero()

    def test_alpha_unit_example(self):
        out = alpha_coboundary(Matrix.unit(2, 2, 0, 1), Matrix.diagonal([1, 0]))
        assert out == Fraction(1, 2) * Matrix.unit(2, 2, 0, 1)

    def test_identity_parameter_passes(self):
        assert ce_coboundary_check(Matrix.identity(2), 2).passed

    def test_normal_form_passes(self):
        assert ce_coboundary_check(rank_normal_form(2, 2, 1), 2).passed

    def test_random_parameter_passes(self):
        rng = random.Random(2)
        assert ce_coboundary_check(random_matrix(rng, 3, 3), 3).passed

    def test_every_parameter_of_small_sizes_by_linearity(self):
        # alpha(X) = (XJ + JX)/2 and [A, B]_J are linear in J, so the identity
        # [A, alpha(B)] - [B, alpha(A)] - alpha([A, B]) - [A, B]_J = 0 is linear
        # in J.  The unit matrices E_p span Mat(n), so passing at every E_p
        # proves it for every J of the size, not for samples.
        checked = 0
        for n in range(1, 5):
            for i in range(n):
                for k in range(n):
                    verdict = ce_coboundary_check(Matrix.unit(n, n, i, k), n)
                    assert verdict.passed, (n, i, k, verdict.witness)
                    checked += 1
        assert checked == 30

    def test_shape_validated(self):
        with pytest.raises(ShapeError):
            ce_coboundary_check(Matrix.zeros(2, 3), 2)
