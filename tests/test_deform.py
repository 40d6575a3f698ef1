"""Symbolic contraction, the deformation path, and the coboundary identity."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liebrackets import deform, verify
from liebrackets.algebra import Verdict
from liebrackets.brackets import BracketParam, _pair_brackets, basis_matrices, bracket, structure_constants
from liebrackets.deform import (
    PATH_TIMES,
    ContractionDivergenceError,
    EpsStructureConstants,
    alpha_coboundary,
    ce_coboundary_check,
    contraction_constants,
    contraction_limit,
    deformation_bracket,
    path_identities,
    psi_t,
    psi_t_inverse,
)
from liebrackets.matrices import Matrix, ShapeError, parse_matrix, rank_normal_form


def random_matrix(rng, rows, cols, lo=-3, hi=3):
    return Matrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def count_products(monkeypatch):
    """Count ``Matrix @`` calls from here on; read the count with ``calls[0]``."""
    calls = [0]
    matmul = Matrix.__matmul__

    def counted(self, other):
        calls[0] += 1
        return matmul(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    return calls


def reference_ce_coboundary_check(j: Matrix, n: int):
    """The coboundary check on ``Matrix`` products, kept as the reference:
    six products and a scaling by 1/2 per basis pair."""
    if j.shape != (n, n):
        raise ShapeError(f"parameter must be {n}x{n}, got {j.rows}x{j.cols}")
    basis = basis_matrices(n, n)
    alphas = [deform.alpha_coboundary(x, j) for x in basis]
    pairs = (_pair_brackets(basis, p) for p in (BracketParam.commutator(n), BracketParam(n, n, j)))
    for (a, b, comm), (_, _, rhs) in zip(*pairs):
        A, B = basis[a], basis[b]
        comm, rhs = Matrix.from_flat(n, n, comm), Matrix.from_flat(n, n, rhs)
        lhs = _comm(A, alphas[b]) - _comm(B, alphas[a]) - deform.alpha_coboundary(comm, j)
        if lhs != rhs:
            return Verdict(False, {"pair": [a, b], "coboundary": str(lhs), "bracket": str(rhs)})
    return Verdict(True)


def _comm(a: Matrix, b: Matrix) -> Matrix:
    return a @ b - b @ a


def reference_contraction_constants(n: int, r: int) -> dict:
    """The contraction with its own commutator formula, kept as the
    reference: ``{(a, b): {k: {exponent: coefficient}}}``, each coefficient
    a Laurent polynomial held as a dict."""
    if not (0 <= r <= n):
        raise ValueError(f"rank {r} out of range for size {n}")

    def f(idx0: int) -> int:
        return 0 if idx0 < r else 1

    def add(terms, t, c, e):
        laurent = terms.setdefault(t, {})
        laurent[e] = laurent.get(e, 0) + c
        if laurent[e] == 0:
            del laurent[e]

    table = {}
    for a in range(n * n):
        i, j = divmod(a, n)
        for b in range(a + 1, n * n):
            k, l = divmod(b, n)
            terms = {}
            if j == k:
                add(terms, i * n + l, 1, 2 * f(j))
            if l == i:
                add(terms, k * n + j, -1, 2 * f(i))
            terms = {k2: v for k2, v in terms.items() if v}
            if terms:
                table[(a, b)] = terms
    return table


def reference_path_identities(n: int, r: int, t) -> dict:
    """The path identities on four ``_pair_brackets`` streams, kept as the
    reference: ``q J_t``, ``I`` and ``J_r - I`` on the basis, and the
    commutator on the images ``q psi_t(E_a)``."""
    t = Fraction(t)
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
        if decomposition and lhs != tuple(q * c + p * s for c, s in zip(comm, shift)):
            decomposition = False
        if moved and transport:
            transport = all(x * w == y for x, w, y in zip(lhs, weights * n, moved[0][2]))
    verdicts = {"decomposition": decomposition}
    if t != 1:
        verdicts["transport"] = transport
    return verdicts


@st.composite
def coboundary_parameters(draw):
    """A square J of size <= 4 with denominators and some zero rows."""
    n = draw(st.integers(1, 4))
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=n))
    rows = [[0] * n if i in zero_rows else draw(st.lists(entry, min_size=n, max_size=n)) for i in range(n)]
    return Matrix(rows), n


@st.composite
def path_cases(draw):
    """A rational time in [0, 1], a rational square J of size <= 4 with some
    zero entries, and a split index."""
    n = draw(st.integers(1, 4))
    q = draw(st.integers(1, 12))
    t = Fraction(draw(st.integers(0, q)), q)
    entry = st.one_of(st.just(0), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
    j = Matrix([draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)])
    return n, j, t, draw(st.integers(0, n))


def entry_types(x: Matrix) -> list:
    # Fraction(2, 1) == 2, so the types are compared on their own.
    return [type(v) for v in x.entries]


class TestContraction:
    def test_full_rank_no_scaling(self):
        eps = contraction_constants(2, 2)
        for terms in eps.table.values():
            for _, exp in terms.values():
                assert exp == 0
        assert contraction_limit(eps) == structure_constants(BracketParam.commutator(2))

    def test_scaled_pair_coefficients(self):
        # [E'(1,2), E'(2,1)] = -E'(2,2) + eps^2 E'(1,1) when r = 1.
        eps = contraction_constants(2, 1)
        terms = eps.table[(1, 2)]
        assert terms == {3: (-1, 0), 0: (1, 2)}

    def test_json_keeps_the_laurent_format(self):
        pair = contraction_constants(2, 1).to_json()["brackets"][2]
        assert pair == {
            "i": 1,
            "j": 2,
            "terms": [
                {"k": 0, "laurent": [{"exp": 2, "coef": "1"}]},
                {"k": 3, "laurent": [{"exp": 0, "coef": "-1"}]},
            ],
        }

    def test_unscaled_pair(self):
        eps = contraction_constants(2, 1)
        assert eps.table[(0, 1)] == {1: (1, 0)}

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
        diverging = EpsStructureConstants(2, {(0, 1): {0: (1, -1)}})
        with pytest.raises(ContractionDivergenceError) as exc:
            contraction_limit(diverging)
        assert exc.value.triple == (0, 1, 0)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            contraction_constants(2, 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_commutator_formula_reference(self, n):
        for r in range(n + 1):
            got = contraction_constants(n, r).table
            assert {ab: {k: {e: c} for k, (c, e) in terms.items()} for ab, terms in got.items()} == (
                reference_contraction_constants(n, r)
            ), (n, r)

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

    @settings(max_examples=80, deadline=None)
    @given(path_cases())
    def test_matches_the_matrix_reference(self, case):
        # Written entry by entry, the parameter equals (1 - t) I + t J formed
        # by Matrix arithmetic, entry types included (int when integral).
        n, j, t, _ = case
        want = (1 - t) * Matrix.identity(n) + t * j
        got = deformation_bracket(n, j, t).j
        assert got == want and entry_types(got) == entry_types(want)


class TestPathIdentities:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_time_below_one_by_the_argument_in_t(self, n):
        # With t = p/q and the identities multiplied through, each residual
        # entry is a form in (p, q) whose coefficients are at most 4 M, M the
        # largest absolute constant of T(I) and T(J_r - I) (see
        # test_polynomial_form_in_t).  So a pass at the generic time
        # t* = 1/2^W, W = (4 M).bit_length() + 1, proves both identities for
        # every t (the generic-time lemma of path_identities).  Here M = 1,
        # so t* = 1/16; the sample times below t = 1 pass too.
        for r in range(n):
            comm, shift = deform._identity_table(n), deform._shift_table(n, r)
            assert deform._generic_time(comm, shift) == Fraction(1, 16)
            for t in (Fraction(1, 16), *PATH_TIMES[:-1]):
                assert path_identities(n, r, t) == {"decomposition": True, "transport": True}, (n, r, t)

    def test_generic_time_needs_integer_constants(self):
        # The packing lemma reads integer coefficients only, so a rational
        # constant in a time-free table gives no generic time.
        assert deform._generic_time({(0, 1): {0: 3}}, {(0, 1): {2: -5}}) == Fraction(1, 64)
        assert deform._generic_time({(0, 1): {0: Fraction(1, 2)}}, {}) is None

    @pytest.mark.parametrize("n", [2, 3])
    def test_polynomial_form_in_t(self, n):
        sympy = pytest.importorskip("sympy")
        t, p, q = sympy.symbols("t p q")
        eye = sympy.eye(n)
        basis = [sympy.Matrix(n, n, lambda i, k, e=e: int(i * n + k == e)) for e in range(n * n)]

        def br(x, y, j):
            return x * j * y - y * j * x

        for r in range(n):
            jr = sympy.diag(*([1] * r + [0] * (n - r)))
            jt = (1 - t) * eye + t * jr
            psi = sympy.diag(*([1] * r + [1 - t] * (n - r)))  # psi_t(X) = X psi
            pairs = [(x, y) for a, x in enumerate(basis) for y in basis[a + 1 :]]
            for x, y in pairs:
                lhs = br(x, y, jt)
                transport = [lhs * psi, br(x * psi, y * psi, eye)]
                decomposition = [lhs, br(x, y, eye) + t * br(x, y, jr - eye)]
                for sides, degree in ((transport, 2), (decomposition, 1)):
                    for side in sides:
                        assert all(sympy.Poly(sympy.expand(v), t).degree() <= degree for v in side)
                    assert (sides[0] - sides[1]).expand().is_zero_matrix
            # Written in (p, q), t = p/q: with q J_t = (q - p) I + p J_r and
            # q psi = diag(q, .., q - p, ..), the transport identity times q^2
            # and the decomposition times q are forms of degree 2 and 1 whose
            # sides have coefficients of at most 2 M, so every residual entry
            # has coefficients of at most 4 M.
            m = max(1, *(abs(v) for x, y in pairs for j in (eye, jr - eye) for v in br(x, y, j)))
            qjt = (q - p) * eye + p * jr
            qpsi = sympy.diag(*([q] * r + [q - p] * (n - r)))
            for x, y in pairs:
                lhs = br(x, y, qjt)
                transport = [lhs * qpsi, br(x * qpsi, y * qpsi, eye)]
                decomposition = [lhs, q * br(x, y, eye) + p * br(x, y, jr - eye)]
                for sides, degree in ((transport, 2), (decomposition, 1)):
                    residual = sides[0] - sides[1]
                    for side, bound in ((sides[0], 2 * m), (sides[1], 2 * m), (residual, 4 * m)):
                        for v in side:
                            poly = sympy.Poly(sympy.expand(v), p, q)
                            assert poly.is_zero or (poly.is_homogeneous and poly.total_degree() == degree)
                            assert all(abs(c) <= bound for c in poly.coeffs())

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_four_stream_reference(self, n):
        for r in range(n + 1):
            for t in PATH_TIMES + (Fraction(2, 7),):
                assert path_identities(n, r, t) == reference_path_identities(n, r, t), (n, r, t)

    def test_transport_is_checked(self, monkeypatch):
        monkeypatch.setattr(deform, "psi_t", lambda x, t, r: x)
        assert path_identities(3, 1, Fraction(1, 3))["transport"] is False

    def test_forms_no_product(self, monkeypatch):
        calls = count_products(monkeypatch)
        assert path_identities(4, 2, Fraction(1, 3)) == {"decomposition": True, "transport": True}
        assert calls[0] == 0

    @pytest.mark.parametrize("fault", [False, True])
    def test_verify_builds_the_time_free_tables_once_per_rank(self, monkeypatch, fault):
        # check_deformation_coboundary builds the table of I once per n, that
        # of J_r - I once per (n, r), and one table of q J_t per evaluation:
        # one at the generic time t* = 1/16 of each (n, r), and the four
        # sample times below t = 1 only when that evaluation fails, as it
        # does when psi_t is the zero map.  deformation_bracket and psi_t
        # run at every evaluation.
        built, times = [], []
        real_constants, real_bracket = deform.structure_constants, deform.deformation_bracket
        monkeypatch.setattr(deform, "structure_constants", lambda p: built.append(p.j) or real_constants(p))
        monkeypatch.setattr(deform, "deformation_bracket", lambda n, j, t: times.append(t) or real_bracket(n, j, t))
        monkeypatch.setattr(verify, "ce_coboundary_check", lambda j, n: Verdict(True))
        if fault:
            monkeypatch.setattr(deform, "psi_t", lambda x, t, r: x * 0)
        assert verify.check_deformation_coboundary(3, 0)["pass"] == (not fault)
        evaluated = [Fraction(1, 16), *PATH_TIMES[:-1]] if fault else [Fraction(1, 16)]
        cases = [(n, r) for n in (1, 2, 3) for r in range(n)]
        assert times == [t for _ in cases for t in evaluated]
        expected = []
        for n in (1, 2, 3):
            expected.append(Matrix.identity(n))
            for r in range(n):
                jr = rank_normal_form(n, n, r)
                expected.append(jr - Matrix.identity(n))
                expected += [real_bracket(n, jr, t).j * Fraction(t).denominator for t in evaluated]
        assert built == expected
        assert len(built) == 3 + len(cases) * (1 + len(evaluated))


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

    @settings(max_examples=80, deadline=None)
    @given(path_cases())
    def test_matches_the_matrix_reference(self, case):
        # The column scaling equals x times diag(1, .., 1, 1 - t, .., 1 - t)
        # formed by Matrix arithmetic, entry types included.
        n, x, t, r = case
        want = x @ Matrix.diagonal([1] * r + [1 - t] * (n - r))
        got = psi_t(x, t, r)
        assert got == want and entry_types(got) == entry_types(want)

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

    @settings(max_examples=60, deadline=None)
    @given(coboundary_parameters())
    def test_matches_the_product_reference(self, case):
        j, n = case
        assert ce_coboundary_check(j, n) == reference_ce_coboundary_check(j, n) == Verdict(True)

    @pytest.mark.parametrize("j", ["1 2 0; 0 1 0; 3 0 1", "1/2 0 -2/3; 0 0 0; 3/5 1 1/4"])
    def test_failure_witness_matches_the_product_reference(self, monkeypatch, j):
        j = parse_matrix(j)
        # x j is a potential too ([A, B j] - [B, A j] - [A, B] j = [A, B]_j), but
        # x j^2 gives [A, B]_{j^2}, whose denominators (up to d_J^2) the 2 d_J
        # scale does not clear.
        monkeypatch.setattr(deform, "alpha_coboundary", lambda x, j: x @ j @ j)
        got = ce_coboundary_check(j, j.rows)
        assert not got.passed and set(got.witness) == {"pair", "coboundary", "bracket"}
        assert got == reference_ce_coboundary_check(j, j.rows)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_forms_at_most_two_products_per_basis_element(self, monkeypatch, n):
        j = Matrix([[Fraction(i - 2 * k, k + 1) for k in range(n)] for i in range(n)])
        calls = count_products(monkeypatch)
        assert ce_coboundary_check(j, n).passed
        assert calls[0] <= 2 * n * n
