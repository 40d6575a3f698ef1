"""Known-bad inputs: each verdict must fail on an input that breaks its claim.

A verdict that cannot fail proves nothing.  Each case here hands a verdict
an input for which the claim is false and asserts that the verdict says so,
with its witness.  The cases cover verdicts that a one-line weakening (an
off-by-one or a dropped bound) would turn into a pass on every correct
input, so that only a bad input tells the weakened verdict from the right
one.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from liebrackets import algebra, classify, cli, constructions, deform, matrices, verify
from liebrackets.algebra import InvariantSignature, LieAlgebra, Verdict, hom_check
from liebrackets.brackets import (
    BracketParam,
    StructureConstants,
    _generic_parameter,
    basis_matrices,
    structure_constants,
)
from liebrackets.constructions import (
    HeisenbergModel,
    ObstructionVerdict,
    RepCandidate,
    heisenberg_abstract,
    heisenberg_verdicts,
    semidirect_S,
)
from liebrackets.deform import PATH_TIMES, EpsStructureConstants, ce_coboundary_check
from liebrackets.matrices import Matrix, _integer_row, inverse, parse_matrix, rank, rank_factorization, rank_normal_form
from test_algebra import from_columns
from test_cli import run_cli


def test_hom_check_reads_a_rank_deficient_homomorphism_as_not_injective():
    # The quotient of the Heisenberg algebra h_1 (basis X, Y, Z with
    # [X, Y] = Z) by its center onto the abelian plane: a homomorphism, since
    # Z is sent to 0, of rank 2 = dim h_1 - 1.
    f = from_columns([(1, 0), (0, 1), (0, 0)])
    verdict = hom_check(f, heisenberg_abstract(1), BracketParam(2, 1, Matrix.zeros(1, 2)))  # the abelian plane
    assert verdict.is_hom
    assert rank(f) == 2
    assert not verdict.injective
    assert not verdict.bijective


def test_heisenberg_center_verdict_fails_on_a_center_of_the_wrong_dimension():
    # Generators X = E(1,2), Y' = E(3,3), Z = E(1,3) of Mat(3) under the
    # corank-one normal parameter all commute: Y' replaces Y = E(2,3), whose
    # bracket with X is Z.  The span is abelian, so its center is all of it,
    # three-dimensional, though it contains Z.
    param = BracketParam.normal(3, 3, 2)
    model = HeisenbergModel(1, param, (Matrix.unit(3, 3, 0, 1),), (Matrix.unit(3, 3, 2, 2),), Matrix.unit(3, 3, 0, 2))
    verdicts = heisenberg_verdicts(model)
    assert verdicts["subalgebra_closed"]["pass"]
    assert verdicts["center"] == {"pass": False, "dim": 3}
    assert not verdicts["constants_match"]["pass"]


def test_heisenberg_verdicts_report_a_span_that_is_not_closed(monkeypatch):
    # Generators X = E(1,2), Y = E(2,3), Z' = E(1,1) of Mat(3) under the
    # corank-one normal parameter: [X, Y] = E(1,3), coordinate 2, leaves the
    # span.  The closure verdict names that pair, and the other three fail
    # with it, since a span that is not closed has no restricted algebra.
    def refuse(*args):
        raise AssertionError("restricted algebra built on a span that is not closed")

    monkeypatch.setattr(constructions, "restricted_constants", refuse)
    param = BracketParam.normal(3, 3, 2)
    model = HeisenbergModel(1, param, (Matrix.unit(3, 3, 0, 1),), (Matrix.unit(3, 3, 1, 2),), Matrix.unit(3, 3, 0, 0))
    assert heisenberg_verdicts(model) == {
        "subalgebra_closed": {"pass": False, "witness": {"pair": [0, 1], "residual": {"2": "1"}}},
        "constants_match": {"pass": False},
        "lcs_dims": {"pass": False, "got": None},
        "center": {"pass": False, "dim": None},
    }


def test_heisenberg_construction_fails_when_every_bracket_is_negated(monkeypatch):
    # Every bracket negated, as if its operands were swapped: [X1, Y1] = -Z,
    # the first relation checked, fails for every n.
    real = constructions._pair_brackets

    def negated(elements, param):
        return ((a, b, tuple(-x for x in w)) for a, b, w in real(elements, param))

    monkeypatch.setattr(constructions, "_pair_brackets", negated)
    out = verify.check_heisenberg_realization()
    assert not out["pass"]
    assert out["details"]["failures"] == [
        {"n": n, "kind": "construction", "error": "[X1, Y1] != Z"} for n in (1, 2, 3)
    ]


def test_heisenberg_construction_fails_when_z_is_not_central(monkeypatch):
    # Z + E(1, 1) in place of Z: [X_i, Y_i] = Z still holds, but
    # [X_i, Z + E(1, 1)] = -X_i, so the last generator is not central.
    class NonCentralZ(HeisenbergModel):
        def generators(self):
            size = self.n + 2
            return self.xs + self.ys + (self.z + Matrix.unit(size, size, 0, 0),)

    monkeypatch.setattr(constructions, "HeisenbergModel", NonCentralZ)
    out = verify.check_heisenberg_realization()
    assert not out["pass"]
    assert out["details"]["failures"] == [
        {"n": n, "kind": "construction", "error": "Z is not central among the generators"} for n in (1, 2, 3)
    ]


def test_heisenberg_realization_fails_when_the_lower_central_series_drops_its_zero_term(monkeypatch):
    # A realization that is built and verified, judged with a lower central
    # series that stops before its zero term: the lcs_dims verdict fails for
    # every n and is reported with the dimensions it got.
    real = constructions.lower_central_series
    monkeypatch.setattr(constructions, "lower_central_series", lambda L: real(L)[:-1])
    out = verify.check_heisenberg_realization()
    assert not out["pass"]
    assert out["details"]["failures"] == [
        {"n": n, "kind": "lcs_dims", "pass": False, "got": [2 * n + 1, 1]} for n in (1, 2, 3)
    ]


# Each Heisenberg obstruction case below breaks one kind of candidate that
# ``check_heisenberg_obstruction`` judges, at sizes n = 1, 2, 3 with targets
# of dimension 1..n+1.


def test_heisenberg_obstruction_fails_when_the_classical_representation_loses_z(monkeypatch):
    # The classical representation with the image of Z set to 0: [X1, Y1] = Z
    # is then sent to 0, while the images of X1 and Y1 have a nonzero
    # commutator, so the candidate is not a homomorphism.
    real = verify.classical_representation

    def without_z(n):
        cand = real(n)
        size = cand.target_dim
        return RepCandidate(cand.src, cand.images[:-1] + (Matrix.zeros(size, size),), size)

    monkeypatch.setattr(verify, "classical_representation", without_z)
    out = verify.check_heisenberg_obstruction()
    assert not out["pass"]
    assert out["details"]["failures"] == [{"n": n, "kind": "classical", "verdict": "not-a-hom"} for n in (1, 2, 3)]


def test_heisenberg_obstruction_fails_without_the_trace_argument(monkeypatch):
    # A judge that drops the trace argument and reads a nonzero scalar image
    # of Z as a plain hom-check failure: every scalar candidate (lambda = 1
    # and -2 at each size and target) is reported with the verdict it got.
    real = verify.heisenberg_obstruction

    def without_trace(cand):
        verdict = real(cand)
        return ObstructionVerdict("not-a-hom") if verdict.kind == "scalar-Z-contradiction" else verdict

    monkeypatch.setattr(verify, "heisenberg_obstruction", without_trace)
    out = verify.check_heisenberg_obstruction()
    assert not out["pass"]
    assert out["details"]["failures"] == [
        {"n": n, "target_dim": k, "kind": "scalar-Z", "verdict": "not-a-hom"}
        for n in (1, 2, 3)
        for k in range(1, n + 2)
        for _ in (1, -2)
    ]


def test_heisenberg_obstruction_fails_without_the_injectivity_test(monkeypatch):
    # A judge that calls every homomorphism faithful: the zero candidate of
    # each size and target is reported, and so is any random candidate that
    # is a homomorphism of too small a rank.
    real = verify.heisenberg_obstruction

    def without_injectivity(cand):
        verdict = real(cand)
        if verdict.kind == "not-faithful":
            return ObstructionVerdict("faithful", {"target_dim": cand.target_dim})
        return verdict

    monkeypatch.setattr(verify, "heisenberg_obstruction", without_injectivity)
    out = verify.check_heisenberg_obstruction()
    failures = out["details"]["failures"]
    assert not out["pass"]
    assert [f for f in failures if f["kind"] == "zero-images"] == [
        {"n": n, "target_dim": k, "kind": "zero-images", "verdict": "faithful"}
        for n in (1, 2, 3)
        for k in range(1, n + 2)
    ]
    assert all(set(f) == {"n", "target_dim", "kind"} for f in failures if f["kind"] != "zero-images")
    assert {f["kind"] for f in failures} <= {"zero-images", "random-faithful"}


def test_heisenberg_obstruction_fails_without_the_hom_check(monkeypatch):
    # A judge that skips the homomorphism check and decides by the rank of
    # the images alone: each random candidate that is no homomorphism but
    # has full rank comes out faithful, and is reported.  Full rank needs
    # target_dim**2 >= 2n + 1 >= 3, so every such candidate has a target of
    # dimension 2 or more.
    real = verify.heisenberg_obstruction
    flipped = []

    def by_rank_alone(cand):
        verdict = real(cand)
        if verdict.kind == "not-a-hom" and rank(cand.as_map()) == cand.src.dim:
            flipped.append({"n": (cand.src.dim - 1) // 2, "target_dim": cand.target_dim, "kind": "random-faithful"})
            return ObstructionVerdict("faithful", {"target_dim": cand.target_dim})
        return verdict

    monkeypatch.setattr(verify, "heisenberg_obstruction", by_rank_alone)
    out = verify.check_heisenberg_obstruction()
    assert not out["pass"]
    assert flipped
    assert all(f["target_dim"] >= 2 for f in flipped)
    assert out["details"]["failures"] == flipped


def filiform_model(real):
    """``semidirect_S`` whose (1, 2) model has a three-step nilpotent part.

    The nilpotent part of ``S`` with r = 1 and s = 2 has coordinates 1..8.
    Its table is replaced by the four-dimensional filiform algebra on
    coordinates 1..4 (``[e1, e2] = e3``, ``[e1, e3] = e4``) plus an abelian
    rest: the lower central series has dimensions 8, 2, 1, 0.
    """

    def build(r, s):
        model = real(r, s)
        if (r, s) != (1, 2):
            return model
        table = {(1, 2): {3: 1}, (1, 3): {4: 1}}
        return type(model)(r, s, StructureConstants(model.dim, table), model.phi, model.labels)

    return build


def test_semidirect_check_fails_on_a_three_step_nilpotent_part(monkeypatch):
    monkeypatch.setattr(verify, "semidirect_S", filiform_model(semidirect_S))
    out = verify.check_semidirect(max_total=3)
    assert not out["pass"]
    assert out["details"]["failures"] == [{"r": 1, "s": 2, "kind": "not-two-step", "lcs": [8, 2, 1, 0]}]


def test_semidirect_construction_fails_when_a_product_is_dropped(monkeypatch):
    # Without the product A.B -> C, [A, B] is 0 in the table, while the
    # block-assembly map sends A[1,1] and B[1,1] to E(2,1) and E(1,2), whose
    # rank-one bracket is E(2,2), coordinate 3 of Mat(2).
    products = tuple(p for p in constructions._UNIT_PRODUCTS if p != ("A", "B", "C"))
    monkeypatch.setattr(constructions, "_UNIT_PRODUCTS", products)
    witness = {"pair": [1, 2], "f_of_bracket": {}, "bracket_of_images": {"3": "1"}}
    error = f"block-assembly map failed verification: {witness}"
    with pytest.raises(ValueError) as exc:
        semidirect_S(1, 1)
    assert str(exc.value) == error
    out = verify.check_semidirect(max_total=2)
    assert not out["pass"]
    assert out["details"] == {
        "models_verified": 2,
        "failures": [{"r": 1, "s": 1, "kind": "construction", "error": error}],
    }


def test_semidirect_command_reports_a_failed_construction(capsys, monkeypatch):
    # The dropped product of the case above, through the command: the
    # construction error is the result, and the one verdict fails.
    products = tuple(p for p in constructions._UNIT_PRODUCTS if p != ("A", "B", "C"))
    monkeypatch.setattr(constructions, "_UNIT_PRODUCTS", products)
    witness = {"pair": [1, 2], "f_of_bracket": {}, "bracket_of_images": {"3": "1"}}
    code, report, err = run_cli(capsys, "semidirect", "1", "1")
    assert code == 1
    assert report["result"] == {"error": f"block-assembly map failed verification: {witness}"}
    assert report["verdicts"] == [{"name": "phi_bijective_hom", "pass": False}]
    assert "[FAIL] phi_bijective_hom" in err


def test_semidirect_check_fails_when_the_nilpotent_part_is_not_an_ideal(monkeypatch):
    # The (1, 1) model with its table replaced by [A[1,1], B[1,1]] = X[1,1]:
    # a bracket of two nilpotent coordinates leaves the nilpotent part.
    def build(r, s):
        model = semidirect_S(r, s)
        if (r, s) != (1, 1):
            return model
        table = {(1, 2): {0: 1}}
        return type(model)(r, s, StructureConstants(model.dim, table), model.phi, model.labels)

    monkeypatch.setattr(verify, "semidirect_S", build)
    out = verify.check_semidirect(max_total=2)
    assert not out["pass"]
    assert out["details"]["failures"] == [{"r": 1, "s": 1, "kind": "nil-not-ideal"}]


def witness_without_q2_inverse(j1, j2):
    """The isomorphism witness with ``Q = q1`` in place of ``q1 q2^-1``: a
    map ``A -> P A q1`` that is still bijective but no longer a homomorphism
    once ``q2`` is not the identity."""
    f1, f2 = rank_factorization(j1), rank_factorization(j2)
    p = inverse(f2.p) @ f1.p
    return from_columns([(p @ e @ f1.q).entries for e in basis_matrices(j1.cols, j1.rows)])


def factors_without_q2_inverse(j1, j2):
    """``witness_without_q2_inverse`` in the form ``classify._witness_factors``
    gives a witness to its check: ``P`` and ``Q = q1`` as integer row-major
    entries over their common denominators."""
    f1, f2 = rank_factorization(j1), rank_factorization(j2)
    pflat, dp = _integer_row((inverse(f2.p) @ f1.p).entries)
    qflat, dq = _integer_row(f1.q.entries)
    return pflat, dp, qflat, dq


# ``iso_soundness`` checks each witness on the factors that
# ``classify._witness_factors`` builds, without ``iso_witness``, so the
# faults are put in there.  A wrong factor breaks the factor identity, and
# the packed check of the Kronecker columns then decides.
def test_iso_soundness_fails_when_the_witness_drops_q2_inverse(monkeypatch):
    monkeypatch.setattr(classify, "_witness_factors", factors_without_q2_inverse)
    out = verify.check_iso_soundness(2, 0)
    failures = out["details"]["failures"]
    assert not out["pass"]
    assert failures
    for failure in failures:
        n, m = failure["shape"]
        j1, j2 = parse_matrix(failure["j1"]), parse_matrix(failure["j2"])
        verdict = hom_check(
            witness_without_q2_inverse(j1, j2), LieAlgebra.from_param(BracketParam(n, m, j1)), BracketParam(n, m, j2)
        )
        assert not verdict.is_hom and verdict.injective
        assert set(failure["witness"]) == {"pair", "f_of_bracket", "bracket_of_images"}
        assert failure["witness"] == verdict.witness


def test_iso_soundness_reads_a_rank_deficient_witness_as_not_bijective(monkeypatch):
    # The zero map (P = 0, Q = 0) is a homomorphism of rank 0 < n m on every
    # shape, so every pair fails on bijectivity alone, with no pair witness:
    # at rank 0 through the factor identity (0 = Q J2 P), and at any other
    # rank through the packed check, which the identity's failure reaches.
    def zero_factors(j1, j2):
        n, m = j1.cols, j1.rows
        return [0] * (n * n), 1, [0] * (m * m), 1

    monkeypatch.setattr(classify, "_witness_factors", zero_factors)
    out = verify.check_iso_soundness(2, 0)
    failures = out["details"]["failures"]
    assert not out["pass"]
    assert len(failures) == out["details"]["pairs_checked"] == 40
    assert all(failure["witness"] is None for failure in failures)


def test_classify_reports_a_rank_whose_witness_does_not_verify(capsys, monkeypatch):
    # The zero factors give the zero map at every rank, equal parameters
    # included: no rank's witness verifies, and ``classify`` fails its
    # witness verdict alone, as the signatures stay distinct.
    def zero_factors(j1, j2):
        n, m = j1.cols, j1.rows
        return [0] * (n * n), 1, [0] * (m * m), 1

    monkeypatch.setattr(classify, "_witness_factors", zero_factors)
    report = classify.classify_rank_family(2, 3, seed=0)
    assert [(e["r"], e["witness_verified"]) for e in report["entries"]] == [(0, False), (1, False), (2, False)]
    assert report["pairwise_distinct"]
    code, cli_report, err = run_cli(capsys, "classify", "2", "3")
    assert code == 1 and cli_report["result"] == report
    assert cli_report["verdicts"] == [
        {"name": "witnesses_verified", "pass": False},
        {"name": "signatures_pairwise_distinct", "pass": True},
    ]
    assert "[FAIL] witnesses_verified" in err and "classify: 1/2 verdicts passed" in err


def test_iso_soundness_reads_identity_factors_of_unequal_parameters_as_not_a_hom(monkeypatch):
    # Identity factors are proved by j1 == j2 alone.  Patched in for unequal
    # parameters of one rank, the factor check returns None, and the packed
    # check finds the pair that the identity map does not carry across.
    j1, j2 = parse_matrix("1 0; 0 0"), parse_matrix("0 0; 0 1")
    identity = matrices._identity_factors(2, 2)
    assert matrices._factor_check(j1, j2, identity) is None
    verdict = classify._factor_verdict(j1, j2, identity)
    expected = hom_check(Matrix.identity(4), LieAlgebra.from_param(BracketParam(2, 2, j1)), BracketParam(2, 2, j2))
    assert verdict == expected and not verdict.is_hom and verdict.injective

    monkeypatch.setattr(classify, "_witness_factors", lambda a, b: matrices._identity_factors(a.cols, a.rows))
    out = verify.check_iso_soundness(2, 0)
    failures = out["details"]["failures"]
    assert not out["pass"]
    assert failures
    for failure in failures:
        n, m = failure["shape"]
        a, b = parse_matrix(failure["j1"]), parse_matrix(failure["j2"])
        source = LieAlgebra.from_param(BracketParam(n, m, a))
        expected = hom_check(Matrix.identity(n * m), source, BracketParam(n, m, b))
        assert a != b and not expected.is_hom
        assert failure["witness"] == expected.witness


def test_signature_separation_fails_when_the_signature_keeps_the_dimension_alone(monkeypatch):
    def dimension_only(L):
        return InvariantSignature(L.dim, 0, (L.dim,), (L.dim,), 0, 0)

    def flat(d):
        return dimension_only(LieAlgebra(d, StructureConstants(d, {}))).to_json()

    monkeypatch.setattr(classify, "invariant_signature", dimension_only)
    out = verify.check_signature_separation(3, signatures=verify._normal_form_signatures(3))
    assert not out["pass"]
    expected = [
        {"shape": [n, m], "ranks": [a, b], "signature": flat(n * m)}
        for n, m in ((2, 2), (2, 3), (3, 2), (3, 3))
        for a in range(min(n, m) + 1)
        for b in range(a + 1, min(n, m) + 1)
    ]
    assert out["details"] == {"shapes_checked": 4, "failures": expected}


def test_signature_collision_at_one_shape_is_reported_under_its_transpose_too(monkeypatch):
    # A collision planted in the signatures of (2, 3) alone: verify takes
    # (3, 2) from the same table entry, so it must fail there as well, and
    # every shape is still reported as its own.  The planted rank-1 entry
    # carries the center dimension (2 - 0)(3 - 0) = 6 of rank 0, which
    # center_dimension_law reads from the same table, against the law's 2.
    real = classify._rank_signatures

    def collide(n, m):
        sigs = real(n, m)
        return [sigs[0], sigs[0], *sigs[2:]] if (n, m) == (2, 3) else sigs

    monkeypatch.setattr(verify, "_rank_signatures", collide)
    zero = collide(2, 3)[0].to_json()
    expected = [{"shape": shape, "ranks": [0, 1], "signature": zero} for shape in ([2, 3], [3, 2])]
    out = verify.check_signature_separation(3, signatures=verify._normal_form_signatures(3))
    assert out["details"] == {"shapes_checked": 4, "failures": expected}
    report = verify.run_all(3, 0)
    assert not report["pass"]
    separation = next(c for c in report["checks"] if c["name"] == "signature_separation")
    assert separation["details"] == {"shapes_checked": 4, "failures": expected}
    center = next(c for c in report["checks"] if c["name"] == "center_dimension_law")
    assert center["details"]["failures"] == [
        {"shape": shape, "r": 1, "expected": 2, "got": 6} for shape in ([2, 3], [3, 2])
    ]
    assert [c["name"] for c in report["checks"] if not c["pass"]] == ["center_dimension_law", "signature_separation"]


def test_deformation_check_fails_when_the_endpoint_keeps_the_gl_signature(monkeypatch):
    # Each endpoint J_r = D_r (r < n) is given the signature of gl_n, as if
    # the family did not degenerate at t = 1.  signature_separation reads
    # the endpoints at the shapes (n, n), and fails the run.
    real = classify.invariant_signature

    def gl_at_the_endpoint(L):
        j = L.model.j
        if j == rank_normal_form(j.rows, j.cols, rank(j)):
            return real(LieAlgebra.from_param(BracketParam.commutator(j.rows)))
        return real(L)

    monkeypatch.setattr(classify, "invariant_signature", gl_at_the_endpoint)
    out = verify.check_signature_separation(3, signatures=verify._normal_form_signatures(3))
    assert not out["pass"]
    endpoints = [(f["ranks"], f["shape"]) for f in out["details"]["failures"] if f["shape"] == [f["ranks"][1]] * 2]
    assert endpoints == [([r, n], [n, n]) for n in (2, 3) for r in range(n)]
    assert not verify.run_all(3, 0)["pass"]


def path_point_replaced(monkeypatch, at, param):
    """Patch ``cli.deformation_bracket`` so that the ``deform`` report's path
    reads ``param(n)`` at the time ``at``.  ``deform.deformation_bracket``,
    which the path identities read, is left as it is."""
    real = cli.deformation_bracket
    monkeypatch.setattr(cli, "deformation_bracket", lambda n, j, t: param(n) if t == at else real(n, j, t))


def test_deform_fails_when_the_path_stays_at_the_commutator_at_one(capsys, monkeypatch):
    # At t = 1 the path must reach J_r; the commutator has gl_n's signature,
    # not the normal form's.  The row is judged by its own parameter, so it
    # fails, where a row that took its signature from its reference passed.
    path_point_replaced(monkeypatch, 1, BracketParam.commutator)
    code, report, err = run_cli(capsys, "deform", "3", "1", "--t", "1")
    assert code == 1
    assert {v["name"]: v["pass"] for v in report["verdicts"]} == {
        "decomposition_identity": True,
        "signature_matches_normal_form": False,
        "signature_along_path": False,
    }
    assert [row["pass"] for row in report["result"]["path_table"]] == [True, True, True, True, False]
    assert "[FAIL] signature_matches_normal_form" in err


def test_deform_fails_when_the_path_starts_at_the_normal_form(capsys, monkeypatch):
    # At t = 0 the path must start at the identity, the commutator.
    path_point_replaced(monkeypatch, 0, lambda n: BracketParam.normal(n, n, 1))
    code, report, err = run_cli(capsys, "deform", "3", "1", "--t", "0")
    assert code == 1
    assert {v["name"]: v["pass"] for v in report["verdicts"]} == {
        "decomposition_identity": True,
        "transport_identity": True,
        "signature_matches_commutator_algebra": False,
        "signature_along_path": False,
    }
    assert [row["pass"] for row in report["result"]["path_table"]] == [False, True, True, True, True]
    assert "[FAIL] signature_along_path" in err


# The contraction cases below cover n = 1..3.  At r = n every basis element
# keeps its scale, so the contraction is the identity; at n = 1 the algebra
# is abelian.  So only n >= 2 with r < n can go wrong.
DEGENERATE = [(n, r) for n in (2, 3) for r in range(n)]


def inverse_scaling(n, r):
    """The contraction with every epsilon exponent negated, as if the basis
    were scaled by epsilon^-s instead of epsilon^s."""
    c = deform.contraction_constants(n, r)
    return EpsStructureConstants(
        c.dim, {pair: {k: (coef, -exp) for k, (coef, exp) in terms.items()} for pair, terms in c.table.items()}
    )


def test_contraction_fails_on_a_negative_exponent(monkeypatch):
    monkeypatch.setattr(verify, "contraction_constants", inverse_scaling)
    out = verify.check_contraction(3)
    failures = out["details"]["failures"]
    assert not out["pass"]
    assert out["details"]["cases"] == 4  # r = n for n = 1, 2, 3, and n = 1, r = 0
    assert [(f["n"], f["r"], f["kind"]) for f in failures] == [(n, r, "negative-exponent") for n, r in DEGENERATE]
    for f in failures:
        a, b, k = f["triple"]
        assert inverse_scaling(f["n"], f["r"]).table[(a, b)][k][1] < 0


def test_contract_command_reports_a_negative_exponent(capsys, monkeypatch):
    # With every exponent negated, the coefficient of basis 0 in [1, 2] of
    # the 2x2 rank-one contraction has exponent -2: the command reports that
    # triple with the constants it read, and no limit.
    monkeypatch.setattr(cli, "contraction_constants", inverse_scaling)
    code, report, err = run_cli(capsys, "contract", "2", "1")
    assert code == 1
    assert report["result"] == {"eps_constants": inverse_scaling(2, 1).to_json()}
    assert report["verdicts"] == [{"name": "no_negative_exponents", "pass": False, "triple": [1, 2, 0]}]
    assert "[FAIL] no_negative_exponents" in err


def test_contraction_fails_when_the_limit_keeps_every_order(monkeypatch):
    # Without exponent truncation the limit is the commutator itself.
    def untruncated(c):
        return StructureConstants(
            c.dim, {pair: {k: coef for k, (coef, _) in terms.items()} for pair, terms in c.table.items()}
        )

    monkeypatch.setattr(verify, "contraction_limit", untruncated)
    out = verify.check_contraction(3)
    assert not out["pass"]
    assert out["details"]["failures"] == [{"n": n, "r": r, "kind": "limit-mismatch"} for n, r in DEGENERATE]


def test_contraction_fails_when_the_normal_forms_sit_in_the_wrong_corner(monkeypatch):
    # D_r with its identity block in the top-right corner still has rank r,
    # but D_1 = E(1, n) squares to 0 for n >= 2.  For n = 3,
    # D_2 = E(1, 2) + E(2, 3) has a zero last row and a zero first column,
    # so D_1 D_2 = D_2 D_1 = 0, and D_2^2 = E(1, 3).
    def top_right(rows, cols, r):
        return Matrix([[int(i < r and j == cols - r + i) for j in range(cols)] for i in range(rows)])

    monkeypatch.setattr(verify, "rank_normal_form", top_right)
    out = verify.check_contraction(3)
    assert not out["pass"]
    assert out["details"]["failures"] == [
        {"n": n, "r": r, "s": s, "kind": "product-law"}
        for n, r, s in ((2, 1, 1), (3, 1, 1), (3, 1, 2), (3, 2, 1), (3, 2, 2))
    ]


def constants_shifted_at_two_units(param):
    """``structure_constants`` with the constant of ``E_01`` in
    ``[E_00, E_01]`` shifted by -4 at the unit parameter ``E_0`` and by +1
    at ``E_1`` of the 2x2 shape, and true elsewhere."""
    table = {pair: dict(terms) for pair, terms in structure_constants(param).table.items()}
    flat = param.j.entries
    if (param.n, param.m) == (2, 2) and sorted(flat) == [0, 0, 0, 1]:
        shift = {0: -4, 1: 1}.get(flat.index(1), 0)
        terms = table.setdefault((0, 1), {})
        terms[1] = terms.get(1, 0) + shift
    return StructureConstants(param.dim, table)


def test_lie_axioms_proof_catches_unit_constants_that_alias_one_bit_narrower(monkeypatch):
    # The shifted constants are -3 at E_0 and 1 at E_1 where the true ones
    # are 1 and 0, so the slot width is w = 3.  One bit narrower, at w = 2,
    # -3 + 1 * 2^2 = 1 packs as the true 1 + 0 * 2^2, and the packed check
    # passes; the generic-parameter lemma needs every entry below 2^(w-1).
    monkeypatch.setattr(algebra, "structure_constants", constants_shifted_at_two_units)
    assert verify._model_tables(2, 2) is None
    assert not verify._holds_for_every_parameter(2)
    sampled = []
    real = verify.jacobi_check
    monkeypatch.setattr(verify, "jacobi_check", lambda L: sampled.append(L) or real(L))
    out = verify.check_lie_axioms(2)
    assert out["pass"] and out["details"]["failures"] == []
    assert len(sampled) == 4 * verify._PARAMS_PER_SHAPE  # no sample is a unit parameter



def test_lie_axioms_proof_rejects_unit_tables_with_a_non_integer_constant(monkeypatch):
    # Every constant halved: a unit bracket has integer entries, so the
    # tables are refused before the packed check, whose slot width assumes
    # integers, is reached.
    def halved(param):
        table = structure_constants(param).table
        return StructureConstants(param.dim, {p: {k: Fraction(v, 2) for k, v in t.items()} for p, t in table.items()})

    def refuse(*args):
        raise AssertionError("packed check reached with non-integer unit tables")

    monkeypatch.setattr(algebra, "structure_constants", halved)
    monkeypatch.setattr(verify, "_model_disagreements", refuse)
    assert [verify._model_tables(n, m) for n, m in ((1, 2), (2, 1), (2, 2))] == [None] * 3


def spy_on_the_constants_verdict(monkeypatch):
    """The calls of ``cli._cmd_constants`` to the shared proof, the model
    identity and the sweep, in order."""
    calls = []
    for name in ("_holds_for_every_parameter", "_model_disagreements", "jacobi_check"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    return calls


def constants_changed_above_three(change):
    """``structure_constants`` with ``change`` applied to the table of every
    shape above 3x3, and true at every shape up to 3x3, where the unit
    tables of the shared proof live."""
    def constants(param):
        table = structure_constants(param).table
        if max(param.n, param.m) > 3:
            table = change(table)
        return StructureConstants(param.dim, table)

    return constants


def test_constants_takes_jacobi_from_the_shared_proof_without_a_sweep(capsys, monkeypatch):
    calls = spy_on_the_constants_verdict(monkeypatch)
    code, report, _ = run_cli(capsys, "constants", "3", "2", "--j", "1 -2 3; 0 1/2 4")
    assert code == 0 and report["verdicts"] == [{"name": "jacobi", "pass": True, "witness": None}]
    assert calls == ["_holds_for_every_parameter", "_model_disagreements"]


def test_constants_sweeps_a_table_scaled_by_two_and_passes_it(capsys, monkeypatch):
    # 2 [.,.]_J satisfies Jacobi but is not the J-bracket: the identity fails
    # first at the pair (0, 1), so the sweep decides.
    double = constants_changed_above_three(
        lambda table: {pair: {k: 2 * v for k, v in terms.items()} for pair, terms in table.items()}
    )
    monkeypatch.setattr(algebra, "structure_constants", double)
    j = parse_matrix("1 2 0 -1; 0 1 3 0; 2 0 1 1; 0 -2 0 1")
    param = BracketParam(4, 4, j)
    assert verify._holds_for_every_parameter(3)
    assert next(verify._model_disagreements(param, double(param).table)) == (0, 1)
    calls = spy_on_the_constants_verdict(monkeypatch)
    code, report, _ = run_cli(capsys, "constants", "4", "4", "--j", str(j))
    assert code == 0 and report["verdicts"] == [{"name": "jacobi", "pass": True, "witness": None}]
    assert calls == ["_holds_for_every_parameter", "_model_disagreements", "jacobi_check"]


def test_constants_sweep_names_the_triple_of_a_table_that_breaks_jacobi_above_three(capsys, monkeypatch):
    # [E_0, E_1] = E_0 at 4x4 breaks Jacobi on (0, 1, 2); the unit tables up
    # to 3x3 are intact, so the shared proof passes and the identity fails.
    monkeypatch.setattr(algebra, "structure_constants", constants_changed_above_three(
        lambda table: {**table, (0, 1): {0: 1}}
    ))
    param = BracketParam.commutator(4)
    assert verify._holds_for_every_parameter(3)
    witness = algebra.jacobi_check(LieAlgebra.from_param(param)).witness
    assert witness == {"triple": [0, 1, 2], "defect": {"2": "-1"}}
    calls = spy_on_the_constants_verdict(monkeypatch)
    code, report, err = run_cli(capsys, "constants", "4", "4", "--j", str(param.j))
    assert code == 1 and report["verdicts"] == [{"name": "jacobi", "pass": False, "witness": witness}]
    assert calls == ["_holds_for_every_parameter", "_model_disagreements", "jacobi_check"]
    assert "[FAIL] jacobi" in err


INTERIOR = [t for t in PATH_TIMES[:-1] if t != 0]


def test_path_identities_fail_transport_alone_when_psi_scales_twice(monkeypatch):
    # psi_t applied twice scales by (1 - t)^2, which is not an isomorphism
    # onto the commutator; the decomposition does not involve psi_t.  At
    # t = 0 both scalings are the identity.
    real = deform.psi_t
    monkeypatch.setattr(deform, "psi_t", lambda x, t, r: real(real(x, t, r), t, r))
    out = verify.check_deformation_coboundary(3, 0)
    assert not out["pass"]
    assert out["details"]["failures"] == [
        {"n": n, "r": r, "t": str(t), "kind": "transport"} for n, r in DEGENERATE for t in INTERIOR
    ]


def test_path_identities_fail_transport_alone_when_psi_is_zero(monkeypatch):
    # The zero map sends both sides of the transport identity to 0, so only
    # the nonzero-weight guard tells it from an isomorphism, at every sample
    # time t < 1, t = 0 included.
    monkeypatch.setattr(deform, "psi_t", lambda x, t, r: x * 0)
    out = verify.check_deformation_coboundary(3, 0)
    assert not out["pass"]
    assert out["details"]["failures"] == [
        {"n": n, "r": r, "t": str(t), "kind": "transport"}
        for n in (1, 2, 3)
        for r in range(n)
        for t in PATH_TIMES[:-1]
    ]


def test_path_identities_fail_decomposition_on_an_extra_path_term(monkeypatch):
    # J_t + t E(1, n) is no longer (1 - t) I + t J_r, so the decomposition
    # fails, and the transport of the commutator, which yields the true J_t
    # bracket, fails with it.  n = 1 has no off-diagonal entry.
    real = deform.deformation_bracket

    def skewed(n, j, t):
        param = real(n, j, t)
        return BracketParam(n, n, param.j + t * Matrix.unit(n, n, 0, n - 1)) if n > 1 else param

    monkeypatch.setattr(deform, "deformation_bracket", skewed)
    out = verify.check_deformation_coboundary(3, 0)
    assert not out["pass"]
    assert out["details"]["failures"] == [
        {"n": n, "r": r, "t": str(t), "kind": kind}
        for n, r in DEGENERATE
        for t in INTERIOR
        for kind in ("decomposition", "transport")
    ]


def residual_vanishing_at_one_sixteenth(param):
    """``structure_constants`` on ``Mat(2 x 2)`` with ``31 J_00 - 16 J_11``
    added to the constant of ``E_01`` in ``[E_00, E_10]``, and true
    elsewhere.  The change is linear in ``J``, so the decomposition still
    holds.  At ``r = 1`` the constants are 15 in ``T(I)`` and 16 in
    ``T(J_1 - I)``, and with ``t = p/q`` the transport residual of that
    entry is ``(15 q + 16 p)(q - p) - 15 q^2 = p q - 16 p^2``: zero at
    ``t = 0`` and ``t = 1/16`` alone.  At ``r = 0`` it is zero."""
    table = {pair: dict(terms) for pair, terms in structure_constants(param).table.items()}
    if param.n == 2:
        j = param.j.entries
        terms = table.setdefault((0, 2), {})
        terms[1] = terms.get(1, 0) + 31 * j[0] - 16 * j[3]
    return StructureConstants(param.dim, table)


def test_path_proof_catches_a_residual_that_vanishes_at_one_sixteenth(monkeypatch):
    # t* = 1/16 is the generic time of the true tables (M = 1).  Here
    # M = 16, so t* = 1/2^W with W = (4 M).bit_length() + 1 = 8, where the
    # residual is 256 - 16; a time fixed at 1/16 would pass.
    monkeypatch.setattr(deform, "structure_constants", residual_vanishing_at_one_sixteenth)
    monkeypatch.setattr(verify, "ce_coboundary_check", lambda j, n: Verdict(True))
    comm, shift = deform._identity_table(2), deform._shift_table(2, 1)
    assert deform._generic_time(deform._table_bound(comm), deform._table_bound(shift)) == Fraction(1, 256)
    passing = {"decomposition": True, "transport": True}
    assert deform._path_identities(2, 1, Fraction(1, 16), comm, shift) == passing
    assert deform._path_identities(2, 1, Fraction(1, 256), comm, shift) == {**passing, "transport": False}
    out = verify.check_deformation_coboundary(2, 0)
    assert not out["pass"]
    assert out["details"]["failures"] == [{"n": 2, "r": 1, "t": str(t), "kind": "transport"} for t in INTERIOR]


def test_center_dimension_law_fails_without_the_full_rank_square_exception(monkeypatch):
    # (n - r)(m - r) alone predicts a zero center for J = I, but the
    # commutator algebra gl(n) has the scalars as its center.  The law has
    # one source, which the check and the center command both read.
    monkeypatch.setattr(classify, "_center_law_dim", lambda n, m, r: (n - r) * (m - r))
    out = verify.check_center_dimensions(3, signatures=verify._normal_form_signatures(3))
    assert not out["pass"]
    assert out["details"]["failures"] == [
        {"shape": [n, n], "r": n, "expected": 0, "got": 1} for n in (1, 2, 3)
    ]
    ctr, r, expected = classify.center_law(BracketParam.commutator(2))
    assert (ctr.dim, r, expected) == (1, 2, 0)


def test_coboundary_check_fails_on_the_potential_without_its_half(monkeypatch):
    # x j + j x has coboundary 2 [A, B]_j, which differs from [A, B]_j
    # wherever the j-bracket is not zero: every normal form of rank r > 0
    # (n >= 2) and every random parameter.
    monkeypatch.setattr(deform, "alpha_coboundary", lambda x, j: x @ j + j @ x)
    out = verify.check_deformation_coboundary(3, 0)
    failures = out["details"]["failures"]
    assert not out["pass"]
    assert [f for f in failures if f["kind"] == "coboundary-normal-form"] == [
        {"n": n, "r": r, "kind": "coboundary-normal-form"} for n, r in ((2, 1), (3, 1), (3, 2))
    ]
    assert [f["n"] for f in failures if f["kind"] == "coboundary-random"] == [2, 2, 3, 3]


def test_coboundary_check_fails_on_random_parameters_for_the_potential_x_j_j(monkeypatch):
    # x j^2 has coboundary [A, B]_{j^2}: it passes on the normal forms, which
    # are idempotent, and fails on random parameters, each with a witness.
    monkeypatch.setattr(deform, "alpha_coboundary", lambda x, j: x @ j @ j)
    out = verify.check_deformation_coboundary(3, 0)
    failures = out["details"]["failures"]
    assert not out["pass"]
    assert {f["kind"] for f in failures} == {"coboundary-random"}
    assert [f["n"] for f in failures] == [2, 2, 3, 3]
    for failure in failures:
        verdict = ce_coboundary_check(parse_matrix(failure["j"]), failure["n"])
        assert not verdict.passed and set(verdict.witness) == {"pair", "coboundary", "bracket"}


# The two potentials above are each wrong for every J of size n >= 2, so the
# proof at the generic parameter J* fails on its own under either, and the
# per-J checks that report the faults run only because it failed.  x j j is
# quadratic in J: its value at J* is not the packing of its unit values.
MUTANT_POTENTIALS = {
    "without-half": lambda x, j: x @ j + j @ x,
    "x-j-j": lambda x, j: x @ j @ j,
}


@pytest.mark.parametrize("potential", sorted(MUTANT_POTENTIALS))
def test_coboundary_proof_fails_at_the_generic_parameter(monkeypatch, potential):
    monkeypatch.setattr(deform, "alpha_coboundary", MUTANT_POTENTIALS[potential])
    for n in (2, 3):
        verdict = ce_coboundary_check(_generic_parameter(n, n, verify._COBOUNDARY_SLOT), n)
        assert not verdict.passed, n
        assert set(verdict.witness) == {"pair", "coboundary", "bracket"}


def test_coboundary_proof_catches_a_potential_that_cancels_at_one_bit_narrower(monkeypatch):
    # The potential gains (J[0][1] - 16 J[0][0]) X, whose coboundary adds that
    # factor times [A, B].  At J* of width w the factor is 2^w - 16: 0 at
    # w = 4, so a proof one bit narrower than the coboundary-bound lemma's
    # w = 5 passes, while every normal form of rank r >= 1 fails with -16.
    real = deform.alpha_coboundary

    def potential(x, j):
        return real(x, j) + x * (j[0, 1] - 16 * j[0, 0] if j.rows > 1 else 0)

    monkeypatch.setattr(deform, "alpha_coboundary", potential)
    for n in (2, 3):
        assert ce_coboundary_check(_generic_parameter(n, n, 4), n).passed
        assert not ce_coboundary_check(_generic_parameter(n, n, verify._COBOUNDARY_SLOT), n).passed
    out = verify.check_deformation_coboundary(3, 0)
    assert not out["pass"]
    normal_forms = [f for f in out["details"]["failures"] if f["kind"] == "coboundary-normal-form"]
    assert normal_forms == [{"n": n, "r": r, "kind": "coboundary-normal-form"} for n, r in ((2, 1), (3, 1), (3, 2))]


def replace(value, **changes):
    """``value`` rebuilt through its constructor with the fields ``changes``,
    so the constructor's checks run on the changed value too."""
    return type(value)(**{**{f: getattr(value, f) for f in value._fields}, **changes})


# The catalog cases hand ``check_catalog`` entries with one thing changed,
# through ``verify.example_catalog``; every other entry is as built.
def catalog_with(monkeypatch, name, change):
    real = verify.example_catalog

    def patched(entry_name):
        entry = real(entry_name)
        return change(entry) if entry_name == name or name is None else entry

    monkeypatch.setattr(verify, "example_catalog", patched)


def test_catalog_fails_on_a_discrepancy_without_its_note(monkeypatch):
    # Each flagged claim loses the note that explains it.
    def without_notes(entry):
        return replace(entry, claims=tuple(replace(c, note="") for c in entry.claims))

    catalog_with(monkeypatch, None, without_notes)
    out = verify.check_catalog()
    assert not out["pass"]
    assert out["details"]["failures"] == [
        {"entry": name, "kind": "unexplained-discrepancy"} for name in ("affine2_column", "mat2_rank1")
    ]


def test_catalog_fails_when_x_y_gives_the_published_value(monkeypatch):
    # A bracket that reproduces the published [X, Y] = 0 of mat2_rank1: the
    # entry then flags nothing, and the X, Y claim no longer differs.
    def published_xy(entry):
        claims = tuple(replace(c, computed=c.claimed) if (c.left, c.right) == ("X", "Y") else c for c in entry.claims)
        return replace(entry, claims=claims)

    catalog_with(monkeypatch, "mat2_rank1", published_xy)
    out = verify.check_catalog()
    assert not out["pass"]
    assert out["details"]["failures"] == [
        {"entry": "mat2_rank1", "expected_flags": 1, "got_flags": 0, "pairs": []},
        {"entry": "mat2_rank1", "kind": "XY-should-differ"},
    ]


def test_catalog_fails_when_e2_e1_gives_the_published_value(monkeypatch):
    # A bracket that reproduces the published [e2, e1] = e1 of affine2_column
    # in place of the computed e2: the wrong value is reported.
    def published_e2e1(entry):
        first = entry.claims[0]
        return replace(entry, claims=(replace(first, computed=first.claimed),) + entry.claims[1:])

    catalog_with(monkeypatch, "affine2_column", published_e2e1)
    out = verify.check_catalog()
    assert not out["pass"]
    assert out["details"]["failures"] == [
        {"entry": "affine2_column", "expected_flags": 1, "got_flags": 0, "pairs": []},
        {"entry": "affine2_column", "kind": "computed-value", "got": (1, 0)},
    ]


TESTS = Path(__file__).resolve().parent


def failure_kinds_and_checks():
    """The string literals stored under a ``"kind"`` key in ``verify.py`` and
    the names of its ``check_*`` functions."""
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    kinds = {
        value.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Dict)
        for key, value in zip(node.keys, node.values)
        if isinstance(key, ast.Constant) and key.value == "kind"
        and isinstance(value, ast.Constant) and isinstance(value.value, str)
    }
    checks = {
        node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")
    }
    return kinds, checks


def test_every_failure_kind_and_check_is_named_by_a_negative_case():
    # A new verdict cannot land without a case here or in the acceptance
    # suite that names its failure kind, and a new check without a test that
    # calls it by name.
    kinds, checks = failure_kinds_and_checks()
    strings, names = set(), set()
    for path in (TESTS / "test_faults.py", TESTS / "test_acceptance.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    assert kinds and checks
    assert sorted(kinds - strings) == []
    assert sorted(checks - names) == []
