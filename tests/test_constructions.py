"""Heisenberg realization/obstruction, semidirect model, padding, catalog."""

import random
from fractions import Fraction

import pytest

from liebrackets.algebra import (
    LieAlgebra,
    center,
    hom_check,
    invariant_signature,
    lower_central_series,
    subalgebra_closed,
)
from liebrackets.brackets import BracketParam, StructureConstants, bracket
from liebrackets.constructions import (
    CATALOG_NAMES,
    HypothesisError,
    RepCandidate,
    ado_embed,
    classical_representation,
    example_catalog,
    heisenberg_abstract,
    heisenberg_obstruction,
    heisenberg_realization,
    pad_matrix,
    restricted_constants,
    semidirect_S,
)
from liebrackets.matrices import Matrix


def sl2_candidate():
    constants = StructureConstants(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
    src = LieAlgebra(3, constants, ("H", "X", "Y"))
    images = (
        Matrix.diagonal([1, -1]),
        Matrix.unit(2, 2, 0, 1),
        Matrix.unit(2, 2, 1, 0),
    )
    return RepCandidate(src, images, 2)


class TestHeisenbergRealization:
    def test_smallest_model(self):
        model = heisenberg_realization(1)
        assert model.xs == (Matrix.unit(3, 3, 0, 1),)
        assert model.ys == (Matrix.unit(3, 3, 1, 2),)
        assert model.z == Matrix.unit(3, 3, 0, 2)
        assert model.ambient.j == Matrix.diagonal([1, 1, 0])
        assert bracket(model.xs[0], model.ys[0], model.ambient) == model.z

    def test_cross_pairs(self):
        model = heisenberg_realization(2)
        assert bracket(model.xs[0], model.ys[1], model.ambient).is_zero()
        assert bracket(model.xs[1], model.ys[1], model.ambient) == model.z

    def test_z_central_among_generators(self):
        model = heisenberg_realization(3)
        for g in model.generators():
            assert bracket(model.z, g, model.ambient).is_zero()

    def test_bad_size(self):
        with pytest.raises(HypothesisError):
            heisenberg_realization(0)

    def test_span_closed_and_nilpotent(self):
        for n in (1, 2, 3):
            model = heisenberg_realization(n)
            ambient = LieAlgebra.from_param(model.ambient)
            assert subalgebra_closed(ambient, model.span()).passed
            realized = model.realized_algebra()
            assert realized.constants == heisenberg_abstract(n).constants
            assert [t.dim for t in lower_central_series(realized)] == [2 * n + 1, 1, 0]
            ctr = center(realized)
            assert ctr.dim == 1
            assert ctr.contains(realized.from_coords([0] * (2 * n) + [1]))


class TestHeisenbergObstruction:
    def test_classical_representation_faithful(self):
        assert heisenberg_obstruction(classical_representation(1)).kind == "faithful"
        assert heisenberg_obstruction(classical_representation(2)).kind == "faithful"

    def test_zero_images(self):
        src = heisenberg_abstract(1)
        cand = RepCandidate(src, tuple(Matrix.zeros(2, 2) for _ in range(3)), 2)
        assert heisenberg_obstruction(cand).kind == "not-faithful"

    def test_scalar_z_contradiction(self):
        src = heisenberg_abstract(1)
        cand = RepCandidate(
            src, (Matrix.zeros(2, 2), Matrix.zeros(2, 2), Matrix.identity(2)), 2
        )
        verdict = heisenberg_obstruction(cand)
        assert verdict.kind == "scalar-Z-contradiction"
        assert verdict.detail["trace"] == "2"

    def test_never_faithful_below_bound(self):
        rng = random.Random(0)
        for n in (1, 2):
            src = heisenberg_abstract(n)
            for target in range(1, n + 2):
                for _ in range(5):
                    images = tuple(
                        Matrix([[rng.randint(-2, 2) for _ in range(target)] for _ in range(target)])
                        for _ in range(2 * n + 1)
                    )
                    assert heisenberg_obstruction(RepCandidate(src, images, target)).kind != "faithful"

    def test_rejects_non_heisenberg_source(self):
        cand = sl2_candidate()
        with pytest.raises(ValueError):
            heisenberg_obstruction(cand)


class TestSemidirect:
    def test_no_complement_is_commutator_algebra(self):
        model = semidirect_S(2, 0)
        assert model.constants == LieAlgebra.from_param(BracketParam.commutator(2)).constants
        assert model.phi.matrix == Matrix.identity(4)

    def test_small_mixed_model(self):
        model = semidirect_S(1, 1)
        assert model.dim == 4
        # the construction verifies phi; double-check through hom_check here
        verdict = hom_check(model.phi, model.algebra(), model.target())
        assert verdict.bijective

    def test_action_signs(self):
        # [X, (A, B, C)] = (-A X, X B, 0) for the pure X and pure nilpotent parts.
        model = semidirect_S(1, 1)
        alg = model.algebra()
        # basis order: X[1,1], A[1,1], B[1,1], C[1,1]
        x_with_a = alg.constants.bracket_basis(0, 1)
        assert x_with_a == {1: -1}
        x_with_b = alg.constants.bracket_basis(0, 2)
        assert x_with_b == {2: 1}
        a_with_b = alg.constants.bracket_basis(1, 2)
        assert a_with_b == {3: 1}  # [(A,0,0), (0,B',0)] = (0,0,AB')

    def test_nilpotent_part_two_step(self):
        for r, s in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1)):
            model = semidirect_S(r, s)
            alg = model.algebra()
            nil = list(model.nilpotent_indices())
            cb = alg.constants.bracket_basis
            for a in nil:
                for b in nil:
                    inner = cb(a, b)
                    assert all(k in nil for k in inner)
                    for c in nil:
                        triple = {}
                        for k, v in inner.items():
                            for t, w in cb(c, k).items():
                                triple[t] = triple.get(t, 0) + v * w
                        assert all(v == 0 for v in triple.values())

    def test_bad_sizes(self):
        with pytest.raises(HypothesisError):
            semidirect_S(0, 2)


class TestAdoEmbed:
    def test_identity_embedding(self):
        cand = sl2_candidate()
        span, verdict = ado_embed(cand, 2, 2, 2)
        assert verdict.is_hom and verdict.injective
        assert span.dim == 3

    def test_sl2_into_rectangle(self):
        cand = sl2_candidate()
        span, verdict = ado_embed(cand, 3, 4, 2)
        assert verdict.is_hom and verdict.injective
        assert span.contains(pad_matrix(Matrix.diagonal([1, -1]), 3, 4))

    def test_heisenberg_classical_into_rectangle(self):
        cand = classical_representation(1)  # 3x3 images
        span, verdict = ado_embed(cand, 4, 5, 3)
        assert verdict.is_hom and verdict.injective
        assert span.dim == 3

    def test_signature_preserved(self):
        cand = sl2_candidate()
        big_param = BracketParam.normal(3, 4, 2)
        padded = tuple(pad_matrix(img, 3, 4) for img in cand.images)
        restricted = restricted_constants(padded, big_param)
        assert invariant_signature(restricted) == invariant_signature(cand.src)

    def test_hypothesis_errors(self):
        cand = sl2_candidate()
        with pytest.raises(HypothesisError):
            ado_embed(cand, 3, 4, 1)  # q < p
        with pytest.raises(HypothesisError):
            ado_embed(cand, 1, 4, 2)  # n < q

    def test_rejects_non_hom_candidate(self):
        src = heisenberg_abstract(1)
        rng = random.Random(1)
        images = tuple(
            Matrix([[rng.randint(1, 3) for _ in range(2)] for _ in range(2)]) for _ in range(3)
        )
        with pytest.raises(ValueError):
            ado_embed(RepCandidate(src, images, 2), 3, 3, 2)


class TestRestrictedConstants:
    def test_closed_span(self):
        model = heisenberg_realization(1)
        alg = restricted_constants(model.generators(), model.ambient)
        assert alg.constants == heisenberg_abstract(1).constants

    def test_open_span_rejected(self):
        # span{H, X, Y} is not closed under the parameter diag(0,1):
        # [X, Y] evaluates to E(1,1), outside the span.
        param = BracketParam(2, 2, Matrix.diagonal([0, 1]))
        triple = (Matrix.diagonal([1, -1]), Matrix.unit(2, 2, 0, 1), Matrix.unit(2, 2, 1, 0))
        with pytest.raises(ValueError, match="not closed"):
            restricted_constants(triple, param)


class TestCatalog:
    def test_all_names_build(self):
        for name in CATALOG_NAMES:
            entry = example_catalog(name)
            assert entry.name == name
            assert entry.algebra.dim == len(entry.basis)

    def test_unknown_name_lists_valid(self):
        with pytest.raises(ValueError, match="mat2_full"):
            example_catalog("nope")

    def test_g32_brackets(self):
        entry = example_catalog("g32_1")
        assert entry.discrepancies == ()
        computed = {(c.left, c.right): c.computed for c in entry.claims}
        assert computed[("e1", "e2")] == (0, 1, 0)
        assert computed[("e1", "e3")] == (0, 0, 1)
        assert computed[("e2", "e3")] == (0, 0, 0)

    def test_affine2_flagged(self):
        entry = example_catalog("affine2_column")
        claim = entry.claims[0]
        assert not claim.matches
        assert claim.computed == (0, 1)  # evaluates to e2
        assert claim.claimed == (1, 0)  # published as e1
        assert entry.discrepancies == ("[e2,e1]",)

    def test_heisenberg_entry_consistent(self):
        entry = example_catalog("heisenberg3_gl21")
        assert entry.discrepancies == ()
        assert entry.algebra.constants == heisenberg_abstract(1).constants

    def test_mat2_rank1_flags_only_xy(self):
        entry = example_catalog("mat2_rank1")
        by_pair = {(c.left, c.right): c for c in entry.claims}
        assert by_pair[("H", "X")].matches
        assert by_pair[("H", "Y")].matches
        xy = by_pair[("X", "Y")]
        assert not xy.matches
        # computed value is E(1,1) = (H + I)/2 in this basis
        assert xy.computed == (Fraction(1, 2), 0, 0, Fraction(1, 2))
        assert xy.note

    def test_column4_formula(self):
        entry = example_catalog("column4")
        assert entry.discrepancies == ()

    def test_mat2_full_commutator_table(self):
        entry = example_catalog("mat2_full")
        assert entry.discrepancies == ()

    def test_json_bundle(self):
        js = example_catalog("g32_1").to_json()
        assert set(js) >= {"name", "param", "basis", "constants", "claims", "discrepancies"}
        assert js["param"]["j"]["entries"] == [["1", "0", "0"]]
