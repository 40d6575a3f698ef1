"""Heisenberg realization/obstruction, semidirect model, padding, catalog."""

import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest

from liebrackets import algebra, constructions
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
    heisenberg_verdicts,
    pad_matrix,
    restricted_constants,
    semidirect_S,
)
from liebrackets.matrices import Matrix, matrix_to_json, rank
from liebrackets.verify import check_heisenberg_obstruction
from test_matrices import solve_coordinates


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
            assert subalgebra_closed(model.ambient, model.span()).passed
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

    def test_takes_the_map_rank_once_and_only_for_a_homomorphism(self, monkeypatch):
        # A failing pair decides "not-a-hom" before any rank is taken; a
        # homomorphism has its rank taken once, and a not-faithful verdict
        # reports that rank.
        widths = []
        real = constructions._rank
        monkeypatch.setattr(constructions, "_rank", lambda rows, width: widths.append(width) or real(rows, width))
        src = heisenberg_abstract(1)
        zero = Matrix.zeros(2, 2)
        e11, e12, e22 = Matrix.unit(2, 2, 0, 0), Matrix.unit(2, 2, 0, 1), Matrix.unit(2, 2, 1, 1)
        # [X, Y] = Z, but [E11, E12] = E12 is not the image 0 of Z.
        assert heisenberg_obstruction(RepCandidate(src, (e11, e12, zero), 2)).kind == "not-a-hom"
        assert widths == []
        for images in [(zero, zero, zero), (e12, zero, zero), (e11, e22, zero)]:
            widths.clear()
            cand = RepCandidate(src, images, 2)
            verdict = heisenberg_obstruction(cand)
            assert verdict.kind == "not-faithful"
            assert verdict.detail == {"map_rank": rank(cand.as_map()), "needed": 3}
            assert widths == [4]
        widths.clear()
        assert heisenberg_obstruction(classical_representation(1)).kind == "faithful"
        assert widths == [9]

    def test_rejects_non_heisenberg_source(self):
        cand = sl2_candidate()
        with pytest.raises(ValueError, match="source is not the Heisenberg algebra in canonical basis order"):
            heisenberg_obstruction(cand)

    @pytest.mark.parametrize(
        "table",
        [
            {(0, 3): {4: 1}, (1, 2): {4: 1}},  # X_1 paired with Y_2
            {(0, 2): {4: 1}, (1, 3): {4: -1}},  # a sign flipped
            {(0, 2): {4: 2}, (1, 3): {4: 1}},  # a constant scaled
            {(0, 2): {4: 1}, (1, 3): {4: 1}, (0, 1): {4: 1}},  # an extra bracket
            {(0, 2): {4: 1}},  # a bracket missing
        ],
    )
    def test_rejects_a_wrong_heisenberg_table_without_building_h_n(self, monkeypatch, table):
        # The guard compares the source table with the one of h_n, written
        # down, so it builds no algebra for the comparison.
        src = LieAlgebra(5, StructureConstants(5, table))
        images = tuple(Matrix.zeros(3, 3) for _ in range(5))
        monkeypatch.setattr(constructions, "heisenberg_abstract", None)
        with pytest.raises(ValueError, match="source is not the Heisenberg algebra in canonical basis order"):
            heisenberg_obstruction(RepCandidate(src, images, 3))
        assert heisenberg_obstruction(RepCandidate(heisenberg_abstract(2), images, 3)).kind == "not-faithful"

    def test_check_builds_no_destination_constants(self, monkeypatch):
        # Each candidate is checked through the commutator model on integer
        # columns; the sources are abstract, so no table is built at all.
        expected = check_heisenberg_obstruction()

        def refuse(param):
            raise AssertionError(f"structure constants built for {param.n}x{param.m}")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "liebrackets" and hasattr(module, "structure_constants"):
                monkeypatch.setattr(module, "structure_constants", refuse)
        got = check_heisenberg_obstruction()
        assert got["pass"] and got == expected

    def test_verdicts_match_a_check_against_the_full_commutator_algebra(self):
        rng = random.Random(3)
        entries = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]
        kinds = set()
        for n in (1, 2):
            src = heisenberg_abstract(n)
            for target in range(1, n + 3):
                gl = BracketParam.commutator(target)
                for _ in range(6):
                    images = tuple(
                        Matrix([[rng.choice(entries) for _ in range(target)] for _ in range(target)])
                        for _ in range(2 * n + 1)
                    )
                    cand = RepCandidate(src, images, target)
                    verdict = heisenberg_obstruction(cand)
                    kinds.add(verdict.kind)
                    if verdict.kind == "scalar-Z-contradiction":
                        continue
                    full = hom_check(cand.as_map(), src, gl)
                    if not full.is_hom:
                        assert (verdict.kind, verdict.detail) == ("not-a-hom", full.witness)
                    elif full.injective:
                        assert (verdict.kind, verdict.detail) == ("faithful", {"target_dim": target})
                    else:
                        assert verdict.kind == "not-faithful"
        kinds.add(heisenberg_obstruction(classical_representation(2)).kind)
        assert kinds >= {"not-a-hom", "faithful"}


class TestSemidirect:
    def test_no_complement_is_commutator_algebra(self):
        model = semidirect_S(2, 0)
        assert model.constants == LieAlgebra.from_param(BracketParam.commutator(2)).constants
        assert model.phi == Matrix.identity(4)

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


# sha256 of ``json.dumps([constants.to_json(), matrix_to_json(phi),
# labels], sort_keys=True)`` of ``semidirect_S(r, s)``, recorded when the
# table was still built by the dense block bracket of every basis pair.
SEMIDIRECT_DIGESTS = {
    (1, 0): "ec25e2390fff1342603a33fbe4f325294619ef1b4a0243b5bc971791b1c5fae3",
    (1, 1): "6fd51d354813322c3febf732a42f497ade2d9a50d4e90b1bd366932e86ecca93",
    (1, 2): "fe397b947dec45a4bc4bbc10e9410d22504a6d82cb5859a51ba5aa4cd4763aa6",
    (1, 3): "cd7eb3aa9b22311ef5b7f6b6a0f32f556a6114356da42b615f9746bb8e427834",
    (1, 4): "0f63fda2e0175767bb91fd9f9de6c3168bfce9f47ecdce3aa200e432d8d6ed49",
    (1, 5): "7c9b628b5155e9e4438e669ff4c986eb6e5fc5f88718edfd16da811782ecec98",
    (2, 0): "0feb662de29a1a6dcc4494efdc07b56619e75b4780a246df72b07eaaea08023a",
    (2, 1): "7a187e9c0b1ea6f851b6aad7460923fa7db2e7c4d6e118433fc0188fc6c38bf8",
    (2, 2): "5d92b67f48f7940b66584e566c1cf7697ae817d4081cf9ce644f7985ee5d3550",
    (2, 3): "e9c42e1ce37aa02c59afff685f43b95f2a62f58f0d71cf389df8edc4d8599026",
    (2, 4): "f39bfc3f838b2687807448aea0adde0bdca7716d5a5ec7021af0f7be3339d2e7",
    (3, 0): "2ee2693b22f9499377a306b6b449e1be43339bc4f745ceea67d4ca92f0704691",
    (3, 1): "95bbb95da4fbcbba486db75e0fb1f95d3ae6a61988133d2e674f934aaf14f6d0",
    (3, 2): "b624d465740cbe2939cb637006ea65538d0023f9b76396c2ece050d5d83002f8",
    (3, 3): "82467379ec51307f75773a8927b211cea0a716cb3553c9b7ea6aff6567eaf323",
    (4, 0): "0eb500f5ff9ae0745d1506002fd1f8dfcac3bfb8bcefcde4694baeea6a8665d9",
    (4, 1): "577cb66fdc63ee084479df2fe2edbd2daa97ef26f97d78f1f18b1f54b4066b2e",
    (4, 2): "b99ed81878fdcbdc0a0c9c4e9688a1f88dbafd58f59a173b58c2fa30772e45e9",
    (5, 0): "1571e7b08c4cd2fefc3a6ac8c104531877ee2b56d98223353381e29fabd18ad1",
    (5, 1): "2d374cda6490543aa668839da630b23cb03e3161ac93e65fd7f52e3085fb0948",
    (6, 0): "9edbd1dc902fd83fa18e2994af99ba5f46203916a6eaefee138fcbc0b0c5cdbf",
}


@pytest.mark.parametrize("r, s", sorted(SEMIDIRECT_DIGESTS))
def test_semidirect_output_is_pinned(r, s):
    model = semidirect_S(r, s)
    payload = [model.constants.to_json(), matrix_to_json(model.phi), list(model.labels)]
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == SEMIDIRECT_DIGESTS[(r, s)]


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


def test_no_destination_or_ambient_algebra_is_built(monkeypatch):
    # A map into a bracket on matrices, and a subspace of one, are checked
    # against the parameter itself: no structure constants are built for it.
    model = heisenberg_realization(2)
    real = algebra.structure_constants
    calls = []

    def spy(param):
        calls.append((param.n, param.m))
        return real(param)

    monkeypatch.setattr(algebra, "structure_constants", spy)
    assert all(v["pass"] for v in heisenberg_verdicts(model).values())
    assert calls == []
    semidirect_S(2, 1)
    assert calls == []
    assert ado_embed(classical_representation(1), 4, 5, 3)[1].bijective
    assert calls == []


def reference_restricted_constants(basis, param, labels=None):
    """The loop that solves each basis-pair bracket on its own: one
    ``solve_coordinates`` elimination of the whole flat basis per pair."""
    dim = len(basis)
    table = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            coords = solve_coordinates(basis, bracket(basis[a], basis[b], param))
            if coords is None:
                raise ValueError(f"span not closed: bracket of basis elements {a} and {b} leaves the span")
            terms = {k: v for k, v in enumerate(coords) if v != 0}
            if terms:
                table[(a, b)] = terms
    return LieAlgebra(dim, StructureConstants(dim, table), labels)


def _table_or_error(build, basis, param):
    try:
        table = build(basis, param).constants.table
    except ValueError as exc:
        return "error", str(exc)
    return "table", [(pair, [(k, v, type(v)) for k, v in terms.items()]) for pair, terms in table.items()]


class TestRestrictedConstants:
    def test_matches_per_pair_reference(self):
        # Seeded bases of unit and dense rational matrices, some with a
        # repeated element, under rational parameters: the tables (with the
        # entry types and term order) or the raised errors agree.
        rng = random.Random(5)
        outcomes = set()
        cases = [(model.generators(), model.ambient) for model in map(heisenberg_realization, (1, 2, 3))]
        cand = sl2_candidate()
        cases.append((tuple(pad_matrix(img, 3, 4) for img in cand.images), BracketParam.normal(3, 4, 2)))
        for _ in range(300):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            j = Matrix([[rng.choice([0, 0, 1, -1, Fraction(1, 2)]) for _ in range(n)] for _ in range(m)])
            basis = []
            for _ in range(rng.randint(0, 4)):
                if rng.random() < 0.5:
                    scale = rng.choice([1, 2, Fraction(1, 3)])
                    basis.append(scale * Matrix.unit(n, m, rng.randrange(n), rng.randrange(m)))
                else:
                    entries = [[rng.choice([0, 0, 0, 1, -1, Fraction(2, 3)]) for _ in range(m)] for _ in range(n)]
                    basis.append(Matrix(entries))
            if basis and rng.random() < 0.2:
                basis.append(basis[0])
            cases.append((tuple(basis), BracketParam(n, m, j)))
        for basis, param in cases:
            got = _table_or_error(restricted_constants, basis, param)
            assert got == _table_or_error(reference_restricted_constants, basis, param)
            outcomes.add(got[0] if got[0] == "table" else got[1].split(":")[0])
        assert outcomes == {"table", "span not closed", "basis matrices are linearly dependent"}

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
