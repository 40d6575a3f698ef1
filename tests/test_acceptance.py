"""Acceptance suite: one test per criterion, exact arithmetic, fixed seeds.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
live).  The same checks back the ``liebrackets verify-all`` subcommand;
the final test runs that command end-to-end and enforces its time budget.
"""

import hashlib
import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from liebrackets import algebra, classify, deform, verify
from liebrackets.algebra import LieAlgebra, _jacobi_holds_in_j, jacobi_check
from liebrackets.brackets import (
    BracketParam,
    StructureConstants,
    _generic_parameter,
    _pair_brackets,
    basis_matrices,
    structure_constants,
)
from liebrackets.deform import ce_coboundary_check
from liebrackets.matrices import Matrix
from liebrackets.verify import (
    check_catalog,
    check_center_dimensions,
    check_contraction,
    check_deformation_coboundary,
    check_heisenberg_obstruction,
    check_heisenberg_realization,
    check_iso_soundness,
    check_lie_axioms,
    check_semidirect,
    check_signature_separation,
    run_all,
)


def report(number, label, outcome):
    status = "PASS" if outcome["pass"] else "FAIL"
    print(f"ACCEPTANCE {number:2d} {label}: {status}")
    assert outcome["pass"], outcome["details"].get("failures")


def test_01_lie_axioms():
    # Zero tolerance, for every parameter of every shape (proved from the
    # mn unit tables, which covers the 20 seeded samples per shape): the
    # matrix bracket of every basis pair equals its structure constants at
    # each unit parameter of each shape, and the Jacobi sum of every basis
    # triple of the merged table sum_p J_p T_p at 3x3 has every monomial
    # coefficient 0, which covers every shape by the block-subalgebra lemma.
    # Antisymmetry is structural in the constants, which store each pair once.
    out = check_lie_axioms(max_size=4, seed=0)
    assert out["details"]["algebras_checked"] == 16 * 20
    report(1, "Lie axioms on all shapes <= 4", out)


def wrong_constants(param):
    """The two-term formula of ``structure_constants`` with the sign of the
    second term flipped: [E_ij, E_kl] = J[j,k] E_il + J[l,i] E_kj."""
    n, m, j = param.n, param.m, param.j
    table = {}
    for a in range(n * m):
        i, jj = divmod(a, m)
        for b in range(a + 1, n * m):
            k, ll = divmod(b, m)
            terms = {}
            terms[i * m + ll] = terms.get(i * m + ll, 0) + j[jj, k]
            terms[k * m + jj] = terms.get(k * m + jj, 0) + j[ll, i]
            table[(a, b)] = terms
    return StructureConstants(n * m, table)


def flipped_second_term(param):
    """``structure_constants`` with the sign of its ``T(b, a)`` term flipped:
    ``[E_a, E_b] = T(a, b) + T(b, a)``, whose target is ``E_(y, x)`` for
    ``a = (i, x)`` and ``b = (y, l)``."""
    m = param.m
    table = {
        (a, b): {k: -v if k == b - b % m + a % m else v for k, v in terms.items()}
        for (a, b), terms in structure_constants(param).table.items()
    }
    return StructureConstants(param.dim, table)


def test_01_lie_axioms_catch_constants_that_disagree_with_the_model(monkeypatch):
    monkeypatch.setattr(algebra, "structure_constants", wrong_constants)
    out = check_lie_axioms(max_size=2, seed=0)
    assert not out["pass"]
    assert "model-constants" in {f["kind"] for f in out["details"]["failures"]}


def test_01_lie_axioms_report_jacobi_failures_with_their_triple(monkeypatch):
    # The flipped table breaks Jacobi on 2x2 (see TABLES below), so sampled
    # parameters of that shape fail on Jacobi, each with its triple.
    monkeypatch.setattr(algebra, "structure_constants", flipped_second_term)
    out = check_lie_axioms(max_size=2, seed=0)
    jacobi = [f for f in out["details"]["failures"] if f["kind"] == "jacobi"]
    assert not out["pass"]
    assert jacobi
    for failure in jacobi:
        assert failure["shape"] == [2, 2] and set(failure["witness"]) == {"triple", "defect"}


# sha256 of ``json.dumps`` of the failures list of ``check_lie_axioms(k, 0)``
# under either fault above, as the sample-by-sample check reported it before
# the family proof ran first (163 failures at k = 2, 1,495 at k = 3).
SAMPLED_FAILURE_DIGESTS = {
    2: "b230f0b65d8447f0e2e7966f59b19f564a9d727967e0b677f84a24e3f82864ee",
    3: "e9f8c3a152ac523fcea613f9112cc56b54029977cc40f15414d47d19d09556f6",
}


@pytest.mark.parametrize("fault", [wrong_constants, flipped_second_term])
@pytest.mark.parametrize("k", sorted(SAMPLED_FAILURE_DIGESTS))
def test_01_lie_axioms_failures_are_those_of_the_samples(monkeypatch, fault, k):
    # The family proof fails under the fault, so the samples are drawn and
    # checked one by one, and each failure is reported as before.
    monkeypatch.setattr(algebra, "structure_constants", fault)
    out = check_lie_axioms(max_size=k, seed=0)
    assert not out["pass"]
    assert out["details"]["algebras_checked"] == k * k * 20
    digest = hashlib.sha256(json.dumps(out["details"]["failures"]).encode("utf-8")).hexdigest()
    assert digest == SAMPLED_FAILURE_DIGESTS[k]


def rotated_second_term(param):
    """``structure_constants`` with its ``T(b, a)`` term read off ``J``
    turned by a half turn (entry ``(x, y)`` taken from ``(m-1-x, n-1-y)``).
    It equals the bracket's table wherever ``J`` is centrally symmetric, as
    the all-ones ``J`` is, so a check of the Jacobi sum at such a ``J``
    alone would pass it."""
    m, j = param.m, param.j
    turned = BracketParam(param.n, m, Matrix.from_flat(j.rows, j.cols, j.entries[::-1]))
    first, second = structure_constants(param).table, structure_constants(turned).table
    table = {}
    for a, b in first.keys() | second.keys():
        k = b - b % m + a % m  # the target E_(y, x) of T(b, a)
        terms = {t: v for t, v in first.get((a, b), {}).items() if t != k}
        if k in second.get((a, b), {}):
            terms[k] = second[(a, b)][k]
        table[(a, b)] = terms
    return StructureConstants(param.dim, table)


def dense_model_disagreements(basis, param, table):
    """The basis pairs ``(a, b)`` whose matrix bracket, decoded by
    ``_pair_brackets``, differs from the dense expansion of their constants
    in ``table``: the model/constants comparison as a decode-and-compare
    loop, independent of the packed homomorphism check."""
    for a, b, w in _pair_brackets(basis, param):
        terms = table.get((a, b))
        if terms is None:  # an unstored pair: the bracket must be zero
            if any(w):
                yield a, b
        elif w != tuple(terms.get(k, 0) for k in range(len(basis))):
            yield a, b


def reference_holds_for_every_parameter(n, m):
    """``verify._holds_for_every_parameter`` as it was when it proved Jacobi
    by polarization, split into its two halves: the model/constants identity
    at the ``mn`` unit parameters ``E_p``, and the Jacobi sweep at every
    ``E_p`` and ``E_p + E_q`` (each entry of the Jacobi sum is a quadratic
    form ``Q`` with ``Q(E_p + E_q) = Q(E_p) + Q(E_q) + 2 B(E_p, E_q)``, and 2
    is invertible)."""
    basis = basis_matrices(n, m)
    units = [Matrix.unit(m, n, x, y) for x in range(m) for y in range(n)]
    model = True
    for j in units:
        param = BracketParam(n, m, j)
        table = LieAlgebra.from_param(param).constants.table
        if next(dense_model_disagreements(basis, param, table), None) is not None:
            model = False
    polarization = units + [units[p] + units[q] for p in range(len(units)) for q in range(p + 1, len(units))]
    jacobi = all(jacobi_check(LieAlgebra.from_param(BracketParam(n, m, j))) for j in polarization)
    return model, jacobi


def unit_tables(n, m):
    """The tables of the ``mn`` unit parameters, from ``algebra.structure_constants``."""
    units = [Matrix.unit(m, n, x, y) for x in range(m) for y in range(n)]
    return [algebra.structure_constants(BracketParam(n, m, j)).table for j in units]


def only_at(shape, fault):
    """``structure_constants`` with ``fault`` at ``shape`` and true elsewhere."""

    def build(param):
        return fault(param) if (param.n, param.m) == shape else structure_constants(param)

    return build


SHAPES_TO_4 = [(n, m) for n in range(1, 5) for m in range(1, 5)]
# Each table builder, with the shapes up to 4x4 on which it satisfies Jacobi
# for every J.
TABLES = {
    "true": (structure_constants, set(SHAPES_TO_4)),
    "wrong": (wrong_constants, {(1, 1), (1, 2), (2, 1)}),
    "flipped": (flipped_second_term, {(1, 1), (1, 2), (2, 1)}),
    "rotated": (rotated_second_term, {(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)}),
}


@pytest.mark.parametrize("table", sorted(TABLES))
def test_01_lie_axioms_proof_agrees_with_polarization(monkeypatch, table):
    # Under a fault the model/constants half fails on every shape but 1x1,
    # so the Jacobi halves are compared on their own as well.
    build, jacobi_shapes = TABLES[table]
    monkeypatch.setattr(algebra, "structure_constants", build)
    holds = set()
    models = {}
    for n, m in SHAPES_TO_4:
        model, jacobi = reference_holds_for_every_parameter(n, m)
        assert (verify._model_tables(n, m) is not None) == model, (n, m)
        assert _jacobi_holds_in_j(unit_tables(n, m), n * m) == jacobi, (n, m)
        models[(n, m)] = model
        if jacobi:
            holds.add((n, m))
    assert holds == jacobi_shapes
    # The whole proof: the model half at every shape, Jacobi at (k, k).
    for size in range(1, 5):
        k = min(size, 3)
        model = all(models[(n, m)] for n in range(1, size + 1) for m in range(1, size + 1))
        assert verify._holds_for_every_parameter(size) == (model and (k, k) in holds), size


def symbolic_jacobi_vanishes(sympy, n, m, second):
    """Whether the Jacobi sum of every basis triple is the zero polynomial in
    the entries of a symbolic ``J``, for ``[E_a, E_b] = E_a J E_b - E_b S E_a``
    (``a < b``) with ``S = second(J)``: ``J`` for the bracket, ``-J`` for the
    flipped table."""
    d = n * m
    j = sympy.Matrix(m, n, sympy.symbols(f"j0:{d}"))
    units = [sympy.Matrix(n, m, lambda r, c: int(r * m + c == a)) for a in range(d)]
    table = {}
    for a in range(d):
        for b in range(a + 1, d):
            table[(a, b)] = sympy.Matrix(list(units[a] * j * units[b] - units[b] * second(j) * units[a]))
            table[(b, a)] = -table[(a, b)]

    def ad(x, v):  # [x_x, sum_k v_k x_k]
        out = sympy.zeros(d, 1)
        for k in range(d):
            if k != x and v[k] != 0:
                out += v[k] * table[(x, k)]
        return out

    for a in range(d):
        for b in range(a + 1, d):
            for c in range(b + 1, d):
                total = ad(a, table[(b, c)]) - ad(b, table[(a, c)]) + ad(c, table[(a, b)])
                if any(sympy.expand(t) != 0 for t in total):
                    return False
    return True


@pytest.mark.parametrize("n, m", [(n, m) for n in range(1, 4) for m in range(1, 4) if n * m <= 6])
def test_01_lie_axioms_proof_agrees_with_sympy(monkeypatch, n, m):
    sympy = pytest.importorskip("sympy")
    assert symbolic_jacobi_vanishes(sympy, n, m, lambda j: j)
    assert verify._model_tables(n, m) is not None
    assert verify._holds_for_every_parameter(max(n, m))
    assert _jacobi_holds_in_j(unit_tables(n, m), n * m)
    monkeypatch.setattr(algebra, "structure_constants", flipped_second_term)
    flipped = _jacobi_holds_in_j(unit_tables(n, m), n * m)
    assert symbolic_jacobi_vanishes(sympy, n, m, lambda j: -j) == flipped == ((n, m) in TABLES["flipped"][1])


@pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (3, 2), (4, 4)])
def test_01_lie_axioms_proof_builds_one_table_per_unit_parameter(monkeypatch, n, m):
    # The proof reads the mn unit tables alone; the mn(mn + 1)/2 tables of
    # the polarization parameters would show here.
    calls = []

    def counted(param):
        calls.append(param)
        return structure_constants(param)

    monkeypatch.setattr(algebra, "structure_constants", counted)
    assert verify._model_tables(n, m) is not None
    assert len(calls) == n * m


def unit_index(param):
    """The row-major index ``p`` of the unit parameter ``E_p`` of ``param``."""
    return param.j.entries.index(1)


def shifted_unit_constants(shifts):
    """``structure_constants`` with ``shifts[p]`` added, at the unit
    parameter ``E_p``, to the constant of ``E_0`` in ``[E_0, E_1]``."""

    def build(param):
        table = {pair: dict(terms) for pair, terms in structure_constants(param).table.items()}
        shift = shifts.get(unit_index(param), 0)
        if shift:
            terms = table.setdefault((0, 1), {})
            terms[0] = terms.get(0, 0) + shift
        return StructureConstants(param.dim, table)

    return build


# 64 at E_0 alone, and 64 at E_0 with -1 at E_3: at the slot width 2 that
# constants of -1, 0 and 1 need, 64 = 2^(2*3) and the second pair cancels in
# the packed table, so only a width taken from the data catches it.
@pytest.mark.parametrize("shifts", [{0: 64}, {0: 64, 3: -1}])
def test_01_lie_axioms_proof_catches_a_large_constant_at_one_unit(monkeypatch, shifts):
    jacobi_calls = []
    real_jacobi = verify._jacobi_holds_in_j
    monkeypatch.setattr(verify, "_jacobi_holds_in_j", lambda *a: jacobi_calls.append(a) or real_jacobi(*a))
    monkeypatch.setattr(algebra, "structure_constants", only_at((2, 2), shifted_unit_constants(shifts)))
    assert verify._model_tables(2, 2) is None
    assert not verify._holds_for_every_parameter(2)
    assert jacobi_calls == []  # the model/constants half failed


def test_01_lie_axioms_proof_makes_one_bracket_pass(monkeypatch):
    # One packed bracket pass per shape, at J*, and no pair decoded: every
    # pair passes, and only a failing pair is unpacked.
    passes, unpacked = [], []
    real = algebra._packed_brackets
    real_unpack = algebra._unpack

    def counted(*args):
        passes.append(args)
        return real(*args)

    monkeypatch.setattr(algebra, "_packed_brackets", counted)
    monkeypatch.setattr(algebra, "_unpack", lambda *a: unpacked.append(a) or real_unpack(*a))
    for n, m in [(1, 1), (2, 3), (3, 2), (4, 4)]:
        passes.clear()
        assert verify._model_tables(n, m) is not None
        assert len(passes) == 1, (n, m)
    assert unpacked == []


@pytest.mark.parametrize("name", sorted(TABLES))
def test_01_lie_axioms_model_disagreements_match_the_dense_comparison(monkeypatch, name):
    # The packed homomorphism check of the identity map names the same
    # pairs, in the same order, as the dense decode-and-compare loop, under
    # each table of TABLES, at every unit parameter and at seeded rational J.
    monkeypatch.setattr(algebra, "structure_constants", TABLES[name][0])
    rng = random.Random(11)
    failing = 0
    for n, m in [(n, m) for n in range(1, 4) for m in range(1, 4)]:
        units = [Matrix.unit(m, n, x, y) for x in range(m) for y in range(n)]
        rational = [Matrix([[random_entry(rng) for _ in range(n)] for _ in range(m)]) for _ in range(2)]
        for j in units + rational:
            param = BracketParam(n, m, j)
            constants = LieAlgebra.from_param(param).constants.table
            got = list(verify._model_disagreements(param, constants))
            assert got == list(dense_model_disagreements(basis_matrices(n, m), param, constants)), (n, m, j)
            failing += len(got)
    assert (failing == 0) == (name == "true")


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_01_lie_axioms_sweep_jacobi_once_at_the_corner_shape(monkeypatch, size):
    # One Jacobi sweep per run, on the unit tables of (k, k), k = min(size, 3),
    # and one table per unit parameter of each shape: the sweep builds none.
    sweeps, params = [], []
    real_jacobi = verify._jacobi_holds_in_j
    monkeypatch.setattr(verify, "_jacobi_holds_in_j", lambda *a: sweeps.append(a) or real_jacobi(*a))
    monkeypatch.setattr(algebra, "structure_constants", lambda param: params.append(param) or structure_constants(param))
    assert check_lie_axioms(max_size=size, seed=0)["pass"]
    k = min(size, 3)
    assert [(len(tables), d) for tables, d in sweeps] == [(k * k, k * k)]
    assert len(params) == sum(n * m for n in range(1, size + 1) for m in range(1, size + 1))
    assert sweeps[0][0] == unit_tables(k, k)


@pytest.mark.parametrize("shape, size", [((2, 3), 3), ((3, 4), 4)])
def test_01_lie_axioms_catch_a_jacobi_fault_away_from_the_swept_shape(monkeypatch, shape, size):
    # The flipped table breaks Jacobi at one shape, which the sweep at (k, k)
    # never reads: the model/constants half of that shape catches it, and the
    # sampled fallback reports the failures of that shape alone.
    monkeypatch.setattr(algebra, "structure_constants", only_at(shape, flipped_second_term))
    k = min(size, 3)
    assert _jacobi_holds_in_j(unit_tables(k, k), k * k)
    assert not _jacobi_holds_in_j(unit_tables(*shape), shape[0] * shape[1])
    assert verify._model_tables(*shape) is None
    assert not verify._holds_for_every_parameter(size)
    out = check_lie_axioms(max_size=size, seed=0)
    assert not out["pass"]
    failures = out["details"]["failures"]
    assert {tuple(f["shape"]) for f in failures} == {shape}
    assert {f["kind"] for f in failures} == {"model-constants", "jacobi"}


def restriction(table, index):
    """The pairs of ``table`` between the basis elements ``index``, with each
    target relabelled by its position in ``index``; a target outside
    ``index`` is kept as None, so that a bracket leaving the block shows."""
    position = {t: p for p, t in enumerate(index)}
    restricted = {}
    for a in range(len(index)):
        for b in range(a + 1, len(index)):
            terms = table.get((index[a], index[b]))
            if terms:
                restricted[(a, b)] = {position.get(t): v for t, v in terms.items()}
    return restricted


def random_entry(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


@pytest.mark.parametrize("size", [3, 4])
def test_01_lie_axioms_every_block_of_rows_and_columns_is_a_subalgebra(size):
    # Block-subalgebra lemma: for a row set I and a column set K of at most
    # three elements each, the units E_ik of Mat(size x size) span the
    # Mat(|I| x |K|) algebra of the block of J on rows K and columns I,
    # whatever the other entries of J are.  At 3x3 the first n rows and m
    # columns give each smaller shape, with its J in the top-left block.
    rng = random.Random(size)
    subsets = [s for k in (1, 2, 3) for s in itertools.combinations(range(size), k)]
    for _ in range(3):
        j = [[random_entry(rng) for _ in range(size)] for _ in range(size)]
        full = structure_constants(BracketParam(size, size, Matrix(j))).table
        for rows in subsets:
            for cols in subsets:
                index = [i * size + k for i in rows for k in cols]
                block = Matrix([[j[x][y] for y in rows] for x in cols])
                table = structure_constants(BracketParam(len(rows), len(cols), block)).table
                assert restriction(full, index) == table, (rows, cols)


def symbolic_coboundary_vanishes(sympy, n, potential):
    """Whether ``[A, a(B)] - [B, a(A)] - a([A, B]) - [A, B]_J`` is the zero
    polynomial in the entries of a symbolic ``J`` on every basis pair, for
    the potential ``a(X) = potential(X, J)``."""
    j = sympy.Matrix(n, n, sympy.symbols(f"j0:{n * n}"))
    units = [sympy.Matrix(n, n, lambda r, c: int(r * n + c == a)) for a in range(n * n)]

    def comm(x, y):
        return x * y - y * x

    for a in range(n * n):
        for b in range(a + 1, n * n):
            x, y = units[a], units[b]
            total = comm(x, potential(y, j)) - comm(y, potential(x, j)) - potential(comm(x, y), j)
            total -= x * j * y - y * j * x
            if any(sympy.expand(t) != 0 for t in total):
                return False
    return True


# Each potential as (symbolic, engine): the engine's own ``alpha_coboundary``
# and the two mutant potentials of the coboundary fault cases.
POTENTIALS = {
    "alpha": (lambda x, j: (x * j + j * x) / 2, None),
    "without-half": (lambda x, j: x * j + j * x, lambda x, j: x @ j + j @ x),
    "x-j-j": (lambda x, j: x * j * j, lambda x, j: x @ j @ j),
}


@pytest.mark.parametrize("potential", sorted(POTENTIALS))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_09_coboundary_proof_agrees_with_sympy(monkeypatch, potential, n):
    sympy = pytest.importorskip("sympy")
    symbolic, engine = POTENTIALS[potential]
    if engine is not None:
        monkeypatch.setattr(deform, "alpha_coboundary", engine)
    vanishes = symbolic_coboundary_vanishes(sympy, n, symbolic)
    assert vanishes == (potential == "alpha" or n == 1)
    proof = ce_coboundary_check(_generic_parameter(n, n, verify._COBOUNDARY_SLOT), n)
    assert bool(proof) == vanishes


def test_09_coboundary_proof_replaces_the_per_parameter_checks(monkeypatch):
    # One check at J* per n, and no normal-form or random parameter checked
    # or drawn once the proof holds.
    checked = []
    real = verify.ce_coboundary_check

    def counted(j, n):
        checked.append(n)
        return real(j, n)

    class Undrawn(random.Random):
        def getrandbits(self, k):
            raise AssertionError("a random parameter was drawn")

    monkeypatch.setattr(verify, "ce_coboundary_check", counted)
    monkeypatch.setattr(verify.random, "Random", Undrawn)
    assert check_deformation_coboundary(max_size=3, seed=0)["pass"]
    assert checked == [1, 2, 3]


def test_09_path_points_need_no_signature(monkeypatch):
    # The transport verdict proves every interior path point isomorphic to
    # gl(n), and signature_separation tells each endpoint apart from gl(n),
    # so the deformation check computes no signature at all.
    params = []
    real = classify.invariant_signature

    def counted(L):
        params.append(L.model.j)
        return real(L)

    monkeypatch.setattr(classify, "invariant_signature", counted)
    assert check_deformation_coboundary(max_size=3, seed=0)["pass"]
    assert params == []


def test_02_center_dimension_law():
    out = check_center_dimensions(max_size=4, signatures=verify._normal_form_signatures(4))
    report(2, "center dimension (n-r)(m-r) / full-rank square 1", out)


def test_03_classification_soundness():
    # 10 seeded equal-rank pairs per shape, witnesses bijectively verified.
    out = check_iso_soundness(max_size=4, seed=0)
    assert out["details"]["pairs_checked"] == 16 * 10
    report(3, "equal-rank parameters give verified isomorphisms", out)


def test_04_classification_completeness_proxy():
    out = check_signature_separation(max_size=4, signatures=verify._normal_form_signatures(4))
    report(4, "distinct ranks give distinct signatures (min >= 2)", out)


def test_05_heisenberg_realization():
    out = check_heisenberg_realization()
    report(5, "Heisenberg realization brackets and nilpotency", out)


def test_06_heisenberg_obstruction():
    out = check_heisenberg_obstruction(seed=0)
    report(6, "scalar-Z contradiction fires; classical rep faithful", out)


def test_07_semidirect_model():
    out = check_semidirect(max_total=4)
    report(7, "semidirect model isomorphism for r+s <= 4", out)


def test_07_semidirect_check_reads_series_dimensions_alone(monkeypatch):
    # The two-step check takes the lower central series of each nilpotent
    # part as ranks of sparse rows; no series of subspaces is built.
    def refused(L, lower_central):
        raise AssertionError("a series of subspaces was built")

    monkeypatch.setattr(algebra, "_series", refused)
    assert check_semidirect(max_total=3)["pass"]


def test_08_contraction():
    out = check_contraction(max_size=4)
    report(8, "contraction limits and normal-form product law", out)


def test_08_contraction_builds_each_normal_form_once_per_size(monkeypatch):
    # The product law indexes the n + 1 normal forms of each n.
    sizes = []
    real = verify.rank_normal_form

    def counted(rows, cols, r):
        sizes.append(rows)
        return real(rows, cols, r)

    monkeypatch.setattr(verify, "rank_normal_form", counted)
    assert check_contraction(max_size=3)["pass"]
    assert sizes == [1] * 2 + [2] * 3 + [3] * 4


def test_09_deformation_and_coboundary():
    out = check_deformation_coboundary(max_size=4, seed=0)
    report(9, "deformation identities, transport, coboundary", out)


def test_10_catalog_fidelity():
    out = check_catalog()
    report(10, "catalog matches where consistent, flags where not", out)


def test_11_end_to_end_cli():
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "liebrackets.cli", "verify-all", "--max", "4", "--seed", "0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.monotonic() - start
    outcome = {"pass": proc.returncode == 0 and elapsed < 60.0, "details": {"failures": proc.stderr[-2000:]}}
    payload = json.loads(proc.stdout)
    assert payload["result"]["pass"] is True
    assert payload["seed"] == 0
    # A passing report is fixed to the byte: refactors must not change it.
    digest = hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest()
    assert digest == "41ee47dfefc30f3327c5093abfda1b2f632af7ab5f7cc74b1c46c75a82fb80ba"
    print(f"(verify-all ran in {elapsed:.1f}s)")
    report(11, "verify-all --max 4 --seed 0 exits 0 in under 60s", outcome)


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_verify_all_draws_through_getrandbits(monkeypatch, seed):
    # Every seeded draw takes the values randint gives straight from
    # getrandbits (classify._randints), so no check calls randint.
    def refused(self, a, b):
        raise AssertionError("randint was called")

    monkeypatch.setattr(random.Random, "randint", refused)
    assert run_all(3, seed)["pass"]


def test_verify_all_matrix_products_stay_few(monkeypatch):
    # Basis-pair loops bracket through the integer kernel of
    # ``brackets._pair_brackets``, and the coboundary check forms its
    # potential once per basis element; one that falls back to ``Matrix @``
    # shows here.  ``run_all(3, 0)`` forms 1,443 products (2,667 with six
    # products a pair in the coboundary check, 14,818 when every pair took
    # two products and a difference).
    calls = 0
    matmul = Matrix.__matmul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return matmul(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    assert run_all(3, 0)["pass"]
    assert calls <= 1600
