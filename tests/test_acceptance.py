"""Acceptance suite: one test per criterion, exact arithmetic, fixed seeds.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
live).  The same checks back the ``liebrackets verify-all`` subcommand;
the final test runs that command end-to-end and enforces its time budget.
"""

import hashlib
import json
import subprocess
import sys
import time

import pytest

from liebrackets import algebra
from liebrackets.brackets import StructureConstants, structure_constants
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
    # Zero tolerance, for every parameter of every shape (proved at the unit
    # and polarization parameters, which covers the 20 seeded samples per
    # shape): the matrix bracket of every basis pair equals its structure
    # constants, and the constants satisfy Jacobi on every basis triple.
    # Antisymmetry is structural in the constants, which store each pair once.
    out = check_lie_axioms(max_size=4, seed=0, params_per_shape=20)
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
    out = check_lie_axioms(max_size=2, seed=0, params_per_shape=20)
    assert not out["pass"]
    assert "model-constants" in {f["kind"] for f in out["details"]["failures"]}


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


def test_02_center_dimension_law():
    out = check_center_dimensions(max_size=4)
    report(2, "center dimension (n-r)(m-r) / full-rank square 1", out)


def test_03_classification_soundness():
    # 10 seeded equal-rank pairs per shape, witnesses bijectively verified.
    out = check_iso_soundness(max_size=4, seed=0, pairs_per_shape=10)
    assert out["details"]["pairs_checked"] == 16 * 10
    report(3, "equal-rank parameters give verified isomorphisms", out)


def test_04_classification_completeness_proxy():
    out = check_signature_separation(max_size=4)
    report(4, "distinct ranks give distinct signatures (min >= 2)", out)


def test_05_heisenberg_realization():
    out = check_heisenberg_realization(sizes=(1, 2, 3))
    report(5, "Heisenberg realization brackets and nilpotency", out)


def test_06_heisenberg_obstruction():
    out = check_heisenberg_obstruction(seed=0, sizes=(1, 2, 3))
    report(6, "scalar-Z contradiction fires; classical rep faithful", out)


def test_07_semidirect_model():
    out = check_semidirect(max_total=4)
    report(7, "semidirect model isomorphism for r+s <= 4", out)


def test_08_contraction():
    out = check_contraction(max_size=4)
    report(8, "contraction limits and normal-form product law", out)


def test_09_deformation_and_coboundary():
    out = check_deformation_coboundary(max_size=4, seed=0)
    report(9, "deformation identities, transport, coboundary, signatures", out)


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
