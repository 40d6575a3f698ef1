"""Self-contained verification suite for every checkable claim.

Each check function returns ``{"name", "pass", "details"}``; ``run_all``
executes them in a fixed order with one seeded RNG stream per check, so a
given (max_size, seed) pair always produces the same report.  The CLI
subcommand ``verify-all`` and the acceptance tests both run through here.
The signatures of the rank normal forms, which ``signature_separation`` and
the ``endpoint-degeneration`` test of ``deformation_coboundary`` compare,
come from ``classify._rank_signatures``, as in the ``classify`` report:
``run_all`` takes them once, into the shared table of
``_normal_form_signatures``, and both checks read that table.
"""

from __future__ import annotations

import random

from . import algebra
from .algebra import (
    LieAlgebra,
    _hom_failures,
    _jacobi_holds_in_j,
    jacobi_check,
    lower_central_series,
)
from .brackets import BracketParam, StructureConstants, _generic_parameter, structure_constants
from .classify import _checked_witness, _rank_signatures, center_law, random_parameter
from .constructions import (
    HypothesisError,
    classical_representation,
    heisenberg_abstract,
    heisenberg_realization,
    heisenberg_obstruction,
    heisenberg_verdicts,
    example_catalog,
    semidirect_S,
    RepCandidate,
    CATALOG_NAMES,
)
from .deform import (
    PATH_TIMES,
    ContractionDivergenceError,
    _generic_time,
    _identity_table,
    _path_identities,
    _shift_table,
    ce_coboundary_check,
    contraction_constants,
    contraction_limit,
)
from .matrices import Matrix, rank_normal_form

_PARAMS_PER_SHAPE = 20  # sampled parameters per shape in ``lie_axioms``
_HEISENBERG_SIZES = (1, 2, 3)  # the n of h_n in both Heisenberg checks


def _shapes(max_size: int):
    return [(n, m) for n in range(1, max_size + 1) for m in range(1, max_size + 1)]


def _separated_shapes(max_size: int):
    """The shapes ``(n, m)``, ``2 <= n <= m <= max_size``, whose normal forms
    ``signature_separation`` compares; the transposed shapes share their
    signatures (see ``_normal_form_signatures``)."""
    return [(n, m) for n in range(2, max_size + 1) for m in range(n, max_size + 1)]


def _normal_form_signatures(shapes) -> dict:
    """The shared signature table: ``classify._rank_signatures(n, m)`` for
    each shape ``(n, m)`` of ``shapes`` (each with ``n <= m``), stored under
    ``(n, m)`` and, the same list, under ``(m, n)``.

    Transposition lemma: ``([A, B]_J)^T = B^T J^T A^T - A^T J^T B^T =
    -[A^T, B^T]_(J^T)``, so ``A -> -A^T`` is an isomorphism from the
    ``J``-bracket on ``Mat(n x m)`` onto the ``J^T``-bracket on
    ``Mat(m x n)``; and the rank-``r`` normal form of ``Mat(m x n)`` is the
    transpose of that of ``Mat(n x m)``.  So the normal forms of the two
    shapes give isomorphic algebras, rank by rank, and their invariant
    signatures are equal.  ``_rank_signatures`` itself stays per shape, so
    the ``classify`` report does not rest on the lemma."""
    table = {}
    for n, m in shapes:
        table[(n, m)] = table[(m, n)] = _rank_signatures(n, m)
    return table


def _model_disagreements(param: BracketParam, table: dict):
    """The basis pairs ``(a, b)``, in pair order, whose ``param`` bracket
    differs from their constants in ``table``: the failures of the identity
    map of ``Mat(n x m)`` as a homomorphism from the algebra of ``table``
    into the ``param`` bracket."""
    d = param.dim
    units = [[1 if t == a else 0 for t in range(d)] for a in range(d)]
    src = LieAlgebra(d, StructureConstants._trusted(d, table))
    for witness in _hom_failures(units, 1, src, param):
        yield tuple(witness["pair"])


def _model_tables(n: int, m: int):
    """The tables ``T_p`` of the ``mn`` unit parameters of the shape, if they
    prove the table equal to the matrix bracket for every ``J`` (the
    model/constants identity, by one packed homomorphism check of the
    identity map at the generic parameter ``J*`` against the packed table
    ``sum_p 2^(w p) T_p``; see ``check_lie_axioms``), else None."""
    tables = [
        algebra.structure_constants(BracketParam(n, m, Matrix.unit(m, n, x, y))).table
        for x in range(m)
        for y in range(n)
    ]
    constants = [v for table in tables for terms in table.values() for v in terms.values()]
    if any(v.denominator != 1 for v in constants):  # a unit bracket has integer entries
        return None
    # Every unit bracket entry is -1, 0 or 1, so w bounds both sides.
    w = max([1, *map(abs, constants)]).bit_length() + 1
    packed: dict = {}
    for p, table in enumerate(tables):
        for pair, terms in table.items():
            slots = packed.setdefault(pair, {})
            for k, v in terms.items():
                slots[k] = slots.get(k, 0) + (int(v) << (w * p))
    param = BracketParam(n, m, _generic_parameter(m, n, w))
    if next(_model_disagreements(param, packed), None) is not None:
        return None
    return tables


def _holds_for_every_parameter(max_size: int) -> bool:
    """Both Lie-axiom identities for every ``J`` of every shape up to
    ``max_size`` (see ``check_lie_axioms``): the model/constants identity at
    each shape from its unit tables, and Jacobi by one sweep over the merged
    unit tables of the shape ``(k, k)``, ``k = min(max_size, 3)``."""
    k = min(max_size, 3)
    corner = []
    for n, m in _shapes(max_size):
        tables = _model_tables(n, m)
        if tables is None:
            return False
        if (n, m) == (k, k):
            corner = tables
    return _jacobi_holds_in_j(corner, k * k)


def check_lie_axioms(max_size: int = 4, seed: int = 0) -> dict:
    """For seeded random parameters of every shape: the matrix bracket of
    every basis pair equals the expansion of its structure constants
    (``model-constants``), and the constants satisfy Jacobi on every basis
    triple (``jacobi``).  The first ties the Jacobi verdict to the matrices;
    antisymmetry is structural in the constants.

    Both identities are first proved for every ``J`` of every shape, from
    the tables ``T_p`` of the ``mn`` unit matrices ``E_p`` alone.  The
    matrix bracket is linear in ``J``, and so is the table, since
    ``structure_constants`` writes each constant as plus or minus one entry
    of ``J``: the table of ``J`` is ``sum_p J_p T_p``.  The proof rests on
    that linearity of the code, which parameters with entries 0 and 1
    cannot show, and the tests tie the table to the bracket at dense and
    rational ``J``.

    - The model-constants identity is then linear in ``J``, so it holds for
      every ``J`` iff it holds at every ``E_p``.  Every entry of a unit
      bracket ``[E_a, E_b]_(E_p)`` is -1, 0 or 1, so with ``w`` one bit
      above the largest unit constant (and at least 2), both sides at every
      ``E_p`` are below ``2^(w-1)``, and the generic-parameter lemma of
      ``brackets._generic_parameter`` proves it for all ``E_p`` at once:
      one check at ``J*`` against the packed table ``sum_p 2^(w p) T_p``,
      that the identity map of ``Mat(n x m)`` is a homomorphism from that
      table into the ``J*`` bracket (``_model_disagreements``); the packing
      lemma of that check makes its equal packed sides equal entry by
      entry at ``J*``.  A unit table whose constants grow widens ``w`` with
      them, so no constant can alias into the next slot.  This is checked
      at every shape.
    - Each entry of the Jacobi sum of a triple is a quadratic form
      ``sum_{p <= q} c_pq J_p J_q`` with integer coefficients.  One sweep
      over the merged table ``sum_p J_p T_p`` finds every coefficient, and
      the identity holds for every rational ``J`` iff all are 0; then it
      holds for every ``J`` over any field, with no appeal to 2 being
      invertible.  This sweep runs once, at the shape ``(k, k)`` with
      ``k = min(max_size, 3)``, on the unit tables that its
      model-constants check built.

    Block-subalgebra lemma: on units the bracket is ``[E_ij, E_kl]_J =
    J_jk E_il - J_li E_kj``, so for a row set ``I`` and a column set ``K``
    the units ``E_ik`` (``i`` in ``I``, ``k`` in ``K``) span a subalgebra of
    ``Mat(n x m)``, and relabelled it is the ``Mat(|I| x |K|)`` bracket
    algebra of the block of ``J`` on rows ``K`` and columns ``I``.  A basis
    triple uses at most three rows and three columns, so its Jacobi sum at
    any shape up to ``max_size`` is the Jacobi sum of a triple of the
    matrix bracket at ``(k, k)``, where the smaller shapes sit as the
    top-left block.  The model-constants check at ``(k, k)`` makes the
    swept table that matrix bracket, so Jacobi holds for the matrix bracket
    at every shape and every ``J``; the model-constants check at each
    shape makes its table that bracket, so the table satisfies Jacobi too.

    The unit tables are sparse, so the Jacobi half is cheap.  When the proof
    passes it covers the samples, so none is drawn, and
    ``algebras_checked`` counts the ``_PARAMS_PER_SHAPE`` sampled parameters
    per shape that it covers.  Only when it fails are the samples drawn and
    checked one by one, which names each failing sample.
    """
    shapes = _shapes(max_size)
    failures = []
    if not _holds_for_every_parameter(max_size):
        rng = random.Random(seed)
        for n, m in shapes:
            for _ in range(_PARAMS_PER_SHAPE):
                j = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
                param = BracketParam(n, m, j)
                L = LieAlgebra.from_param(param)
                for a, b in _model_disagreements(param, L.constants.table):
                    failures.append({"shape": [n, m], "pair": [a, b], "kind": "model-constants"})
                verdict = jacobi_check(L)
                if not verdict:
                    failures.append({"shape": [n, m], "kind": "jacobi", "witness": verdict.witness})
    return {
        "name": "lie_axioms",
        "pass": not failures,
        "details": {
            "algebras_checked": len(shapes) * _PARAMS_PER_SHAPE,
            "params_per_shape": _PARAMS_PER_SHAPE,
            "failures": failures,
        },
    }


def check_center_dimensions(max_size: int = 4) -> dict:
    """Center dimension is (n-r)(m-r), except 1 for full-rank square."""
    failures = []
    checked = 0
    for n, m in _shapes(max_size):
        for r in range(min(n, m) + 1):
            ctr, _, expected = center_law(BracketParam.normal(n, m, r))
            checked += 1
            if ctr.dim != expected:
                failures.append({"shape": [n, m], "r": r, "expected": expected, "got": ctr.dim})
    return {
        "name": "center_dimension_law",
        "pass": not failures,
        "details": {"cases": checked, "failures": failures},
    }


def check_iso_soundness(max_size: int = 4, seed: int = 0) -> dict:
    """Ten seeded equal-rank random parameter pairs per shape admit verified
    bijective witnesses."""
    rng = random.Random(seed)
    failures = []
    checked = 0
    for n, m in _shapes(max_size):
        for _ in range(10):
            r = rng.randint(0, min(n, m))
            j1 = random_parameter(rng, m, n, r)
            j2 = random_parameter(rng, m, n, r)
            verdict = _checked_witness(j1, j2)
            checked += 1
            if not verdict.bijective:
                failures.append(
                    {"shape": [n, m], "r": r, "j1": str(j1), "j2": str(j2), "witness": verdict.witness}
                )
    return {
        "name": "iso_soundness",
        "pass": not failures,
        "details": {"pairs_checked": checked, "failures": failures},
    }


def check_signature_separation(max_size: int = 4, *, signatures: dict | None = None) -> dict:
    """Distinct ranks give distinct invariant signatures (min(n,m) >= 2).

    The signatures are read from ``signatures``, the shared table of
    ``_normal_form_signatures`` that ``run_all`` passes; run alone, the
    check builds it for ``_separated_shapes(max_size)``.  The table holds
    the shape ``(m, n)`` as the entry of ``(n, m)``, by the transposition
    lemma, but every shape is still checked and reported as its own."""
    if signatures is None:
        signatures = _normal_form_signatures(_separated_shapes(max_size))
    failures = []
    shapes = 0
    for n, m in _shapes(max_size):
        if min(n, m) < 2:
            continue
        shapes += 1
        sigs = signatures[(n, m)]
        for a in range(len(sigs)):
            for b in range(a + 1, len(sigs)):
                if sigs[a] == sigs[b]:
                    failures.append({"shape": [n, m], "ranks": [a, b], "signature": sigs[a].to_json()})
    return {
        "name": "signature_separation",
        "pass": not failures,
        "details": {"shapes_checked": shapes, "failures": failures},
    }


def check_heisenberg_realization() -> dict:
    """Generator brackets, closedness, nilpotency type and center of the span."""
    failures = []
    for n in _HEISENBERG_SIZES:
        try:
            model = heisenberg_realization(n)  # bracket relations verified inside
        except ValueError as exc:
            failures.append({"n": n, "kind": "construction", "error": str(exc)})
            continue
        for kind, verdict in heisenberg_verdicts(model).items():
            if not verdict["pass"]:
                failures.append({"n": n, "kind": kind, **verdict})
    return {
        "name": "heisenberg_realization",
        "pass": not failures,
        "details": {"sizes": list(_HEISENBERG_SIZES), "failures": failures},
    }


def check_heisenberg_obstruction(seed: int = 0) -> dict:
    """Scalar-Z candidates in low dimension always contradict; the classical
    representation is faithful; no low-dimensional candidate comes out faithful.

    This tests the obstruction classifier ``heisenberg_obstruction`` on the
    classical representation and on seeded random candidates of dimension
    at most ``n + 1``; it does not prove the bound ``dim V >= n + 2`` for a
    faithful representation of ``h_n``, which no finite sample can.  That
    the least such dimension is ``n + 2`` is a theorem: D. Burde, "On a
    refinement of Ado's theorem", Arch. Math. 70 (1998), gives
    ``mu(h_n) = n + 2``."""
    rng = random.Random(seed)
    failures = []
    checked = 0
    for n in _HEISENBERG_SIZES:
        classical = classical_representation(n)
        verdict = heisenberg_obstruction(classical)
        checked += 1
        if verdict.kind != "faithful":
            failures.append({"n": n, "kind": "classical", "verdict": verdict.kind})
        src = heisenberg_abstract(n)
        for target_dim in range(1, n + 2):
            for lam in (1, -2):
                images = [
                    Matrix([[rng.randint(-2, 2) for _ in range(target_dim)] for _ in range(target_dim)])
                    for _ in range(2 * n)
                ]
                images.append(lam * Matrix.identity(target_dim))
                verdict = heisenberg_obstruction(RepCandidate(src, tuple(images), target_dim))
                checked += 1
                if verdict.kind != "scalar-Z-contradiction":
                    failures.append(
                        {"n": n, "target_dim": target_dim, "kind": "scalar-Z", "verdict": verdict.kind}
                    )
            zero_images = tuple(Matrix.zeros(target_dim, target_dim) for _ in range(2 * n + 1))
            verdict = heisenberg_obstruction(RepCandidate(src, zero_images, target_dim))
            checked += 1
            if verdict.kind != "not-faithful":
                failures.append(
                    {"n": n, "target_dim": target_dim, "kind": "zero-images", "verdict": verdict.kind}
                )
            for _ in range(3):
                images = tuple(
                    Matrix([[rng.randint(-2, 2) for _ in range(target_dim)] for _ in range(target_dim)])
                    for _ in range(2 * n + 1)
                )
                verdict = heisenberg_obstruction(RepCandidate(src, images, target_dim))
                checked += 1
                if verdict.kind == "faithful":
                    failures.append({"n": n, "target_dim": target_dim, "kind": "random-faithful"})
    return {
        "name": "heisenberg_obstruction",
        "pass": not failures,
        "details": {"candidates_checked": checked, "failures": failures},
    }


def check_semidirect(max_total: int = 4) -> dict:
    """The block-assembly map verifies for all r+s <= max_total, and the
    nilpotent part is two-step nilpotent."""
    failures = []
    models = 0
    for r in range(1, max_total + 1):
        for s in range(0, max_total - r + 1):
            try:
                model = semidirect_S(r, s)  # the map is verified at construction
            except ValueError as exc:
                failures.append({"r": r, "s": s, "kind": "construction", "error": str(exc)})
                continue
            models += 1
            nil = model.nilpotent_indices()
            if not nil:  # s = 0: no nilpotent part
                continue
            # nil is a final coordinate range, so a < b puts b in it whenever a is.
            table = {
                (a - nil.start, b - nil.start): {k - nil.start: v for k, v in terms.items()}
                for (a, b), terms in model.constants.table.items()
                if a in nil
            }
            if any(k < 0 for terms in table.values() for k in terms):
                failures.append({"r": r, "s": s, "kind": "nil-not-ideal"})
                continue
            ideal = LieAlgebra(len(nil), StructureConstants(len(nil), table))
            lcs = [t.dim for t in lower_central_series(ideal)]
            if lcs[-1] != 0 or len(lcs) > 3:
                failures.append({"r": r, "s": s, "kind": "not-two-step", "lcs": lcs})
    return {
        "name": "semidirect_model",
        "pass": not failures,
        "details": {"models_verified": models, "failures": failures},
    }


def check_contraction(max_size: int = 4) -> dict:
    """Contraction limits equal the normal-form constants tensor-exactly and
    the normal forms compose by minimum rank."""
    failures = []
    cases = 0
    for n in range(1, max_size + 1):
        for r in range(n + 1):
            try:
                limit = contraction_limit(contraction_constants(n, r))
            except ContractionDivergenceError as exc:
                failures.append({"n": n, "r": r, "kind": "negative-exponent", "triple": list(exc.triple)})
                continue
            expected = structure_constants(BracketParam.normal(n, n, r))
            cases += 1
            if limit != expected:
                failures.append({"n": n, "r": r, "kind": "limit-mismatch"})
        for r in range(n + 1):
            for s in range(n + 1):
                prod = rank_normal_form(n, n, r) @ rank_normal_form(n, n, s)
                if prod != rank_normal_form(n, n, min(r, s)):
                    failures.append({"n": n, "r": r, "s": s, "kind": "product-law"})
    return {
        "name": "contraction",
        "pass": not failures,
        "details": {"cases": cases, "failures": failures},
    }


# The slot width of the coboundary proof: at a unit J every entry of either
# scaled side of the coboundary identity is at most 12 < 2^5 in absolute value.
_COBOUNDARY_SLOT = 6


def check_deformation_coboundary(max_size: int = 4, seed: int = 0, *, signatures: dict | None = None) -> dict:
    """Decomposition identity and transport along the path, coboundary
    identity, and the degeneration of the path's endpoint.

    The ``transport`` verdict of ``path_identities`` proves the column
    scaling ``psi_t`` an isomorphism from the ``J_t``-bracket onto ``gl(n)``,
    so the path points need no invariant.  Both path identities are proved
    for every time ``t`` of each ``(n, r)`` by one evaluation at the generic
    time ``t* = 1/2^W`` of ``deform._generic_time``, by the generic-time
    lemma of ``deform.path_identities``: with ``t = p/q`` every residual
    entry is a form in ``(p, q)`` whose coefficients are at most ``4 M``,
    ``M`` the largest absolute constant of the time-free tables ``T(I)`` and
    ``T(J_r - I)``, and ``W = (4 M).bit_length() + 1``.  ``T(I)`` is built
    once per ``n`` and ``T(J_r - I)`` once per ``(n, r)``, and the path
    identities run on integers.  The proof covers the sample times
    ``PATH_TIMES`` below ``t = 1`` (the transport map is singular at
    ``t = 1``), so ``identity_cases`` counts the pairs at those times; only
    when it fails are they checked one by one, which names each failing
    time.

    The invariant signature tells the endpoint ``J_r`` (``r < n``) apart
    from ``gl(n)``, the bracket of ``N_n = I`` (``endpoint-degeneration``):
    both are entries of ``classify._rank_signatures(n, n)``, read from
    ``signatures``, the shared table of ``_normal_form_signatures`` that
    ``run_all`` passes (run alone, the check builds it for the shapes
    ``(n, n)``).  At ``n = 1`` both are the one-dimensional algebra, so it
    is read from ``n = 2`` on.

    The coboundary identity is proved for every ``J`` of each size ``n`` by
    one ``ce_coboundary_check`` at the generic parameter ``J*`` of
    ``brackets._generic_parameter`` with ``w = 6``.  Its premise is that
    ``alpha_coboundary`` is linear in ``J`` and that at a unit ``J`` every
    entry of either side, scaled by 2 as ``ce_coboundary_check`` scales it
    for an integer ``J``, is at most 12 in absolute value, below ``2^5``.
    The bound: with ``|M|`` the sum of the absolute entries of ``M``, a
    product with a unit matrix gives ``|X E| <= |X|``, so
    ``|2 alpha(X)| = |X J + J X| <= 2 |X|`` and ``|[A, M]| <= 2 |M|`` for a
    unit ``A``.  For units ``A`` and ``B`` then ``|[A, 2 alpha(B)]| <= 4``,
    ``|[B, 2 alpha(A)]| <= 4`` and ``|2 alpha([A, B])| <= 2 |[A, B]| <= 4``,
    so the left side is at most 12, and ``|2 [A, B]_J| <= 4`` on the right.
    The proof covers the ``n`` normal forms and the two random parameters
    per ``n``, so these are checked one by one, in the seeded order, only
    when it fails, which names each failing parameter; ``identity_cases``
    counts the path identities alone.
    """
    if signatures is None:
        signatures = _normal_form_signatures((n, n) for n in range(2, max_size + 1))
    rng = random.Random(seed)
    failures = []
    identity_cases = 0
    proved = all(
        ce_coboundary_check(_generic_parameter(n, n, _COBOUNDARY_SLOT), n) for n in range(1, max_size + 1)
    )
    times = PATH_TIMES[:-1]  # the transport map is singular at t = 1, the last sample time
    for n in range(1, max_size + 1):
        pairs = n * n * (n * n - 1) // 2
        sigs = signatures.get((n, n))
        comm = _identity_table(n)
        for r in range(n):
            shift = _shift_table(n, r)
            identity_cases += len(times) * pairs
            t_star = _generic_time(comm, shift)
            if t_star is None or not all(_path_identities(n, r, t_star, comm, shift).values()):
                for t in times:
                    for kind, ok in _path_identities(n, r, t, comm, shift).items():
                        if not ok:
                            failures.append({"n": n, "r": r, "t": str(t), "kind": kind})
            if n >= 2 and sigs[r] == sigs[n]:
                failures.append({"n": n, "r": r, "kind": "endpoint-degeneration"})
            if not proved and not ce_coboundary_check(rank_normal_form(n, n, r), n):
                failures.append({"n": n, "r": r, "kind": "coboundary-normal-form"})
        for _ in range(0 if proved else 2):
            j = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            if not ce_coboundary_check(j, n):
                failures.append({"n": n, "j": str(j), "kind": "coboundary-random"})
    return {
        "name": "deformation_coboundary",
        "pass": not failures,
        "details": {"identity_cases": identity_cases, "failures": failures},
    }


def check_catalog() -> dict:
    """Catalog brackets match where expected; known discrepancies are flagged."""
    failures = []
    expected_discrepancies = {
        "heisenberg3_gl21": 0,
        "affine2_column": 1,
        "g32_1": 0,
        "column4": 0,
        "mat2_rank1": 1,
        "mat2_full": 0,
    }
    for name in CATALOG_NAMES:
        entry = example_catalog(name)
        mismatches = [c for c in entry.claims if not c.matches]
        if len(mismatches) != expected_discrepancies[name]:
            failures.append(
                {
                    "entry": name,
                    "expected_flags": expected_discrepancies[name],
                    "got_flags": len(mismatches),
                    "pairs": [f"[{c.left},{c.right}]" for c in mismatches],
                }
            )
        for c in mismatches:
            if not c.note:
                failures.append({"entry": name, "kind": "unexplained-discrepancy"})
    entry = example_catalog("mat2_rank1")
    xy = next(c for c in entry.claims if (c.left, c.right) == ("X", "Y"))
    if xy.matches:
        failures.append({"entry": "mat2_rank1", "kind": "XY-should-differ"})
    aff = example_catalog("affine2_column")
    e2e1 = aff.claims[0]
    if e2e1.computed != (0, 1):  # computed bracket [e2, e1] is e2
        failures.append({"entry": "affine2_column", "kind": "computed-value", "got": e2e1.computed})
    return {
        "name": "catalog_fidelity",
        "pass": not failures,
        "details": {"entries": list(CATALOG_NAMES), "failures": failures},
    }


def run_all(max_size: int = 4, seed: int = 0) -> dict:
    """Run every check; the report is deterministic in (max_size, seed).

    ``max_size`` must be at least 2: below that, several checks would pass
    on zero cases.  The normal-form signatures are taken once, into the
    shared table of ``_normal_form_signatures`` for the shapes
    ``2 <= n <= m <= max_size``, which ``signature_separation`` and
    ``deformation_coboundary`` both read: no shape's signatures are taken
    twice, and a transposed shape reads the entry of its transpose.
    """
    if max_size < 2:
        raise HypothesisError(f"max_size must be at least 2, got {max_size}")
    signatures = _normal_form_signatures(_separated_shapes(max_size))
    checks = [
        check_lie_axioms(max_size, seed),
        check_center_dimensions(max_size),
        check_iso_soundness(max_size, seed),
        check_signature_separation(max_size, signatures=signatures),
        check_heisenberg_realization(),
        check_heisenberg_obstruction(seed),
        check_semidirect(max_size),
        check_contraction(max_size),
        check_deformation_coboundary(max_size, seed, signatures=signatures),
        check_catalog(),
    ]
    return {
        "max": max_size,
        "seed": seed,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
