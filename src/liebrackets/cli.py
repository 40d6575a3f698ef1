"""Command-line front end: every computation as a subcommand with JSON output.

One JSON report goes to stdout (written once, at completion); a short
human-readable summary goes to stderr.  Exit codes: 0 all verdicts pass,
1 a mathematical check failed, 2 usage error.

Matrices on the command line use the text format ``"1 0; 0 1/2"``; pass
``@path`` to read a matrix (text or JSON form) from a file.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import LieAlgebra, invariant_signature, jacobi_check
from .brackets import BracketParam, StructureConstants, structure_constants
from .classify import ClassificationError, center_law, classify_rank_family, verified_witness
from .constructions import (
    HypothesisError,
    RepCandidate,
    ado_embed,
    example_catalog,
    heisenberg_realization,
    heisenberg_verdicts,
    semidirect_S,
    CATALOG_NAMES,
)
from .deform import (
    PATH_TIMES,
    ContractionDivergenceError,
    ce_coboundary_check,
    contraction_constants,
    contraction_limit,
    deformation_bracket,
    path_identities,
)
from .matrices import Matrix, ShapeError, matrix_from_json, matrix_to_json, parse_matrix, rank, rank_normal_form
from .scalars import scalar_str, to_scalar
from .verify import run_all

# Largest inputs the subcommands accept, so that none runs without bound.
# On a 2-core x86-64 machine (CPython 3.11.7) the largest accepted sizes
# finish in at most 3 s: ``classify 36 1`` in 0.14 s, ``classify 12 3`` in
# 0.14 s and ``classify 6 6`` in 0.17 s (re-measured as processes, best of
# 5, on a loaded host where the calibration kernel took 5.5-7 ms; in
# process ``classify 6 6`` takes 13-23 ms), ``heisenberg 16`` in 0.66 s,
# ``deform 8 1 --t 1/3`` in 0.46 s, ``coboundary 8`` with a dense integer J
# in 0.18 s, ``constants 12 12`` and ``center 12 12`` with a dense integer
# J in 3.0 s and 0.34 s (``constants 12 12`` re-measured at 4.4 s, best
# of 5, on a loaded 2-core host where the calibration kernel of
# ``perfbench/calibration.py`` took 5.8-6.1 ms against its 3.5 ms
# reference, so about 2.6 s unloaded), ``embed`` of gl_12 into
# ``12 12 12`` in 0.90 s,
# ``witness`` with a dense 12x12 pair (entries in [-3, 3]) in 0.48 s (a
# 144x1 pair in 0.63 s) and ``contract 40 1`` in 2.0 s.  In process, past
# the limits: ``classify 7 7`` 0.02-0.04 s, ``heisenberg 18`` 0.63 s,
# ``constants 14 14`` 7.6 s, ``center 14 14`` 0.43 s, a dense 13x13
# ``witness`` pair 0.60 s and ``contract 48 1`` 5.7 s.
# ``semidirect r s`` is bounded by r + s: ``15 0`` takes 1.1 s and ``8 7``
# 0.71 s (``16 0`` takes 1.5 s and ``8 8`` 1.0 s in process).
# ``verify-all`` takes 0.29 s at ``--max 5``, 0.40 s at 6, 0.74 s at 7
# and 1.20 s at 8 as processes, best of 5, on a loaded host (the kernel at
# 3.7-6.2 ms); ``run_all(8, 0)`` takes 1.1-1.5 s in process there, led by
# ``lie_axioms`` (0.32 s) and ``iso_soundness`` (0.26 s), with the shared
# signature table at 0.13 s and ``deformation_coboundary`` at 0.11 s.  ``verify-all``
# also rejects ``--max`` below 2, where its checks would cover no cases.
MAX_CLASSIFY_DIM = 36  # n * m, the dimension of Mat(n x m)
MAX_PARAM_DIM = 144  # n * m, for ``constants``, ``center``, ``embed`` and ``witness``
MAX_HEISENBERG_N = 16
MAX_DEFORM_N = 8  # n of Mat(n x n), for both ``deform`` and ``coboundary``
MAX_CONTRACT_N = 40
MAX_SEMIDIRECT_SIZE = 15  # r + s, the size of the square matrices modelled
MAX_VERIFY_SIZE = 8
# argparse may read a value that starts with "-" as an option; the "=" form is never misread.
_J_HELP = 'parameter matrix, e.g. "1 0; 0 0"; write a value that starts with "-" as --%(dest)s=-3/4'


def _check_limit(what: str, value: int, limit: int) -> None:
    if value > limit:
        raise ValueError(f"{what} = {value} exceeds the limit of {limit}")


def _json_arg(text: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _json_matrix(obj, source: str) -> Matrix:
    entries = obj.get("entries") if isinstance(obj, dict) else None
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise ValueError(f'{source}: a JSON matrix must be an object whose "entries" is a list of rows')
    return matrix_from_json(obj)


def _matrix_arg(text: str, option: str) -> Matrix:
    source = option
    if text.startswith("@"):
        source = text[1:]
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read().strip()
    if text.lstrip().startswith("{"):
        return _json_matrix(_json_arg(text), source)
    return parse_matrix(text)


def _subspace_json(space) -> list:
    return [matrix_to_json(b) for b in space.basis]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (inputs, result, verdicts, seed)
# ---------------------------------------------------------------------------

def _cmd_constants(args):
    _check_limit("n * m", args.n * args.m, MAX_PARAM_DIM)
    j = _matrix_arg(args.j, "--j")
    L = LieAlgebra.from_param(BracketParam(args.n, args.m, j))
    verdict = jacobi_check(L)
    inputs = {"n": args.n, "m": args.m, "j": str(j)}
    result = {"constants": L.constants.to_json()}
    verdicts = [{"name": "jacobi", "pass": verdict.passed, "witness": verdict.witness}]
    return inputs, result, verdicts, None


def _cmd_center(args):
    _check_limit("n * m", args.n * args.m, MAX_PARAM_DIM)
    j = _matrix_arg(args.j, "--j")
    ctr, r, expected = center_law(BracketParam(args.n, args.m, j))
    inputs = {"n": args.n, "m": args.m, "j": str(j)}
    result = {"center_dim": ctr.dim, "rank": r, "basis": _subspace_json(ctr)}
    verdicts = [
        {"name": "center_dim_law", "pass": ctr.dim == expected, "expected": expected, "got": ctr.dim}
    ]
    return inputs, result, verdicts, None


def _cmd_classify(args):
    _check_limit("n * m", args.n * args.m, MAX_CLASSIFY_DIM)
    report = classify_rank_family(args.n, args.m, seed=args.seed)
    verdicts = [
        {
            "name": "witnesses_verified",
            "pass": all(e["witness_verified"] for e in report["entries"]),
        }
    ]
    if not report["degenerate"]:
        verdicts.append(
            {"name": "signatures_pairwise_distinct", "pass": report["pairwise_distinct"]}
        )
    inputs = {"n": args.n, "m": args.m}
    return inputs, report, verdicts, args.seed


def _cmd_witness(args):
    j1 = _matrix_arg(args.j1, "--j1")
    j2 = _matrix_arg(args.j2, "--j2")
    _check_limit("n * m", max(j1.rows * j1.cols, j2.rows * j2.cols), MAX_PARAM_DIM)
    inputs = {"j1": str(j1), "j2": str(j2)}
    try:
        f, verdict = verified_witness(j1, j2)
    except ClassificationError as exc:
        result = {"ranks": [exc.rank1, exc.rank2]}
        verdicts = [
            {"name": "equivalent", "pass": False, "ranks": [exc.rank1, exc.rank2]}
        ]
        return inputs, result, verdicts, None
    result = {
        "rank": rank(j1),
        "map": matrix_to_json(f),
    }
    verdicts = [
        {"name": "equivalent", "pass": True},
        {"name": "hom", "pass": verdict.is_hom, "witness": verdict.witness},
        {"name": "bijective", "pass": verdict.injective},
    ]
    return inputs, result, verdicts, None


def _cmd_heisenberg(args):
    _check_limit("n", args.n, MAX_HEISENBERG_N)
    inputs = {"n": args.n}
    try:
        model = heisenberg_realization(args.n)  # bracket relations verified here
    except HypothesisError:
        raise  # a bad size is a usage error, not a failed verification
    except ValueError as exc:
        return inputs, {"error": str(exc)}, [{"name": "generator_relations", "pass": False}], None
    checks = heisenberg_verdicts(model)
    labels = model.abstract().labels
    result = {
        "ambient_size": args.n + 2,
        "parameter": matrix_to_json(model.ambient.j),
        "generators": {lbl: matrix_to_json(g) for lbl, g in zip(labels, model.generators())},
        "lcs_dims": checks["lcs_dims"]["got"],
    }
    verdicts = [{"name": "generator_relations", "pass": True}]
    verdicts += [{"name": name, **verdict} for name, verdict in checks.items()]
    return inputs, result, verdicts, None


def _cmd_semidirect(args):
    _check_limit("r + s", args.r + args.s, MAX_SEMIDIRECT_SIZE)
    inputs = {"r": args.r, "s": args.s}
    try:
        model = semidirect_S(args.r, args.s)  # the map is verified at construction
    except HypothesisError:
        raise  # bad sizes are a usage error, not a failed verification
    except ValueError as exc:
        return inputs, {"error": str(exc)}, [{"name": "phi_bijective_hom", "pass": False}], None
    result = {
        "dim": model.dim,
        "labels": list(model.labels),
        "constants": model.constants.to_json(),
        "phi": matrix_to_json(model.phi),
    }
    verdicts = [{"name": "phi_bijective_hom", "pass": True}]
    return inputs, result, verdicts, None


def _cmd_embed(args):
    _check_limit("n * m", args.n * args.m, MAX_PARAM_DIM)
    with open(args.rep, "r", encoding="utf-8") as fh:
        payload = _json_arg(fh.read())
    if not isinstance(payload, dict):
        raise ValueError(f"{args.rep}: a representation file must hold a JSON object")
    constants = StructureConstants.from_json(payload)
    labels = tuple(payload["labels"]) if "labels" in payload else None
    src = LieAlgebra(payload["dim"], constants, labels)
    images = tuple(_json_matrix(obj, args.rep) for obj in payload["images"])
    if not images:
        raise ValueError("representation file lists no images")
    cand = RepCandidate(src, images, images[0].rows)
    span, verdict = ado_embed(cand, args.n, args.m, args.q)
    inputs = {"rep": args.rep, "n": args.n, "m": args.m, "q": args.q}
    result = {
        "source_dim": src.dim,
        "matrix_size": cand.target_dim,
        "padded_basis": _subspace_json(span),
        "span_dim": span.dim,
    }
    verdicts = [
        {"name": "bracket_preserving", "pass": verdict.is_hom, "witness": verdict.witness},
        {"name": "injective", "pass": verdict.injective},
    ]
    return inputs, result, verdicts, None


def _cmd_contract(args):
    _check_limit("n", args.n, MAX_CONTRACT_N)
    inputs = {"n": args.n, "r": args.r}
    eps = contraction_constants(args.n, args.r)
    try:
        limit = contraction_limit(eps)
    except ContractionDivergenceError as exc:
        verdicts = [
            {"name": "no_negative_exponents", "pass": False, "triple": list(exc.triple)}
        ]
        return inputs, {"eps_constants": eps.to_json()}, verdicts, None
    expected = structure_constants(BracketParam.normal(args.n, args.n, args.r))
    result = {"eps_constants": eps.to_json(), "limit": limit.to_json()}
    verdicts = [
        {"name": "no_negative_exponents", "pass": True},
        {"name": "limit_matches_normal_form", "pass": limit == expected},
    ]
    return inputs, result, verdicts, None


def _cmd_deform(args):
    _check_limit("n", args.n, MAX_DEFORM_N)
    t = to_scalar(args.t)
    n, r = args.n, args.r
    jr = rank_normal_form(n, n, r)
    param_t = deformation_bracket(n, jr, t)
    verdicts = [{"name": f"{kind}_identity", "pass": ok} for kind, ok in path_identities(n, r, t).items()]
    sig_comm = invariant_signature(LieAlgebra.from_param(BracketParam.commutator(n)))
    sig_end = invariant_signature(LieAlgebra.from_param(BracketParam.normal(n, n, r)))
    sigs = {0: sig_comm, 1: sig_end}  # one signature per distinct time

    def _sig_at(tv):
        if tv not in sigs:
            sigs[tv] = invariant_signature(LieAlgebra.from_param(deformation_bracket(n, jr, tv)))
        return sigs[tv]

    sig = _sig_at(t)
    reference = sig_comm if t != 1 else sig_end
    verdicts.append(
        {
            "name": "signature_matches_" + ("commutator_algebra" if t != 1 else "normal_form"),
            "pass": sig == reference,
        }
    )
    path_table = []
    path_ok = True
    for tv in PATH_TIMES:
        sig_tv = _sig_at(tv)
        expected = sig_comm if tv != 1 else sig_end
        row_ok = sig_tv == expected
        path_ok = path_ok and row_ok
        path_table.append(
            {
                "t": scalar_str(tv),
                "signature": sig_tv.to_json(),
                "reference": "commutator_algebra" if tv != 1 else "normal_form",
                "pass": row_ok,
            }
        )
    verdicts.append({"name": "signature_along_path", "pass": path_ok})
    inputs = {"n": n, "r": r, "t": scalar_str(t)}
    result = {
        "parameter": matrix_to_json(param_t.j),
        "signature": sig.to_json(),
        "path_table": path_table,
    }
    return inputs, result, verdicts, None


def _cmd_coboundary(args):
    _check_limit("n", args.n, MAX_DEFORM_N)
    j = _matrix_arg(args.j, "--j")
    verdict = ce_coboundary_check(j, args.n)
    inputs = {"n": args.n, "j": str(j)}
    result = {"identity": "[A,alpha(B)] - [B,alpha(A)] - alpha([A,B]) = [A,B]_j"}
    verdicts = [{"name": "coboundary_identity", "pass": verdict.passed, "witness": verdict.witness}]
    return inputs, result, verdicts, None


def _cmd_catalog(args):
    entry = example_catalog(args.name)
    inputs = {"name": args.name}
    result = entry.to_json()
    verdicts = [
        {
            "name": "claims_accounted",
            "pass": all(c.matches or c.note for c in entry.claims),
        }
    ]
    return inputs, result, verdicts, None


def _cmd_verify_all(args):
    _check_limit("--max", args.max, MAX_VERIFY_SIZE)
    report = run_all(max_size=args.max, seed=args.seed)  # rejects --max below 2
    verdicts = [{"name": c["name"], "pass": c["pass"]} for c in report["checks"]]
    inputs = {"max": args.max}
    return inputs, report, verdicts, args.seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liebrackets",
        description="Exact computations with the bracket family A*J*B - B*J*A on matrix spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="structure constants of a bracket parameter")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--j", required=True, help=_J_HELP)
    p.set_defaults(handler=_cmd_constants)

    p = sub.add_parser("center", help="center of the bracket algebra")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--j", required=True, help=_J_HELP)
    p.set_defaults(handler=_cmd_center)

    p = sub.add_parser("classify", help="rank classification report for a shape")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("witness", help="isomorphism witness between two parameters")
    p.add_argument("--j1", required=True, help=_J_HELP)
    p.add_argument("--j2", required=True, help=_J_HELP)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("heisenberg", help="Heisenberg realization in size n+2")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_heisenberg)

    p = sub.add_parser("semidirect", help="semidirect model S(V1, V2)")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.set_defaults(handler=_cmd_semidirect)

    p = sub.add_parser("embed", help="pad a commutator representation into Mat(n x m)")
    p.add_argument("--rep", required=True, help="JSON file with dim, brackets, images")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("contract", help="epsilon-contraction onto the rank-r bracket")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.set_defaults(handler=_cmd_contract)

    p = sub.add_parser("deform", help="the deformation path at a rational time")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--t", required=True, help='rational time in [0, 1], e.g. "1/3"')
    p.set_defaults(handler=_cmd_deform)

    p = sub.add_parser("coboundary", help="check the 2-coboundary identity for j")
    p.add_argument("n", type=int)
    p.add_argument("--j", required=True, help=_J_HELP)
    p.set_defaults(handler=_cmd_coboundary)

    p = sub.add_parser("catalog", help="worked example by name")
    p.add_argument("name", choices=CATALOG_NAMES)
    p.set_defaults(handler=_cmd_catalog)

    p = sub.add_parser("verify-all", help="run the complete verification suite")
    p.add_argument("--max", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            if value == []:  # CPython 3.11 argparse stores "--opt=--" as [] and calls no type=
                raise ValueError(f"--{name}: '--' is not a value")
        inputs, result, verdicts, seed = args.handler(args)
    except (ShapeError, ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc!r}" if isinstance(exc, KeyError) else f"error: {exc}", file=sys.stderr)
        print(f"run 'liebrackets {args.command} --help' for usage", file=sys.stderr)
        return 2
    report = {
        "command": args.command,
        "inputs": inputs,
        "result": result,
        "verdicts": verdicts,
        "seed": seed,
    }
    print(json.dumps(report, indent=2))
    passed = sum(1 for v in verdicts if v["pass"])
    for v in verdicts:
        status = "PASS" if v["pass"] else "FAIL"
        print(f"[{status}] {v['name']}", file=sys.stderr)
    print(f"{args.command}: {passed}/{len(verdicts)} verdicts passed", file=sys.stderr)
    return 0 if passed == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
