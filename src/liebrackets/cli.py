"""Command-line front end: every computation as a subcommand with JSON output.

One JSON report goes to stdout (written once, at completion); a short
human-readable summary goes to stderr.  Exit codes: 0 all verdicts pass,
1 a mathematical check failed, 2 usage error.

Matrices on the command line use the text format ``"1 0; 0 1/2"``; pass
``@path`` to read a matrix (text or JSON form) from a file.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from pathlib import Path

from .algebra import LieAlgebra, Verdict, invariant_signature, jacobi_check
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
from .matrices import Matrix, matrix_from_json, matrix_to_json, parse_matrix, rank, rank_normal_form
from .scalars import scalar_str, to_scalar
from .verify import _holds_for_every_parameter, _model_disagreements, run_all

# Largest inputs the subcommands accept, so that none runs without bound.  The
# slowest accepted case of each, timed as a process (best of 3; 2-core x86-64,
# CPython 3.11.7, the calibration kernel of ``perfbench/calibration.py`` at
# 2.7-3.6 ms against its 3.5 ms reference; a dense J has entries +-1..+-3, a
# dense rational J entries p/q with |p| <= 3 and q <= 4):
# - MAX_CLASSIFY_DIM: ``classify 6 6`` 0.11 s (``36 1`` 0.10 s, ``12 3`` 0.11 s).
# - MAX_PARAM_DIM: ``constants 12 12`` 0.32 s (dense integer J), 0.36 s (dense rational J);
#   ``center 12 12`` 0.21 s (dense integer J), 0.24 s (dense rational J); ``witness`` 0.12 s
#   (two dense rational 12 x 12 J); ``embed 12 12 12`` 0.28 s (a file of 144 diagonal 12 x 12
#   images, the most its source "dim" may be).
# - MAX_HEISENBERG_N: ``heisenberg 16`` 0.30 s.
# - MAX_DEFORM_N: ``deform 8 1 --t 1/3`` 0.12 s, ``coboundary 8`` with a dense J 0.12 s.
# - MAX_CONTRACT_N: ``contract 40 1`` 1.76 s, most of it the indented JSON writer on its 18 MB report.
# - MAX_SEMIDIRECT_SIZE: ``semidirect 8 7`` 0.20 s (``15 0`` 0.22 s).
# - MAX_VERIFY_SIZE: ``verify-all --max 8`` 0.64 s.
# No case passes 3 s.  ``verify-all`` also rejects ``--max`` below 2, where its
# checks would cover no cases.
MAX_CLASSIFY_DIM = 36  # n * m, the dimension of Mat(n x m)
MAX_PARAM_DIM = 144  # n * m, for ``constants``, ``center``, ``embed`` and ``witness``; embed's "dim" too
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


@contextlib.contextmanager
def _reading(source: str):
    """Name ``source`` in every error raised while it is read, the one rule
    of every CLI input: a ``KeyError`` is a missing key, a ``RecursionError``
    JSON nested too deeply, and a ``TypeError`` or ``ValueError`` (a
    ``ShapeError``, ``JSONDecodeError`` or ``UnicodeDecodeError`` too) keeps
    its message.  An ``OSError``, a file that cannot be opened, passes
    unchanged."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f'{source}: missing key "{exc.args[0]}"') from None
    except RecursionError:
        raise ValueError(f"{source}: JSON input is nested too deeply") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{source}: {exc}") from None


def _unique_keys(pairs: list) -> dict:
    """The object of JSON ``pairs``, refused if it names a key twice: a
    repeated key has two readings, and ``json.loads`` would keep the last."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f'repeated key "{key}"')
        obj[key] = value
    return obj


def _json_arg(text: str):
    return json.loads(text, object_pairs_hook=_unique_keys)


def _matrix_arg(text: str, source: str) -> Matrix:
    """The matrix of the value ``text`` of the option ``source``, in text or
    JSON form.  An ``@path`` value is read from its file, which then names
    the errors in place of the option."""
    if text.startswith("@"):
        source = text[1:]
        with _reading(source):
            text = Path(source).read_text(encoding="utf-8").strip()
    with _reading(source):
        return matrix_from_json(_json_arg(text)) if text.lstrip().startswith("{") else parse_matrix(text)


def _subspace_json(space) -> list:
    return [matrix_to_json(b) for b in space.basis]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (inputs, result, verdicts, seed)
# ---------------------------------------------------------------------------

def _cmd_constants(args):
    _check_limit("n * m", args.n * args.m, MAX_PARAM_DIM)
    j = _matrix_arg(args.j, "--j")
    L = LieAlgebra.from_param(BracketParam(args.n, args.m, j))
    # The proof of ``verify.check_lie_axioms``: the J-bracket satisfies Jacobi at every
    # J and shape (block-subalgebra lemma), so a table equal to it does.  Only a table
    # that is not goes to the sweep, whose witness names a failing triple.
    proved = _holds_for_every_parameter(3) and next(_model_disagreements(L.model, L.constants.table), None) is None
    verdict = Verdict(True) if proved else jacobi_check(L)
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
    with _reading(args.rep):
        payload = _json_arg(Path(args.rep).read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("a representation file must hold a JSON object")
        # Before any constants or images are built; from_json refuses a "dim" of any other type.
        if type(payload.get("dim")) is int:
            _check_limit("dim", payload["dim"], MAX_PARAM_DIM)
        constants = StructureConstants.from_json(payload)
        objs = payload["images"]
        labels = payload.get("labels")
        if labels is not None and (type(labels) is not list or len(labels) != constants.dim):
            raise ValueError(f'"labels" must list one label for each of the {constants.dim} basis elements')
        if type(objs) is not list or not objs:
            raise ValueError('"images" must be a nonempty list of matrices')
        src = LieAlgebra(constants.dim, constants, None if labels is None else tuple(labels))
        images = tuple(map(matrix_from_json, objs))
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
    with _reading("--t"):
        t = to_scalar(args.t)
    n, r = args.n, args.r
    jr = rank_normal_form(n, n, r)
    param_t = deformation_bracket(n, jr, t)
    verdicts = [{"name": f"{kind}_identity", "pass": ok} for kind, ok in path_identities(n, r, t).items()]

    @functools.cache  # one signature per parameter: a correct path's endpoints are their references
    def signature(param):
        return invariant_signature(LieAlgebra.from_param(param))

    def judged(tv):  # the reference's name, the signature at tv, and whether it is the reference's
        if tv != 1:
            name, ref = "commutator_algebra", BracketParam.commutator(n)
        else:
            name, ref = "normal_form", BracketParam.normal(n, n, r)
        sig = signature(deformation_bracket(n, jr, tv))  # the path point itself, never its reference
        return name, sig, sig == signature(ref)

    name, sig_t, ok = judged(t)
    verdicts.append({"name": "signature_matches_" + name, "pass": ok})
    path_table = []
    for tv in PATH_TIMES:
        label, sig, ok = judged(tv)
        path_table.append({"t": scalar_str(tv), "signature": sig.to_json(), "reference": label, "pass": ok})
    verdicts.append({"name": "signature_along_path", "pass": all(row["pass"] for row in path_table)})
    inputs = {"n": n, "r": r, "t": scalar_str(t)}
    result = {
        "parameter": matrix_to_json(param_t.j),
        "signature": sig_t.to_json(),
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


_N, _M = ("n", {"type": int}), ("m", {"type": int})
_J = ("--j", {"required": True, "help": _J_HELP})
# Each subcommand: its help line, its handler, and its arguments in order.
_COMMANDS = {
    "constants": ("structure constants of a bracket parameter", _cmd_constants, [_N, _M, _J]),
    "center": ("center of the bracket algebra", _cmd_center, [_N, _M, _J]),
    "classify": (
        "rank classification report for a shape",
        _cmd_classify,
        [_N, _M, ("--seed", {"type": int, "default": 0})],
    ),
    "witness": (
        "isomorphism witness between two parameters",
        _cmd_witness,
        [("--j1", {"required": True, "help": _J_HELP}), ("--j2", {"required": True, "help": _J_HELP})],
    ),
    "heisenberg": ("Heisenberg realization in size n+2", _cmd_heisenberg, [_N]),
    "semidirect": ("semidirect model S(V1, V2)", _cmd_semidirect, [("r", {"type": int}), ("s", {"type": int})]),
    "embed": (
        "pad a commutator representation into Mat(n x m)",
        _cmd_embed,
        [("--rep", {"required": True, "help": "JSON file with dim, brackets, images"}), _N, _M, ("q", {"type": int})],
    ),
    "contract": ("epsilon-contraction onto the rank-r bracket", _cmd_contract, [_N, ("r", {"type": int})]),
    "deform": (
        "the deformation path at a rational time",
        _cmd_deform,
        [_N, ("r", {"type": int}), ("--t", {"required": True, "help": 'rational time in [0, 1], e.g. "1/3"'})],
    ),
    "coboundary": ("check the 2-coboundary identity for j", _cmd_coboundary, [_N, _J]),
    "catalog": ("worked example by name", _cmd_catalog, [("name", {"choices": CATALOG_NAMES})]),
    "verify-all": (
        "run the complete verification suite",
        _cmd_verify_all,
        [("--max", {"type": int, "default": 4}), ("--seed", {"type": int, "default": 0})],
    ),
}


def _build_parser(command=None) -> argparse.ArgumentParser:
    """The top parser with the parser of every subcommand, or of ``command``
    alone, for an argv whose first argument is ``command``.

    The single build prints what the full one prints.  Its subparsers action
    can raise no message of its own, since its one argument is a known
    choice; its usage still shows, in the top parser's unrecognized-arguments
    error, so ``metavar`` writes there the choice list of the full build."""
    parser = argparse.ArgumentParser(
        prog="liebrackets",
        description="Exact computations with the bracket family A*J*B - B*J*A on matrix spaces.",
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, handler, arguments) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            for flag, options in arguments:
                p.add_argument(flag, **options)
            p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        for name, value in vars(args).items():
            if value == []:  # CPython 3.11 argparse stores "--opt=--" as [] and calls no type=
                raise ValueError(f"--{name}: '--' is not a value")
        inputs, result, verdicts, seed = args.handler(args)
    except (ValueError, TypeError, KeyError, OSError) as exc:
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
