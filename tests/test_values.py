"""The value classes keep the contract of the dataclasses they replace.

Eleven classes of the package are plain classes on ``matrices._Value``, so
that importing the package generates no code.  Each is held here to a
``dataclasses.make_dataclass`` oracle built from its old fields, defaults
and ``frozen`` flag: the same ``repr``, equality and hash, the same refusal
to assign or delete a field, the same construction, and the old
``__post_init__`` checks with their messages.
"""

import dataclasses
import subprocess
import sys
from itertools import product

import pytest

from liebrackets.algebra import HomVerdict, LieAlgebra, Verdict
from liebrackets.brackets import BracketParam, StructureConstants
from liebrackets.constructions import (
    BracketClaim,
    CatalogEntry,
    HeisenbergModel,
    ObstructionVerdict,
    RepCandidate,
    SemidirectModel,
    classical_representation,
    example_catalog,
    heisenberg_abstract,
    heisenberg_realization,
    semidirect_S,
)
from liebrackets.matrices import Matrix, RankFactorization, ShapeError, rank_factorization

# class -> (frozen, fields, defaults), as the dataclasses declared them.
OLD = {
    RankFactorization: (True, ("q", "p", "rank"), {}),
    BracketParam: (True, ("n", "m", "j"), {}),
    Verdict: (True, ("passed", "witness"), {"witness": None}),
    HomVerdict: (True, ("is_hom", "injective", "witness"), {"witness": None}),
    LieAlgebra: (False, ("dim", "constants", "labels", "model"), {"labels": None, "model": None}),
    HeisenbergModel: (True, ("n", "ambient", "xs", "ys", "z"), {}),
    RepCandidate: (True, ("src", "images", "target_dim"), {}),
    ObstructionVerdict: (True, ("kind", "detail"), {"detail": None}),
    SemidirectModel: (True, ("r", "s", "constants", "phi", "labels"), {}),
    BracketClaim: (True, ("left", "right", "claimed", "computed", "note"), {"note": ""}),
    CatalogEntry: (True, ("name", "description", "param", "basis", "labels", "algebra", "claims"), {}),
}
# The classes that are mutable, or hold an unhashable field (a LieAlgebra, or
# the StructureConstants of a SemidirectModel): hashing their values fails.
UNHASHABLE = {LieAlgebra, RepCandidate, SemidirectModel, CatalogEntry}


def samples(cls) -> list:
    """Two or more values of ``cls``, built by the package, not all equal.
    Every witness is ``None``, so a hash is refused only for the class's
    fields."""
    j = Matrix([[1, 2], [2, 4], [0, 1]])
    entry = example_catalog("mat2_rank1")
    return {
        RankFactorization: [rank_factorization(j), rank_factorization(Matrix.identity(2))],
        BracketParam: [BracketParam(2, 3, j), BracketParam.commutator(2), BracketParam.normal(2, 2, 1)],
        Verdict: [Verdict(True), Verdict(False)],
        HomVerdict: [HomVerdict(True, False), HomVerdict(True, True), HomVerdict(False, False)],
        LieAlgebra: [heisenberg_abstract(1), LieAlgebra.from_param(BracketParam.commutator(2)), entry.algebra],
        HeisenbergModel: [heisenberg_realization(1), heisenberg_realization(2)],
        RepCandidate: [classical_representation(1), classical_representation(2)],
        ObstructionVerdict: [ObstructionVerdict("faithful"), ObstructionVerdict("not-a-hom")],
        SemidirectModel: [semidirect_S(1, 1), semidirect_S(1, 2)],
        BracketClaim: list(entry.claims),
        CatalogEntry: [entry, example_catalog("affine2_column")],
    }[cls]


def oracle(cls):
    frozen, fields, defaults = OLD[cls]
    spec = [(f, object, dataclasses.field(default=defaults[f])) if f in defaults else (f, object) for f in fields]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=frozen)


def values(value) -> tuple:
    return tuple(getattr(value, f) for f in OLD[type(value)][1])


def outcome(action):
    """The result of ``action()``, or the type and text of what it raised."""
    try:
        return action()
    except (AttributeError, TypeError) as exc:  # a FrozenInstanceError is an AttributeError
        return AttributeError if isinstance(exc, AttributeError) else TypeError, str(exc)


CLASSES = sorted(OLD, key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr_equality_and_hash_are_those_of_the_dataclass(cls):
    old = oracle(cls)
    values_of = [values(v) for v in samples(cls)]
    assert len(set(map(repr, values_of))) > 1, "the samples must differ"
    for args in values_of:
        new, ref = cls(*args), old(*args)
        assert repr(new) == repr(ref)
        assert outcome(lambda: hash(new)) == outcome(lambda: hash(ref))
        # A value of another class, the oracle's own included, is never equal.
        assert new != ref and ref != new
        assert new.__eq__(ref) is NotImplemented
        assert (cls(*args) == type("Sub", (cls,), {})(*args)) is (old(*args) == type("Sub", (old,), {})(*args))
    for a, b in product(values_of, repeat=2):
        assert (cls(*a) == cls(*b)) is (old(*a) == old(*b))
        assert (cls(*a) != cls(*b)) is (old(*a) != old(*b))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_only_the_mutable_classes_and_their_holders_are_unhashable(cls):
    value = samples(cls)[0]
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(value)
    else:
        assert hash(value) == hash(values(value))
        assert len({value, cls(*values(value))}) == 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_are_read_only_unless_the_dataclass_was_mutable(cls):
    frozen, fields, _ = OLD[cls]
    old = oracle(cls)
    first, second = samples(cls)[:2]
    for f in fields:
        new, ref = cls(*values(first)), old(*values(first))
        other = getattr(second, f)
        assert outcome(lambda: setattr(new, f, other)) == outcome(lambda: setattr(ref, f, other))
        assert getattr(new, f) is getattr(ref, f)
        assert outcome(lambda: delattr(new, f)) == outcome(lambda: delattr(ref, f))
        assert (f in vars(new)) is (f in vars(ref))  # deleting a mutable field removes it
        if frozen:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{f}'"):
                setattr(new, f, other)
            with pytest.raises(AttributeError, match=f"cannot delete field '{f}'"):
                delattr(new, f)
    new, ref = cls(*values(first)), old(*values(first))
    assert outcome(lambda: setattr(new, "extra", 1)) == outcome(lambda: setattr(ref, "extra", 1))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_construction_is_positional_keyword_or_by_default(cls):
    _, fields, defaults = OLD[cls]
    old = oracle(cls)
    for args in map(values, samples(cls)):
        keywords = dict(zip(fields, args))
        assert values(cls(*args)) == values(cls(**keywords)) == args
        required = {f: v for f, v in keywords.items() if f not in defaults}
        by_default = cls(**required)
        assert repr(by_default) == repr(old(**required))
        assert all(getattr(by_default, f) == d for f, d in defaults.items())
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(**keywords, extra=None)


def test_the_old_post_init_checks_keep_their_messages():
    j = Matrix([[1, 2], [2, 4], [0, 1]])
    h1 = heisenberg_abstract(1)
    cases = [
        (lambda: BracketParam(0, 3, j), ShapeError, "invalid operand shape 0x3"),
        (lambda: BracketParam(2, 3, Matrix.zeros(2, 3)), ShapeError, "parameter must be 3x2 for operands 2x3, got 2x3"),
        (lambda: LieAlgebra(3, StructureConstants(2, {})), ValueError, "constants dim 2 != algebra dim 3"),
        (lambda: LieAlgebra(2, StructureConstants(2, {}), ("a",)), ValueError, "one label per basis element required"),
        (
            lambda: LieAlgebra(3, StructureConstants(3, {}), None, BracketParam.commutator(2)),
            ShapeError,
            "model space dimension does not match algebra dimension",
        ),
        (lambda: RepCandidate(h1, (Matrix.identity(3),) * 2, 3), ShapeError, "3 basis elements but 2 images"),
        (
            lambda: RepCandidate(h1, (Matrix.identity(3),) * 2 + (Matrix([[1, 0]]),), 3),
            ShapeError,
            "image of shape 1x2, expected square 3",
        ),
        (lambda: ObstructionVerdict("bogus"), ValueError, "unknown verdict kind 'bogus'"),
    ]
    for build, error, message in cases:
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message


def test_importing_the_cli_generates_one_dataclass_only():
    # Structural, not timed: a dataclass decoration generates and compiles
    # its methods at import.  Only InvariantSignature is still one.
    script = (
        "import sys, liebrackets.cli\n"
        "print(sorted(f'{m}.{n}' for m, mod in list(sys.modules.items()) if m.startswith('liebrackets')"
        " for n, c in vars(mod).items() if isinstance(c, type) and c.__module__ == m"
        " and '__dataclass_fields__' in vars(c)))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True).stdout
    assert out.strip() == "['liebrackets.algebra.InvariantSignature']"
