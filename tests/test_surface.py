"""The package exports only what the package itself uses.

A name that ``liebrackets/__init__.py`` exports must be referenced somewhere
in ``src/liebrackets`` outside ``__init__.py`` and outside its own
definition.  The one exception is a name that the benchmark tracer wraps by
name (``perfbench/tracer.py``, ``FUNCTIONS`` or ``METHODS``): deleting it
needs a benchmark change first, so the failure message lists those names as
well, as the deletion list for that change.

Likewise a public method of an exported class must be read as an attribute
(``x.name``) somewhere in ``src/liebrackets`` outside its own definition,
unless a file under ``perfbench/`` reads it, which the failure message
lists the same way.

Nor does the package keep what it never reads: every name that a module
other than ``__init__.py`` imports is read in that module, and every name
that a function assigns is read in that function, a function nested in it
included; an unpacking target that is not read is written ``_``.  Every
private top-level function and class is read somewhere in the package
outside its own definition, so a helper that a change leaves without a
caller fails here.
"""

import ast
from pathlib import Path

import liebrackets

SRC = Path(liebrackets.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def exports() -> dict:
    """``{name: defining module}`` for each name ``__init__.py`` imports."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def package_sources() -> list:
    """The text of every package module but ``__init__.py``."""
    return [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]


def referenced(names: set, sources: list) -> set:
    """The ``names`` that one of the module ``sources`` uses: as a loaded
    name it imports or defines, or as an attribute of a package module it
    imports, outside the top-level definition of that name.  Strings,
    docstrings among them, are not references."""
    found = set()
    for source in sources:
        tree = ast.parse(source)
        bound, modules = set(), set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    (bound if node.module else modules).add(alias.asname or alias.name)
            elif isinstance(node, DEFINITIONS):
                bound.add(node.name)
        for top in tree.body:
            owner = top.name if isinstance(top, DEFINITIONS) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in bound:
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                    name = node.attr
                else:
                    continue
                if name in names and name != owner:
                    found.add(name)
    return found


def tracer_names() -> set:
    """The package names that ``perfbench/tracer.py`` wraps: the last part
    of each ``FUNCTIONS`` entry and the class and attribute of each
    ``METHODS`` entry."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    values = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("FUNCTIONS", "METHODS")
    }
    names = {entry.rsplit(".", 1)[1] for entry in values["FUNCTIONS"]}
    return names | {part for _, cls, attr in values["METHODS"].values() for part in (cls, attr)}


def test_every_export_is_used_by_the_package_or_kept_by_the_tracer():
    exported = exports()
    assert exported and set(exported.values()) <= {path.stem for path in SRC.glob("*.py")}
    unused = set(exported) - referenced(set(exported), package_sources())
    kept = tracer_names()
    assert sorted(unused - kept) == [], (
        f"exported but used nowhere in src/: {sorted(unused - kept)}; "
        f"kept only by perfbench/tracer.py: {sorted(unused & kept)}"
    )


def public_methods() -> dict:
    """``{"Class.method": definition}`` for each method, property included,
    whose name has no leading underscore, of each class that ``__init__.py``
    exports."""
    exported = exports()
    methods = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and exported.get(node.name) == path.stem:
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                        methods[f"{node.name}.{item.name}"] = item
    return methods


def attribute_reads(trees: list) -> list:
    """Every ``x.name`` in the parsed ``trees``, as ``(name, node)``."""
    return [(node.attr, node) for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)]


def test_every_public_method_of_an_export_is_read_by_the_package_or_the_benchmark():
    methods = public_methods()
    assert "LieAlgebra.full_subspace" in methods and "Matrix._raw" not in methods
    reads = attribute_reads([ast.parse(source) for source in package_sources()])
    unused = set()
    for key, definition in methods.items():
        name, inside = key.split(".")[1], set(map(id, ast.walk(definition)))
        if not any(attr == name and id(node) not in inside for attr, node in reads):
            unused.add(key)
    benchmark = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PERFBENCH.rglob("*.py"))]
    perfbench = {attr for attr, _ in attribute_reads(benchmark)}
    kept = {key for key in unused if key.split(".")[1] in perfbench}
    assert sorted(unused - kept) == [], (
        f"public methods read nowhere in src/: {sorted(unused - kept)}; "
        f"kept only by a read in perfbench/: {sorted(kept)}"
    )


def test_only_code_outside_a_definition_counts_as_a_reference():
    # A docstring or comment mention, a call from the name's own body and an
    # unused import are not references; a call, an annotation and an
    # attribute of an imported package module are.
    sources = [
        '''
from . import matrices
from .algebra import called, imported_only, annotated


def recursive(n):
    """Calls imported_only() in prose only."""  # and recursive() in a comment
    return recursive(n - 1) if n else called(n)


def user(x: annotated):
    return matrices.through_module(x)
''',
    ]
    names = {"called", "imported_only", "annotated", "recursive", "through_module", "missing"}
    assert referenced(names, sources) == {"called", "annotated", "through_module"}


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def loaded(tree) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unread(source: str, module: bool = True) -> list:
    """The bindings of ``source`` that it never reads: as ``"import name"``
    for an imported name (unless ``module`` is false) and as
    ``"function: name"`` for a name a function assigns or catches an
    exception as, ``_`` and global or nonlocal names aside.  A function's
    bindings are its own, not those of the functions or classes nested in
    it; its reads are every read in its body."""
    tree = ast.parse(source)
    found = []
    if module:
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        found += [f"import {name}" for name in sorted(imported - loaded(tree))]
    for function in ast.walk(tree):
        if not isinstance(function, SCOPES):
            continue
        declared = {name for node in ast.walk(function) if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names}
        assigned, stack = set(), list(function.body) if isinstance(function.body, list) else [function.body]
        while stack:
            node = stack.pop()
            if isinstance(node, SCOPES + (ast.ClassDef,)):
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assigned.add(node.id)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                assigned.add(node.name)
            stack.extend(ast.iter_child_nodes(node))
        owner = getattr(function, "name", "<lambda>")
        found += [f"{owner}: {name}" for name in sorted(assigned - loaded(function) - declared - {"_"})]
    return found


def test_no_module_keeps_an_unread_import_or_assignment():
    found = {
        path.name: unread(path.read_text(encoding="utf-8"), module=path.name != "__init__.py")
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: names for name, names in found.items() if names} == {}


def test_unread_names_an_unread_import_assignment_and_unpacking_target():
    # An augmented assignment is no read; a nonlocal name, ``_``, a closure's
    # read and a comprehension's read are.
    source = '''
from __future__ import annotations
import os
from .matrices import Matrix, rref


def f(m: Matrix):
    reduced, pivots, _ = rref(m)
    half, total, calls = 1, 0, 0
    for k in pivots:
        total += k
    try:
        pass
    except ValueError as exc:
        pass

    def inner():
        nonlocal calls
        calls += 1
        return pivots

    return inner, [w for w in pivots if w]
'''
    assert unread(source) == ["import os", "f: exc", "f: half", "f: reduced", "f: total"]


def private_definitions(sources: list) -> set:
    """The names of the private top-level functions and classes of the
    module ``sources``."""
    return {
        node.name
        for source in sources
        for node in ast.parse(source).body
        if isinstance(node, DEFINITIONS) and node.name.startswith("_")
    }


def test_every_private_definition_is_read_by_the_package():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    names = private_definitions(sources)
    assert {"_echelon", "_Value"} <= names
    assert sorted(names - referenced(names, sources)) == []


def test_a_private_definition_read_only_in_its_own_body_or_in_prose_is_unread():
    # A recursive call and a docstring mention are no reads; a call from
    # another definition, an import into another module and an attribute of
    # an imported package module are.
    sources = [
        '''
def _recursive(n):
    """Calls _Documented() in prose only."""
    return _recursive(n - 1) if n else _called(n)


def _called(n):
    return n


class _Documented:
    pass


def _imported():
    pass


def _through_module():
    pass
''',
        '''
from . import first
from .first import _imported


def user():
    return _imported(), first._through_module()
''',
    ]
    names = private_definitions(sources)
    assert sorted(names - referenced(names, sources)) == ["_Documented", "_recursive"]
