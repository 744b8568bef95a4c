"""No dead definitions and no unused or hidden imports in the package.

Four checks over the source of `gradedrings`, using only `ast`:

- every module-level function or class, and every method of a
  module-level class, whose name starts with `_` is referenced somewhere in
  the package besides its own definition (dunder methods are exempt);
- every other module-level function or class, and every other method, is
  referenced besides its own definition somewhere in the package,
  `scripts/` or `perfbench/`.  Tests do not count: a definition only tests
  call belongs in a test helper such as `tests/references.py`;
- every imported name (except `from __future__`) is used in the module that
  imports it.  `__init__.py` is exempt: its imports are the public API;
- no function imports inside its body, so the module's imports list every
  name it takes from elsewhere, and the check above sees all of them.

A name counts as used when it appears as a `Name`, as the attribute of an
`Attribute`, or as a word of a string annotation such as `-> "Element"`.
So the re-exports of `__init__.py` are not uses: an imported name is
neither.

Names are matched without their class, so a method counts as used when
another class defines a method of the same name that is called, or when
a local variable shares its name.  Methods that only tests called went
unflagged that way: `Field.add` (beside `EchelonBasis.add`),
`EchelonBasis.reduce` (beside `Field.reduce`), `Matrix.scale` (beside
`Field.scale`), `GradedAlgebra.zero` and `GradedSubspace.zero` (beside
`Subspace.zero`), `GradedSubspace.contains` and `support` (beside
`Subspace.contains` and `Element.support`), `Element.is_zero` (beside `Matrix.is_zero`) and `EchelonBasis.pivots` (a
local variable `pivots`).  A trace of which methods run finds such cases.

Dunder methods and single branches are outside what these checks can see:
a definition that is used can still hold a branch that no input reaches.
A line trace finds those: a `sys.settrace` hook that records each
(file, line) of the package that runs under the tests, set against the
lines that the compiled code objects of each module can run.
"""
import ast
import os
import re
from collections import Counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "gradedrings")


def _python_files(directory):
    return sorted(f for f in os.listdir(directory) if f.endswith(".py"))


def _parse(path):
    return ast.parse(open(path, encoding="utf-8").read(), path)


MODULES = _python_files(PACKAGE)
TREES = {name: _parse(os.path.join(PACKAGE, name)) for name in MODULES}
# the Python files outside the package whose code may use its public names
OUTSIDE = [
    os.path.join(ROOT, folder, name)
    for folder in ("scripts", "perfbench")
    for name in _python_files(os.path.join(ROOT, folder))
]


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            ann = node.annotation
        else:
            continue
        if ann is not None:
            yield ann


def _name_uses(tree) -> list:
    """Every use of a name in tree, once per occurrence."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses.append(node.id)
        elif isinstance(node, ast.Attribute):
            uses.append(node.attr)
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                uses.extend(re.findall(r"\w+", node.value))
    return uses


def _used_names(tree) -> set:
    return set(_name_uses(tree))


# module -> [(top-level statement, names it uses)]
STATEMENTS = {
    module: [(node, _used_names(node)) for node in tree.body] for module, tree in TREES.items()
}


def _is_import(node) -> bool:
    return isinstance(node, (ast.Import, ast.ImportFrom))


def _is_definition(node, name=None) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and name in (None, node.name)


def _imports(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


USED_OUTSIDE = set().union(*(_used_names(_parse(path)) for path in OUTSIDE))

DEFINITIONS = sorted(
    (module, node.name)
    for module, tree in TREES.items()
    for node in tree.body
    if _is_definition(node)
)
PRIVATE = [(m, n) for m, n in DEFINITIONS if n.startswith("_")]
PUBLIC = [(m, n) for m, n in DEFINITIONS if not n.startswith("_")]


def _used_in_package(module, name) -> bool:
    return any(
        name in used and not (other == module and _is_definition(node, name))
        for other, statements in STATEMENTS.items()
        for node, used in statements
    )


@pytest.mark.parametrize("module,name", PRIVATE, ids=[f"{m}:{n}" for m, n in PRIVATE])
def test_private_definition_is_referenced(module, name):
    assert _used_in_package(module, name), (
        f"gradedrings/{module}: {name} is defined but never referenced"
    )


@pytest.mark.parametrize("module,name", PUBLIC, ids=[f"{m}:{n}" for m, n in PUBLIC])
def test_public_definition_is_referenced(module, name):
    assert name in USED_OUTSIDE or _used_in_package(module, name), (
        f"gradedrings/{module}: {name} is defined but never referenced"
    )


def _is_dunder(name) -> bool:
    return name.startswith("__") and name.endswith("__")


# (module, class, method node) for the methods of module-level classes
METHOD_NODES = [
    (module, cls.name, item)
    for module, tree in TREES.items()
    for cls in tree.body
    if isinstance(cls, ast.ClassDef)
    for item in cls.body
    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(item.name)
]
PACKAGE_USES = Counter(name for tree in TREES.values() for name in _name_uses(tree))


def _method_used_in_package(node) -> bool:
    """Used in the package more often than within the method's own body."""
    return PACKAGE_USES[node.name] > _name_uses(node).count(node.name)


@pytest.mark.parametrize(
    "node",
    [n for _, _, n in METHOD_NODES if n.name.startswith("_")],
    ids=[f"{m}:{c}.{n.name}" for m, c, n in METHOD_NODES if n.name.startswith("_")],
)
def test_private_method_is_referenced(node):
    assert _method_used_in_package(node), f"method {node.name} is defined but never referenced"


@pytest.mark.parametrize(
    "node",
    [n for _, _, n in METHOD_NODES if not n.name.startswith("_")],
    ids=[f"{m}:{c}.{n.name}" for m, c, n in METHOD_NODES if not n.name.startswith("_")],
)
def test_public_method_is_referenced(node):
    assert node.name in USED_OUTSIDE or _method_used_in_package(node), (
        f"method {node.name} is defined but never referenced"
    )


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__.py"])
def test_every_import_is_used(module):
    used = set().union(*(names for node, names in STATEMENTS[module] if not _is_import(node)))
    unused = [name for name in _imports(TREES[module]) if name not in used]
    assert not unused, f"gradedrings/{module} imports unused names: {unused}"


def _imports_in_bodies(tree) -> list:
    return sorted(
        {
            node.lineno
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if _is_import(node)
        }
    )


@pytest.mark.parametrize("module", MODULES)
def test_no_import_inside_a_function(module):
    lines = _imports_in_bodies(TREES[module])
    assert not lines, f"gradedrings/{module} imports inside a function at lines {lines}"
