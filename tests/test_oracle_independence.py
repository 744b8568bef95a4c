"""The brute-force oracle and the analysis never import one another.

The oracle is ground truth for the analysis only while neither calls the
other, and while the oracle shares no theory with the certificates it
checks: it uses neither `bimodule.is_simple` nor the polynomial module
behind the irreducible-element and field-commutant certificates.  Checked
with `ast` over the source, imports inside functions included.
"""
import ast
import os

import pytest

PACKAGE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "gradedrings"
)


def _tree(module: str):
    with open(os.path.join(PACKAGE, module + ".py"), encoding="utf-8") as fh:
        return ast.parse(fh.read(), module)


def _package_imports(module: str) -> set:
    """Names of the gradedrings modules that `module` imports anywhere."""
    tree = _tree(module)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("gradedrings.")
            )
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if not name.startswith("gradedrings"):
                    continue
                name = name[len("gradedrings"):].lstrip(".")
            if name:
                out.add(name.split(".")[0])
            else:  # from . import x
                out.update(alias.name for alias in node.names)
    return out


@pytest.mark.parametrize("module,other", [("analysis", "oracle"), ("oracle", "analysis")])
def test_module_does_not_import_the_other(module, other):
    assert other not in _package_imports(module)


def test_the_scan_sees_package_imports():
    assert {"algebra", "bimodule", "linalg"} <= _package_imports("analysis")
    assert {"algebra", "bimodule", "linalg"} <= _package_imports("oracle")


def test_oracle_shares_no_theory_with_the_simplicity_certificates():
    assert "poly" not in _package_imports("oracle")
    names = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(_tree("oracle"))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    imported = {
        alias.name
        for node in ast.walk(_tree("oracle"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "is_simple" not in names | imported


def test_oracle_takes_three_names_from_bimodule():
    # the spin-free tools the sweep and the isomorphism search need, and
    # nothing near the certificates or the samplers (such as
    # _random_combination) that the analysis routes share
    taken = set()
    for node in ast.walk(_tree("oracle")):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "bimodule":
                taken.update(alias.name for alias in node.names)
            taken.update(alias.name for alias in node.names if alias.name == "bimodule")
        elif isinstance(node, ast.Import):
            taken.update("bimodule" for alias in node.names if alias.name.endswith(".bimodule"))
    assert taken == {"BimoduleAction", "envelope", "hom_space"}
