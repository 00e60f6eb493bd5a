"""Static checks on the package source, by the standard library's ast.

Every name a module of ``src/fcckit`` imports is used in that module
(``__init__.py`` re-exports and is exempt), and every module-level
``_private`` function or class is referenced somewhere in the package, so
a deletion cannot leave an unused import or an orphaned helper behind.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fcckit"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def used_names(tree, attributes=False):
    """Every identifier read as a name in the tree, and as an attribute
    (``module._helper``) when asked."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif attributes and isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported_names(tree):
    """(bound name, line) for every import binding in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def test_package_found():
    assert any(path.name == "fcc.py" for path in MODULES)


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_used(path):
    tree = parse(path)
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_every_private_helper_is_referenced():
    trees = {path.name: parse(path) for path in MODULES}
    referenced = set()
    for tree in trees.values():
        referenced |= used_names(tree, attributes=True)
        referenced |= {name for name, _ in imported_names(tree)}
    orphans = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert not orphans, f"module-level private helpers nobody references: {orphans}"
