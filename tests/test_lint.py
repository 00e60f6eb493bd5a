"""Static checks on the package source, by the standard library's ast.

Every name a module of ``src/fcckit`` imports is used in that module
(``__init__.py`` re-exports and is exempt), every module-level
``_private`` function or class is referenced somewhere in the package,
every exception class but ``FccError`` is referenced outside
``errors.py``, and no module imports a ``_private`` name from another
fcckit module.  So a deletion cannot leave an unused import, an orphaned
helper or a dead error class behind, and a helper two modules share is
public.  ``__init__.py`` imports exactly the names its ``__all__``
lists, and every function among them is called by the package, a
script or the benchmark from outside the module that defines it; and
every public module-level function or class is read by the package, a
script or the benchmark outside its own definition.  So the public API
holds nothing only tests read.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fcckit"
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


def test_no_private_name_is_imported_from_another_module():
    # a helper two modules share carries a public name in the module that
    # owns it
    crossings = [
        f"{path.name}:{node.lineno} imports {alias.name} from {node.module or '.'}"
        for path in MODULES
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "fcckit")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not crossings, f"private names imported across modules: {crossings}"


def test_every_error_class_is_referenced_elsewhere():
    trees = {path.name: parse(path) for path in MODULES}
    elsewhere = set()
    for module, tree in trees.items():
        if module != "errors.py":
            elsewhere |= used_names(tree, attributes=True)
    classes = [node.name for node in trees["errors.py"].body if isinstance(node, ast.ClassDef)]
    dead = [name for name in classes if name != "FccError" and name not in elsewhere]
    assert not dead, f"error classes no other module references: {dead}"


def exported_names(tree):
    """The literal ``__all__`` list of ``__init__.py``."""
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
    )


def called_names(tree):
    """Every name called in the tree, as ``name(...)`` or ``obj.name(...)``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
    return names


def test_init_imports_exactly_all():
    tree = parse(PACKAGE / "__init__.py")
    listed = exported_names(tree)
    imported = sorted(name for name, _ in imported_names(tree))
    assert imported == sorted(listed), (
        f"imported but not in __all__: {sorted(set(imported) - set(listed))}; "
        f"in __all__ but not imported: {sorted(set(listed) - set(imported))}"
    )


def test_every_exported_function_is_called_outside_its_module():
    # classes are exempt: callers read result types by attribute
    init = parse(PACKAGE / "__init__.py")
    home = {
        alias.asname or alias.name: PACKAGE / f"{node.module}.py"
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    sources = [*MODULES, *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    callers = [path for path in sources if path != PACKAGE / "__init__.py"]
    calls = {path: called_names(parse(path)) for path in callers}
    uncalled = []
    for name in exported_names(init):
        module = home[name]
        if not any(
            isinstance(node, ast.FunctionDef) and node.name == name for node in parse(module).body
        ):
            continue
        if not any(name in names for path, names in calls.items() if path != module):
            uncalled.append(f"{module.name}:{name}")
    assert not uncalled, f"exported functions nothing outside their module calls: {uncalled}"


def test_every_public_definition_is_read_outside_the_tests():
    # a re-export from __init__.py is not a use, and neither is a
    # definition reading its own name
    sources = [*MODULES, *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    trees = {path: parse(path) for path in sources}
    reads = [
        (stmt, used_names(stmt, attributes=True))
        for path, tree in trees.items()
        if path != PACKAGE / "__init__.py"
        for stmt in tree.body
    ]
    unread = [
        f"{path.name}:{node.name}"
        for path in MODULES
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(node.name in names for stmt, names in reads if stmt is not node)
    ]
    assert not unread, f"public definitions only tests read: {unread}"
