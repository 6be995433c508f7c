"""Source hygiene: no module keeps an import it never uses, no private name goes unreferenced, and the
package exports exactly what it imports."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import qtclust

PACKAGE = Path(qtclust.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> list[str]:
    """Names that the module's import statements bind, except ``from __future__`` features."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported_names(tree)) - used)
    assert not unused, f"{path.name} imports {unused} and never uses them"


def test_all_lists_exactly_the_imported_names():
    exported = qtclust.__all__
    duplicates = sorted(name for name, n in Counter(exported).items() if n > 1)
    assert not duplicates, f"__all__ lists {duplicates} more than once"
    assert [name for name in exported if not hasattr(qtclust, name)] == []
    imported = set(_imported_names(ast.parse((PACKAGE / "__init__.py").read_text())))
    assert set(exported) == imported


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and assigned names that start with one underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_name_is_referenced_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    defined = [(module, name) for module, tree in trees.items() for name in _private_definitions(tree)]
    unused = sorted(f"{module}:{name}" for module, name in defined if name not in referenced)
    assert not unused, f"private names that nothing in the package references: {unused}"
