"""Source hygiene: no module keeps an import it never uses, and the package exports exactly what it imports."""

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
