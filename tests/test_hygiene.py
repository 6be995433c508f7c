"""Source hygiene: no module keeps an import it never uses, no private name or dataclass field goes
unread, and the package exports exactly what it imports."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import qtclust

PACKAGE = Path(qtclust.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


# read by no caller yet: the run diagnostics that are to report the gap rule's inputs
UNREAD_FIELDS = {"QTCResult.gaps"}


def test_every_dataclass_field_is_read():
    # a field counts as read when some attribute load of its name, in the package or the benchmark,
    # lies outside its class's __post_init__, which only checks and stores it; properties count
    package = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")]
    perfbench = [ast.parse(path.read_text()) for path in PERFBENCH.glob("*.py")]
    classes = [node for tree in package for node in tree.body if isinstance(node, ast.ClassDef) and _is_dataclass(node)]
    fields = {(cls.name, stmt.target.id) for cls in classes for stmt in cls.body if isinstance(stmt, ast.AnnAssign)}
    post_init = {
        id(node): cls.name
        for cls in classes
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and method.name == "__post_init__"
        for node in ast.walk(method)
    }
    read = {
        (post_init.get(id(node)), node.attr)
        for tree in package + perfbench
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = sorted(
        f"{cls}.{name}" for cls, name in fields if not any(attr == name and owner != cls for owner, attr in read)
    )
    assert unread == sorted(UNREAD_FIELDS), f"dataclass fields that nothing reads: {unread}"
