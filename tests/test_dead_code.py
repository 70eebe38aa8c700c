"""Static guard against leftovers: every import and private name is used.

Parses ``src/rppgbench/*.py`` with ``ast``. An import that nothing in its
module reads, or a private module-level name (``_x``) that no module of the
package reads, is dead code left behind by a refactor.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rppgbench"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _loaded(tree: ast.Module) -> set[str]:
    """Names a module reads itself: bare names and ``__all__`` entries."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return names


def _read_anywhere(tree: ast.Module) -> set[str]:
    """Names a module reads itself or takes from another: plus attributes and ``from`` imports."""
    names = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _bound_imports(tree: ast.Module):
    """``(line, name)`` of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _private_definitions(tree: ast.Module):
    """``(line, name)`` of every module-level private function, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_import_is_used(module):
    tree = MODULES[module]
    used = _loaded(tree)
    unused = [f"{module}:{line} {name}" for line, name in _bound_imports(tree) if name not in used]
    assert unused == []


def test_every_private_module_name_is_read():
    read = set().union(*(_read_anywhere(tree) for tree in MODULES.values()))
    unread = [
        f"{module}:{line} {name}"
        for module, tree in MODULES.items()
        for line, name in _private_definitions(tree)
        if name not in read
    ]
    assert unread == []
