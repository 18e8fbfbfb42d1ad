"""Source checks over src/egopose/: no module-level private helper is left
behind unused."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "egopose"


def _private_definitions(tree: ast.Module):
    """The module-level private names a module defines: its _x functions,
    classes and constants (dunders such as __all__ are not private)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def _uses(tree: ast.Module):
    """Every name the module reads: loaded names, attributes and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_helper_is_used():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    used = Counter(name for tree in trees.values() for name in _uses(tree))
    unused = [f"{module}: {name}" for module, tree in trees.items() for name in _private_definitions(tree) if not used[name]]
    assert not unused, f"private names defined but never used in src/egopose/: {unused}"
