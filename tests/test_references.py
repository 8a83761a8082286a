"""No library function whose only caller is its own test.

Every public module-level function and class of cayley_ising must be named
somewhere else in the package's source, or be a library entry point that
the benchmark's tracer (perfbench/tracing.py) hooks by name.  A private one
must be named somewhere in the package's source, whatever the tracer hooks.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cayley_ising"
TRACER = ROOT / "perfbench" / "tracing.py"


def _definitions(tree, private):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_") == private:
            yield node.name


def _used_names(tree):
    """Every name loaded or looked up as an attribute; a definition itself
    and the import of a name do not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _package():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    return trees, {name for tree in trees.values() for name in _used_names(tree)}


def test_every_public_name_has_a_caller():
    trees, used = _package()
    # the tracer's hooks are (owner, "attribute", ...) tuples.
    # partition.write_roots_csv has no caller in the package and passes only
    # because the tracer hooks it as the roots writer
    hooked = {
        node.elts[1].value
        for node in ast.walk(ast.parse(TRACER.read_text()))
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2 and isinstance(node.elts[1], ast.Constant)
    }
    orphans = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _definitions(tree, private=False)
        if name not in used and name not in hooked
    ]
    assert orphans == []


def test_every_private_name_has_a_caller():
    trees, used = _package()
    orphans = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _definitions(tree, private=True)
        if name not in used
    ]
    assert orphans == []
