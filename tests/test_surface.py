"""The engine keeps no public function or method that nothing uses.

Every public module-level function in ``src/toriclift`` must be referenced
somewhere in the package outside its own definition, or be exported in
``toriclift.__all__``.  Every public method of a module-level class (dunders
and properties aside) must be referenced somewhere in the package outside its
own definition.  A function only the tests call belongs in the tests.

References are matched by name, so a method whose name another definition
shares counts as used when either is.
"""

import ast
from collections import Counter
from pathlib import Path

import toriclift

PACKAGE = Path(toriclift.__file__).parent


def _names(node):
    """Every name loaded or attribute read beneath ``node``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _trees():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    assert "lattice" in trees and "cli" in trees
    return trees, sum((_names(tree) for tree in trees.values()), Counter())


def _unused(node, uses):
    # a reference inside its own def (recursion) does not count
    return uses[node.name] == _names(node)[node.name]


def test_every_public_function_is_used_or_exported():
    trees, uses = _trees()
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in toriclift.__all__
        and _unused(node, uses)
    ]
    assert unused == []


def test_every_public_method_is_used():
    trees, uses = _trees()
    unused = [
        f"{module}.{cls.name}.{node.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and not any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)
        and _unused(node, uses)
    ]
    assert unused == []
