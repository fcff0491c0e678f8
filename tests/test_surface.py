"""The engine keeps no public function that nothing uses.

Every public module-level function in ``src/toriclift`` must be referenced
somewhere in the package outside its own definition, or be exported in
``toriclift.__all__``.  A function only the tests call belongs in the tests.
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


def test_every_public_function_is_used_or_exported():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    assert "lattice" in trees and "cli" in trees
    uses = sum((_names(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in toriclift.__all__
        # a reference inside its own def (recursion) does not count
        and uses[node.name] == _names(node)[node.name]
    ]
    assert unused == []
