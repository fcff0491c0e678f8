"""The engine keeps no function or method that nothing uses.

Every public module-level function in ``src/toriclift`` must be referenced
somewhere in the package outside its own definition; an export in
``toriclift.__all__`` is no reference, so an export that nothing in the
package calls fails too.  Every public method of a module-level class
(dunders and properties aside) must be referenced somewhere in the package
outside its own definition.  A function only the tests call belongs in the
tests.  A private module-level function or method (``_name``, not a dunder)
must be referenced in the package outside its own definition too, so that a
helper whose callers are gone goes with them.

References are matched by name, so a method whose name another class's
method shares counts as used when either is; the set of such shared names is
pinned, and a new one fails until its uses are checked by hand.

A private attribute (``x._name``, not a dunder) is read or written only on
``self``, or inside a class's own methods on a private attribute that class
defines, as ``IntMatrix.__matmul__`` reads ``other._data``: derived data has
one owner, and no module pokes at another object's state.

Every name in ``toriclift.__all__`` resolves on the package, and every name
the README's Python API block imports from ``toriclift`` is exported, so a
deleted export cannot leave stale docs behind.

Every size guard, a ``MAX_*`` constant named in a ``raise
ResourceLimitError(...)``, has a row in the README guard table and a case in
the parametrized guard-message test.

``lattice`` is the bottom layer: it imports nothing from the package, at
module level or inside a function.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import toriclift

PACKAGE = Path(toriclift.__file__).parent
README = PACKAGE.parents[1] / "README.md"
GUARD_TEST = Path(__file__).with_name("test_fan.py")


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
        and _unused(node, uses)
    ]
    assert unused == []


def test_every_private_helper_is_used():
    trees, uses = _trees()
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body + [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
        if isinstance(node, ast.FunctionDef) and _private(node.name) and _unused(node, uses)
    ]
    assert unused == []


def _public_methods(trees):
    """(module, class, method def) for every public method, properties aside."""
    return [
        (module, cls, node)
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and not any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)
    ]


def test_every_public_method_is_used():
    trees, uses = _trees()
    unused = [
        f"{module}.{cls.name}.{node.name}"
        for module, cls, node in _public_methods(trees)
        if _unused(node, uses)
    ]
    assert unused == []


def test_shared_method_names_are_pinned():
    # DivisorSubgroup.contains and HRep.contains both have engine callers
    trees, _ = _trees()
    owners = Counter(node.name for _, _, node in _public_methods(trees))
    assert {name for name, k in owners.items() if k > 1} == {"contains"}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _own_attributes(cls):
    """The private attributes a class defines: those it sets or reads on
    ``self``, its ``__slots__``, fields and methods."""
    own = {
        n.attr for n in ast.walk(cls)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "self"
    }
    for node in cls.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
        ):
            own |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            own.add(node.target.id)
        elif isinstance(node, ast.FunctionDef):
            own.add(node.name)
    return own


def test_private_attributes_stay_with_their_class():
    trees, _ = _trees()
    found = []
    for module, tree in trees.items():
        scopes = [(cls, _own_attributes(cls)) for cls in tree.body if isinstance(cls, ast.ClassDef)]
        in_class = {id(n) for cls, _ in scopes for n in ast.walk(cls)}
        scopes.append((tree, set()))
        for scope, own in scopes:
            found += [
                f"{module}:{n.lineno} {ast.unparse(n)}"
                for n in ast.walk(scope)
                if isinstance(n, ast.Attribute)
                and _private(n.attr)
                and not (isinstance(n.value, ast.Name) and n.value.id == "self")
                and n.attr not in own
                and (scope is not tree or id(n) not in in_class)
            ]
    assert sorted(found) == []


def _guards():
    """Every MAX_* constant a ``raise ResourceLimitError(...)`` names, as a
    name or in its message."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and _names(node.exc.func)["ResourceLimitError"]
            ):
                continue
            for n in ast.walk(node.exc):
                if isinstance(n, ast.Name):
                    found.update(re.findall(r"^MAX_\w+$", n.id))
                elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                    found.update(re.findall(r"\bMAX_\w+", n.value))
    return found


def _tripped_guards():
    """The constants of the cases of the parametrized guard-message test."""
    tree = ast.parse(GUARD_TEST.read_text(encoding="utf-8"))
    test = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name == "test_guard_messages_name_constant_and_override"
    )
    (cases,) = [d.args[1] for d in test.decorator_list if isinstance(d, ast.Call)]
    return {case.elts[1].value for case in cases.elts}


def test_every_guard_is_documented_and_tripped():
    guards = _guards()
    assert {"MAX_RANK", "MAX_HILBERT_POINTS"} <= guards
    rows = [line for line in README.read_text(encoding="utf-8").splitlines() if line.startswith("|")]
    assert sorted(g for g in guards if not any(f"`{g}`" in row for row in rows)) == []
    assert sorted(guards - _tripped_guards()) == []


def test_lattice_imports_nothing_from_the_package():
    def from_package(node):
        if isinstance(node, ast.ImportFrom):
            return node.level > 0 or (node.module or "").split(".")[0] == "toriclift"
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] == "toriclift" for alias in node.names)
        return False

    tree = ast.parse((PACKAGE / "lattice.py").read_text(encoding="utf-8"))
    found = [f"lattice:{n.lineno} {ast.unparse(n)}" for n in ast.walk(tree) if from_package(n)]
    assert found == []


def test_exports_resolve_and_readme_imports_are_exported():
    assert [name for name in toriclift.__all__ if not hasattr(toriclift, name)] == []
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks, "README has no Python API block"
    imported = [
        alias.name
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "toriclift"
        for alias in node.names
    ]
    assert imported
    assert sorted(set(imported) - set(toriclift.__all__)) == []
