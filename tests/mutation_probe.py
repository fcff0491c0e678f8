"""Mutation probe: single-point mutants of the engine, scored by its tests.

    python3 tests/mutation_probe.py [--functions NAME,...] [--modules NAME,...]
        [--per-function N] [--seed S] [--timeout SECONDS]

Copies ``src/``, ``tests/``, ``README.md`` and ``pyproject.toml`` of the
checkout holding this script into a temporary directory and mutates only
that copy.  For each selected module of ``src/toriclift`` it parses the
source with ``ast`` and lists the mutation sites of each selected function
(``--functions`` takes bare names or ``Class.method``; default: every
function of the module): a comparison, arithmetic, bitwise or boolean
operator swapped, a ``not`` or unary minus dropped, an integer constant
moved up by one, an ``if``, ``while`` or conditional-expression test
negated.  At most ``--per-function`` sites of a function are drawn, by
``random.Random`` seeded with ``--seed`` and the function's name.

A mutant changes one site.  The function's source lines are replaced by the
mutated function, every other line of the module is kept, and the module's
test files (``TESTS``) run with ``pytest -x``.  The mutant is killed when
pytest fails or runs past the timeout (default: three times the unmutated
run, at least 30 s), and survives when the tests pass.  The module is
restored before the next mutant.

Prints one line per mutant, then each survivor with its line of source, and
a score; exits 1 when a mutant survived.  Stdlib only (pytest runs in a
subprocess, without writing bytecode); pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the test files that exercise each module, the most direct first so that
# ``pytest -x`` stops early on a killed mutant
TESTS = {
    "lattice": ("test_lattice.py", "test_divisors.py", "test_lifting.py", "test_fan.py",
                "test_isomorphism.py"),
    "polyhedra": ("test_polyhedra.py", "test_fan.py", "test_cli.py"),
    "fan": ("test_fan.py", "test_polyhedra.py", "test_divisors.py"),
    "divisors": ("test_divisors.py", "test_presentation.py", "test_lifting.py", "test_fanfile.py",
                 "test_cli.py", "test_acceptance.py"),
    "presentation": ("test_presentation.py", "test_cli.py"),
    "lifting": ("test_lifting.py", "test_cli.py", "test_fan.py", "test_golden_reports.py",
                "test_acceptance.py"),
    "isomorphism": ("test_isomorphism.py", "test_cli.py"),
    "fanfile": ("test_fanfile.py", "test_cli.py", "test_golden_reports.py"),
    "cli": ("test_cli.py", "test_golden_reports.py", "test_acceptance.py"),
}

COMPARE = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
BINARY = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.FloorDiv: ast.Mult,
    ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.BitXor: ast.BitOr, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
}
BOOLEAN = {ast.And: ast.Or, ast.Or: ast.And}


def _mutations(node):
    """(shown before, shown after, mutated node) for each mutation of ``node``
    itself."""
    if isinstance(node, ast.Compare):
        for k, op in enumerate(node.ops):
            if type(op) in COMPARE:
                ops = list(node.ops)
                ops[k] = COMPARE[type(op)]()
                yield _new(node, ast.Compare(left=node.left, ops=ops, comparators=node.comparators))
    elif isinstance(node, ast.BinOp) and type(node.op) in BINARY:
        yield _new(node, ast.BinOp(left=node.left, op=BINARY[type(node.op)](), right=node.right))
    elif isinstance(node, ast.AugAssign) and type(node.op) in BINARY:
        op = BINARY[type(node.op)]()
        yield _new(node, ast.AugAssign(target=node.target, op=op, value=node.value))
    elif isinstance(node, ast.BoolOp):
        yield _new(node, ast.BoolOp(op=BOOLEAN[type(node.op)](), values=node.values))
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.USub)):
        yield node, node.operand, node.operand
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        yield _new(node, ast.Constant(value=node.value + 1))
    if isinstance(node, (ast.If, ast.While, ast.IfExp)) and not _negated_elsewhere(node.test):
        negated = ast.copy_location(ast.UnaryOp(op=ast.Not(), operand=node.test), node.test)
        fields = {f: getattr(node, f) for f in node._fields}
        yield node.test, negated, ast.copy_location(type(node)(**{**fields, "test": negated}), node)


def _negated_elsewhere(test) -> bool:
    """Whether a mutation of ``test`` itself negates it already: it is one
    swappable comparison, or a ``not`` that is dropped."""
    if isinstance(test, ast.Compare):
        return len(test.ops) == 1 and type(test.ops[0]) in COMPARE
    return isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)


def _new(node, mutant):
    ast.copy_location(mutant, node)
    return node, mutant, mutant


class _Sites(ast.NodeTransformer):
    """Lists the mutation sites beneath a node, children before parents, and
    applies site ``target`` when one is given."""

    def __init__(self, target=None):
        self.target = target
        self.sites: list[tuple[int, str]] = []  # (line, "before -> after")

    def visit(self, node):
        node = self.generic_visit(node)
        for before, after, mutant in _mutations(node):
            self.sites.append((node.lineno, f"{_short(before)} -> {_short(after)}"))
            if len(self.sites) - 1 == self.target:
                return mutant
        return node


def _short(node) -> str:
    text = " ".join(ast.unparse(node).split())
    return text if len(text) <= 70 else text[:67] + "..."


def _functions(tree):
    """(qualified name, def node) for each module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _find(tree, name: str) -> ast.FunctionDef:
    return next(func for qualified, func in _functions(tree) if qualified == name)


def _mutant_source(lines: list[str], func: ast.FunctionDef, mutated: ast.FunctionDef) -> str:
    """The module text with ``func``'s lines, decorators included, replaced by
    ``mutated`` at the same indentation."""
    start = min([func.lineno] + [d.lineno for d in func.decorator_list]) - 1
    indent = " " * func.col_offset
    body = [indent + line if line else line for line in ast.unparse(mutated).splitlines()]
    return "".join(lines[:start]) + "\n".join(body) + "\n" + "".join(lines[func.end_lineno:])


def _run_tests(work: Path, files, timeout) -> tuple[bool, float]:
    """Whether the test files pass in ``work``, and the seconds taken; a run
    past ``timeout`` counts as failing."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           *(f"tests/{f}" for f in files)]
    begun = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - begun
    return done.returncode == 0, time.perf_counter() - begun


def _copy_checkout(work: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, work / name, ignore=skip)
    for name in ("README.md", "pyproject.toml"):
        shutil.copy2(ROOT / name, work / name)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--modules", default=",".join(TESTS),
                    help="comma-separated modules of src/toriclift (default: all)")
    ap.add_argument("--functions", default="",
                    help="comma-separated function names or Class.method (default: all)")
    ap.add_argument("--per-function", type=int, default=None,
                    help="at most this many sites per function (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--timeout", type=float, default=None,
                    help="seconds per test run (default: 3x the unmutated run, at least 30)")
    args = ap.parse_args(argv)
    modules = [m for m in args.modules.split(",") if m]
    wanted = {f for f in args.functions.split(",") if f}
    unknown = [m for m in modules if m not in TESTS]
    if unknown:
        ap.error(f"no test files mapped for {unknown}; known: {', '.join(TESTS)}")

    killed, survivors, matched = 0, [], set()
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        work = Path(tmp)
        _copy_checkout(work)
        for module in modules:
            path = work / "src" / "toriclift" / f"{module}.py"
            original = path.read_text(encoding="utf-8")
            lines = original.splitlines(keepends=True)
            tree = ast.parse(original)
            chosen = [
                (name, func) for name, func in _functions(tree)
                if not wanted or name in wanted or name.split(".")[-1] in wanted
            ]
            matched.update(n for name, _ in chosen for n in (name, name.split(".")[-1]))
            if not chosen:
                continue
            passed, seconds = _run_tests(work, TESTS[module], None)
            if not passed:
                print(f"{module}: the unmutated tests fail; nothing to score", file=sys.stderr)
                return 2
            timeout = args.timeout or max(30.0, 3 * seconds)
            for name, func in chosen:
                sites = _Sites()
                sites.visit(func)
                picked = range(len(sites.sites))
                if args.per_function is not None and len(picked) > args.per_function:
                    rng = random.Random(f"{args.seed}:{module}.{name}")
                    picked = sorted(rng.sample(picked, args.per_function))
                for index in picked:
                    mutated = _Sites(target=index).visit(_find(ast.parse(original), name))
                    line, change = sites.sites[index]
                    path.write_text(_mutant_source(lines, func, mutated), encoding="utf-8")
                    try:
                        passed, _ = _run_tests(work, TESTS[module], timeout)
                    finally:
                        path.write_text(original, encoding="utf-8")
                    status = "survived" if passed else "killed"
                    print(f"{status:8} {module}.{name}:{line}  {change}", flush=True)
                    if passed:
                        survivors.append((module, name, line, change, lines[line - 1].strip()))
                    else:
                        killed += 1

    if wanted - matched:
        print(f"no such function in {', '.join(modules)}: {sorted(wanted - matched)}",
              file=sys.stderr)
    total = killed + len(survivors)
    if survivors:
        print("\nsurvivors:")
        for module, name, line, change, source in survivors:
            print(f"  {module}.py:{line} ({name}) {change}\n      {source}")
    print(f"\n{killed} of {total} mutants killed, {len(survivors)} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
