"""Stdlib lint over the package, for what a deletion can leave behind.

Each module but `__init__.py`, which imports to re-export, must read every
name it imports, and each module-level `_private` function, class or
constant must be referenced somewhere in the package. Each public one, and
each public property of a module-level class, must be referenced by a
module of the package other than `__init__.py`, by a demo or by perfbench,
whose span tracer names the callables it wraps as strings in
`spans.LAYERS`; a name only the tests use is dead. A public method must be
called there, as in `x.name(...)`, or named in `spans.LAYERS`: an attribute
of the same name on another class does not count as a use.

The tests' shared `conftest.py` must read every name it imports, and each
of its module-level names, public or private, must be referenced by a test
module or by conftest itself; a fixture is referenced by a parameter of
that name. A reference implementation that no test compares against is dead.

Each module-level `*_CAP`, `*_LIMIT` or `*_GUARD` constant of the package,
exit codes aside, is a guard, and a row of `test_limits.LIMITS` must lower it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pvcover"
TESTS = ROOT / "tests"


def _reads(tree):
    """The names a module reads as bare names."""
    return {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
    }


def _references(tree):
    """The names a module reads as bare names, attributes or imports."""
    refs = _reads(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def _imports(tree):
    """(bound name, line) for each import at any depth, except __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _definitions(tree):
    """(name, line) for each module-level function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            yield name, node.lineno


def _method_calls(tree):
    """The names a module calls as attributes, as in x.name(...)."""
    return {
        n.func.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
    }


def _public_members(tree):
    """(Class.name, name, line, is_property) for each public method or
    property of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    is_property = any(
                        isinstance(d, ast.Name) and d.id == "property"
                        for d in member.decorator_list
                    )
                    yield f"{node.name}.{member.name}", member.name, member.lineno, is_property


def _parameters(tree):
    """The parameter names of every function, which is how tests ask for fixtures."""
    return {
        a.arg
        for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        for a in n.args.args
    }


def _private_definitions(tree):
    """(name, line) for each module-level _name that is not a dunder."""
    for name, line in _definitions(tree):
        if name.startswith("_") and not name.startswith("__"):
            yield name, line


def _layer_names(tree):
    """Each dotted part of the strings in the module-level LAYERS table."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            for n in ast.walk(node.value):
                if isinstance(n, ast.Constant) and isinstance(n.value, str):
                    yield from n.value.split(".")


def _limit_rows(tree):
    """(module, constant) for each row of the module-level LIMITS table, whose
    rows are pytest.param(pvcover.<module>, "<constant>", ...)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LIMITS" for t in node.targets
        ):
            for row in node.value.elts:
                module, name = row.args[:2]
                yield module.attr, name.value


def test_every_guard_constant_has_a_limits_row():
    path = TESTS / "test_limits.py"
    rows = set(_limit_rows(ast.parse(path.read_text(), str(path))))
    problems = [
        f"{path.name}:{line}: {name} has no row in test_limits.LIMITS"
        for path in sorted(SRC.glob("*.py"))
        for name, line in _definitions(ast.parse(path.read_text(), str(path)))
        if re.fullmatch(r"(?!EXIT_)\w+_(CAP|LIMIT|GUARD)", name)
        and (path.stem, name) not in rows
    ]
    assert rows
    assert not problems, "\n".join(problems)


def test_no_unused_import_or_unreferenced_private_name():
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    referenced = set().union(*map(_references, trees.values()))
    problems = []
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        reads = _reads(tree)
        for imported, line in _imports(tree):
            if imported not in reads:
                problems.append(f"{name}:{line}: {imported} is imported but never read")
        for private, line in _private_definitions(tree):
            if private not in referenced:
                problems.append(f"{name}:{line}: {private} is never referenced")
    assert not problems, "\n".join(problems)


def test_every_public_name_is_used_outside_the_tests():
    trees = {p: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    users = {p: t for p, t in trees.items() if p.name != "__init__.py"}
    for path in sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        users[path] = ast.parse(path.read_text(), str(path))
    used = set().union(*map(_references, users.values()))
    layers = set(_layer_names(users[ROOT / "perfbench" / "spans.py"]))
    used |= layers
    called = set().union(*map(_method_calls, users.values())) | layers
    problems = [
        f"{path.name}:{line}: {name} is used only by the tests"
        for path, tree in trees.items()
        if path.name != "__init__.py"
        for name, line in _definitions(tree)
        if not name.startswith("_") and name not in used
    ]
    problems += [
        f"{path.name}:{line}: {member} is used only by the tests"
        for path, tree in trees.items()
        for member, name, line, is_property in _public_members(tree)
        if name not in (used if is_property else called)
    ]
    assert not problems, "\n".join(problems)


def test_every_conftest_name_is_read_and_used_by_a_test():
    path = TESTS / "conftest.py"
    conftest = ast.parse(path.read_text(), str(path))
    tests = [ast.parse(p.read_text(), str(p)) for p in sorted(TESTS.glob("test_*.py"))]
    used = set().union(_references(conftest), *map(_references, tests), *map(_parameters, tests))
    reads = _reads(conftest)
    problems = [
        f"conftest.py:{line}: {imported} is imported but never read"
        for imported, line in _imports(conftest)
        if imported not in reads
    ]
    problems += [
        f"conftest.py:{line}: {name} is never used by a test"
        for name, line in _definitions(conftest)
        if name not in used
    ]
    assert not problems, "\n".join(problems)
