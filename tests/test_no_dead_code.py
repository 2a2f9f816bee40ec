"""Every function, class and method in the package has a caller, and every
defaulted parameter takes more than one value.

Each module-level function and class of ``src/ym4``, and each method of
those classes, must be referenced somewhere in ``src/``, ``perfbench/`` or
``tests/test_acceptance.py`` outside its own definition: what the CLI, the
benchmark workloads and the acceptance criteria run.  A unit test alone
keeps no definition alive; an oracle that only tests need lives in
``tests/oracles.py``, and each of its definitions must be used by a test.
A reference is code: a name or attribute that reads it, or an import of
it.  A string literal is no reference, even one that is exactly the name
(``perfbench/tracer.py`` looks functions up by name and skips the ones
that are gone), and neither is a mention in a comment or a docstring.
Dunder methods are called by the language and are exempt.

Each module of ``src/ym4`` reads every name its module-level imports bind;
``from __future__`` imports are exempt.

A defaulted parameter of a function or method in ``src/ym4`` that every
call in the same places passes as one literal, or that every call leaves at
its default, is a constant: it belongs in the body.  A call is matched by
the callee's name alone.  It passes the parameter by keyword, else by
position, else leaves it at the default; anything but a literal, and any
``*args`` or ``**kwargs``, counts as a value of its own.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ym4"
SEARCHED = ("src", "perfbench")
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
ORACLES = ROOT / "tests" / "oracles.py"


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _span(node):
    """1-based line range of a definition, decorators included."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return first, node.end_lineno


def _references(tree):
    """(name, line) for each code reference in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _code_paths():
    paths = [path for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))]
    return paths + [ACCEPTANCE]


def _uncalled(defined, searched):
    """Definitions of the files in ``defined`` that no file in ``searched``
    references outside the definition itself."""
    refs = {path: list(_references(ast.parse(path.read_text()))) for path in searched}
    uncalled = []
    for path in defined:
        for node in _definitions(ast.parse(path.read_text())):
            name = node.name
            if _is_dunder(name):
                continue
            lo, hi = _span(node)
            used = any(
                ref == name and not (src == path and lo <= line <= hi)
                for src, found in refs.items()
                for ref, line in found
            )
            if not used:
                uncalled.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return uncalled


def test_comments_and_docstrings_are_no_references():
    source = """
from m import imported

def f():
    \"\"\"in_docstring is named only here.\"\"\"
    # in_comment
    local = 1
    return called(obj.method, "exact_name", "dotted.name")
"""
    names = {name for name, _ in _references(ast.parse(source))}
    assert {"imported", "called", "obj", "method"} <= names
    assert not {"in_docstring", "in_comment", "local", "exact_name", "dotted", "name"} & names


def test_every_definition_has_a_caller():
    uncalled = _uncalled(sorted(PACKAGE.rglob("*.py")), _code_paths())
    assert not uncalled, "definitions without a caller:\n" + "\n".join(uncalled)


def test_every_oracle_is_used_by_a_test():
    tests = sorted(path for path in ORACLES.parent.glob("*.py") if path != ORACLES)
    unused = _uncalled([ORACLES], tests)
    assert not unused, "oracles no test uses:\n" + "\n".join(unused)


# -- one-valued parameters ---------------------------------------------------

DEFAULT = "default"


def _defaulted(fn, is_method):
    """(name, call position or None) of each defaulted parameter of fn; the
    position is the index of its positional argument at a call site."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if is_method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
    ):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    for pos in range(max(first, 0), len(positional)):
        yield positional[pos].arg, pos
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _functions(tree):
    """(name, is_method, node) for every function and method, nested ones too."""
    for node in ast.walk(tree):
        body = node.body if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) else []
        for item in body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield item.name, isinstance(node, ast.ClassDef), item


def _callee(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _argument(call, name, pos):
    """What one call passes for a parameter: a literal's repr, DEFAULT, or a
    unique object for anything that may vary."""
    node = next((kw.value for kw in call.keywords if kw.arg == name), None)
    if node is None:
        given = [] if pos is None else call.args[: pos + 1]
        if any(isinstance(a, ast.Starred) for a in given):
            return object()
        if pos is not None and pos < len(call.args):
            node = call.args[pos]
        elif any(kw.arg is None for kw in call.keywords):
            return object()
        else:
            return DEFAULT
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        return object()


def _one_valued(defined, searched):
    """'name(param) = value' for each defaulted parameter of the functions in
    ``defined`` that every call in ``searched`` gives one value."""
    calls = {}
    for tree in searched:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
    found = []
    for tree in defined:
        for fname, is_method, fn in _functions(tree):
            if _is_dunder(fname) or fname not in calls:
                continue
            for name, pos in _defaulted(fn, is_method):
                values = {_argument(call, name, pos) for call in calls[fname]}
                if len(values) == 1 and isinstance(*values, str):
                    found.append(f"{fname}({name}) = {values.pop()}")
    return found


def test_one_valued_parameter_collector():
    defined = ast.parse("""
def f(a, b=1, c=2, *, d=3, e=4, g=5, v=6):
    pass

class K:
    def m(self, x=0, y=0):
        pass

    @staticmethod
    def s(x=0):
        pass

def h(x=1):
    pass

def u(x=1):
    pass

def k(a, x=1):
    pass
""")
    searched = ast.parse("""
f(0, 7, d=3, e=4, v=w)
f(1, 7, d=3, e=5, g=5)
f(2, 7, 9, d=(3), e=4, **kw)
o.m(1, y=2)
K.m(1, y=n)
K.s(-1)
g(0, 1)
h()
h()
u(w)
k(0)
k(*xs)
""")
    assert sorted(_one_valued([defined], [searched])) == [
        "f(b) = 7",
        "f(d) = 3",
        "h(x) = default",
        "m(x) = 1",
        "s(x) = -1",
    ]


def test_no_parameter_takes_one_value():
    defined = [ast.parse(path.read_text()) for path in sorted(PACKAGE.rglob("*.py"))]
    searched = [ast.parse(path.read_text()) for path in _code_paths()]
    found = _one_valued(defined, searched)
    assert not found, "parameters every call gives one value:\n" + "\n".join(found)


# -- unused imports ----------------------------------------------------------


def _unused_imports(tree):
    """(name, line) of each name a module-level import binds that the module
    never reads; ``from __future__`` imports bind nothing to read."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append((alias.asname or alias.name.split(".")[0], node.lineno))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return [(name, line) for name, line in bound if name not in read]


def test_unused_import_collector():
    tree = ast.parse("""
from __future__ import annotations
import os
import numpy as np
import a.b
from m import used, unused as alias
from n import overwritten

def f():
    import late
    return np.zeros(1), a.b.c(used), "os"

overwritten = 1
""")
    assert [name for name, _ in _unused_imports(tree)] == ["os", "alias", "overwritten"]


def test_every_import_is_read():
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name, line in _unused_imports(ast.parse(path.read_text()))
    ]
    assert not unused, "imports their module never reads:\n" + "\n".join(unused)
