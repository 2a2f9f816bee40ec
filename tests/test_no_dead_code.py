"""Every function, class and method in the package has a caller.

Each module-level function and class of ``src/ym4``, and each method of
those classes, must be referenced somewhere in ``src/``, ``perfbench/`` or
``tests/test_acceptance.py`` outside its own definition: what the CLI, the
benchmark workloads and the acceptance criteria run.  A unit test alone
keeps no definition alive; an oracle that only tests need lives in
``tests/``.  A reference is code: a name
or attribute that reads it, an import of it, or a string literal that is
exactly the name (``perfbench/tracer.py`` and ``monkeypatch.setattr`` look
functions up by name).  A mention in a comment or a docstring is no
reference.  Dunder methods are called by the language and are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ym4"
SEARCHED = ("src", "perfbench")
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item


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
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value, node.lineno


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
    assert {"imported", "called", "obj", "method", "exact_name"} <= names
    assert not {"in_docstring", "in_comment", "local", "dotted", "name"} & names


def test_every_definition_has_a_caller():
    paths = [path for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))]
    refs = {path: list(_references(ast.parse(path.read_text()))) for path in paths + [ACCEPTANCE]}
    uncalled = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in _definitions(ast.parse(path.read_text())):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            lo, hi = _span(node)
            used = any(
                ref == name and not (src == path and lo <= line <= hi)
                for src, found in refs.items()
                for ref, line in found
            )
            if not used:
                uncalled.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not uncalled, "definitions without a caller:\n" + "\n".join(uncalled)
