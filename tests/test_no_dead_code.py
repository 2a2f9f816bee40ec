"""Every function, class and method in the package has a caller.

Each module-level function and class of ``src/ym4``, and each method of
those classes, must appear as a word somewhere in ``src/``, ``tests/`` or
``perfbench/`` outside the lines of its own definition.  Dunder methods are
called by the language and are exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ym4"
SEARCHED = ("src", "tests", "perfbench")


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item


def _span(node):
    """0-based line range of a definition, decorators included."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return first - 1, node.end_lineno


def test_every_definition_has_a_caller():
    sources = {
        path: path.read_text().splitlines()
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    uncalled = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in _definitions(ast.parse(path.read_text())):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            lo, hi = _span(node)
            used = any(
                word.search(line)
                for src, lines in sources.items()
                for i, line in enumerate(lines)
                if not (src == path and lo <= i < hi)
            )
            if not used:
                uncalled.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not uncalled, "definitions without a caller:\n" + "\n".join(uncalled)
