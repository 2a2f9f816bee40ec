"""No module of the package reads an environment variable.

Every setting ym4 takes comes from its config file or its command line,
where it is checked and echoed into config.resolved; a value read from the
environment would be a second, unchecked channel.  The kernel thread count
follows the CPU affinity of the process (``os.sched_getaffinity``), which
is no variable.  A read is ``os.environ`` or ``os.environb`` in any use,
``os.getenv`` or ``os.getenvb``, or an import of one of them from ``os``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ym4"
READERS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree):
    """(line, name) for each environment read in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in READERS:
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in READERS:
                    yield node.lineno, alias.name


def test_environment_read_collector():
    source = """
import os
from os import environ, path
from os import getenv as ge
threads = os.environ.get("A", "")
os.getenv("B")
os.environb[b"C"]
os.sched_getaffinity(0)
"environ"
"""
    assert sorted(_environment_reads(ast.parse(source))) == [
        (3, "environ"),
        (4, "getenv"),
        (5, "environ"),
        (6, "getenv"),
        (7, "environb"),
    ]


def test_no_module_reads_the_environment():
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, name in _environment_reads(ast.parse(path.read_text()))
    ]
    assert not found, "environment reads:\n" + "\n".join(found)
