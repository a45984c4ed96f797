"""Package modules import each other at module level only.

An import of a package module inside a function hides a dependency from
the module header and usually papers over an import cycle.  Standard-library
imports inside functions (such as ``multiprocessing``, loaded only when a
parallel run starts) are allowed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import chainmail

SOURCES = sorted(Path(chainmail.__file__).parent.glob("*.py"))


def package_imports_in_functions(source: str) -> list:
    """Line numbers of imports of the package (relative, or by the name
    ``chainmail``) that sit inside a function or lambda."""
    lines = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom):
                names = [] if node.level else [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if not names or any(name.split(".")[0] == "chainmail" for name in names):
                lines.add(node.lineno)
    return sorted(lines)


def test_the_scan_flags_package_imports_only():
    source = (
        "import json\n"
        "from . import canon\n"
        "def f():\n"
        "    import multiprocessing\n"
        "    from .poset import mask_of\n"
        "    class Inner:\n"
        "        def g(self):\n"
        "            import chainmail.poset\n"
        "            from chainmail import errors\n"
        "            from collections import deque\n"
    )
    assert package_imports_in_functions(source) == [5, 8, 9]


def test_no_package_import_inside_a_function():
    assert {"connectivity.py", "exterior.py", "generators.py", "poset.py"} <= {p.name for p in SOURCES}
    found = [f"{path.name}:{line}" for path in SOURCES
             for line in package_imports_in_functions(path.read_text(encoding="utf-8"))]
    assert found == []
