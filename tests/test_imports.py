"""Import lint: every name a module imports is used in that module.

The package's re-exports in __init__.py are exempt, and so is an import
statement with "# noqa: F401" on any of its lines.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINTED = sorted(p for p in (ROOT / "src" / "aerialsim").glob("*.py")
                if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that source never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    return unused


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "import numpy as np\n"
              "from math import (pi,  # noqa: F401\n"
              "                  tau)\n"
              "from dataclasses import dataclass, replace\n"
              "np.zeros(1)\n"
              "@dataclass\n"
              "class A:\n"
              "    x: int = 0\n")
    assert unused_imports(source) == [(2, "os"), (2, "osp"), (6, "replace")]


def test_every_import_is_used():
    found = {f"{p.parent.name}/{p.name}": unused_imports(p.read_text(encoding="utf-8"))
             for p in LINTED}
    assert {k: v for k, v in found.items() if v} == {}
