"""No module of the package or of the test suite imports a name it
never uses.

The package's ``__init__.py`` is left out: its imports are the package's
public names.  An import line marked ``# noqa: F401`` is meant to be
unused and is left out too.
"""

import ast
from pathlib import Path

import pytest

import ruleparse

MODULES = sorted(p for p in Path(ruleparse.__file__).parent.glob("*.py")
                 if p.name != "__init__.py") \
    + sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import and never reads, with
    ``from __future__`` imports and ``# noqa: F401`` lines left out."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and "# noqa: F401" in lines[node.lineno - 1]):
            continue
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_the_check_finds_an_unused_import():
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path, sys\n"
                          "from dataclasses import dataclass, field as f\n"
                          "import json  # noqa: F401\n"
                          "@dataclass\nclass A:\n    x: int = os.sep\n") \
        == ["f", "sys"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
