"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

import apemkit

MODULES = sorted(p for p in Path(apemkit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, except on `# noqa: F401` lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "from .a import b, c as d\n"
              "from .e import f  # noqa: F401\n"
              "x = np.zeros(b)\n")
    assert unused_imports(source) == ["line 2: os", "line 4: d"]
