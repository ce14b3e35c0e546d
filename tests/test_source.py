"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

import apemkit

PACKAGE = sorted(Path(apemkit.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private names a module binds at top level (functions, classes and
    assignments, tuple targets included), each with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        else:
            continue
        names.update((name, node.lineno) for name in bound
                     if name.startswith("_") and not name.startswith("__"))
    return names


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """`module:line: name` for each private top-level name that no module
    of `sources` reads, as a bare name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}:{line}: {name}" for module, tree in trees.items()
            for name, line in private_definitions(tree).items() if name not in read]


def test_package_reads_every_private_name_it_defines():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unread_private_names(sources) == []


def test_unread_private_name_check_flags_only_unread_names():
    sources = {
        "a.py": ("_BLOCK, _CALL_ROWS = 4, 16\n"
                 "_UNUSED: int = 1\n"
                 "def _helper():\n"
                 "    return _BLOCK\n"
                 "class _Box:\n"
                 "    pass\n"
                 "def _dense_only(x):\n"
                 "    return x\n"),
        "b.py": ("from . import a\n"
                 "from .a import _helper\n"
                 "x = _helper() + a._CALL_ROWS\n"),
    }
    assert unread_private_names(sources) == ["a.py:2: _UNUSED", "a.py:5: _Box",
                                             "a.py:7: _dense_only"]


def call_sites(sources: dict[str, str], name: str) -> list[str]:
    """`module:line` of each call to `name`, as a bare name or an attribute."""
    return [f"{module}:{node.lineno}" for module, source in sources.items()
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


@pytest.mark.parametrize("engine_entry", ["certify_boxes", "forward_logits_batch"])
def test_the_search_reaches_each_engine_entry_from_one_call_site(engine_entry):
    # one search loop: the benchmark counts forward_logits_batch's calls as
    # search rows, and a second loop would be a second schedule to keep right
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE if p.name != "netcore.py"}
    assert len(call_sites(sources, engine_entry)) == 1


def test_the_package_searches_only_through_image_search():
    # filter_map and the CLI score every map with ImageSearch.gaps; gap stays
    # a public one-map entry, and find_epsilon is called only inside apem
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert call_sites(sources, "gap") == []
    assert {site.split(":")[0] for site in call_sites(sources, "find_epsilon")} == {"apem.py"}


def test_call_site_check_counts_bare_and_attribute_calls():
    sources = {"a.py": ("from .netcore import certify_boxes\n"
                        "flags = certify_boxes(net, lo, hi, 0)\n"
                        "f = certify_boxes\n"),
               "b.py": ("from . import netcore\n"
                        "def again(net, lo, hi):\n"
                        "    return netcore.certify_boxes(net, lo, hi, 0)\n")}
    assert call_sites(sources, "certify_boxes") == ["a.py:2", "b.py:3"]
