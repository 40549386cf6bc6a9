"""Every module in the package, the test suite and the tools reads every name
it imports, and every name the package defines at module level has a reader."""
import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "dfaf").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py"), *(ROOT / "tools").glob("*.py")])
READERS = sorted([*MODULES, *(ROOT / "perfbench").glob("*.py")])


def _annotation_names(node: ast.AST) -> set[str]:
    # Names inside the quoted annotation of an argument, a return or an
    # annotated assignment, such as ``-> "Tensor | None"``.
    quoted = getattr(node, "annotation", None) or getattr(node, "returns", None)
    if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
        tree = ast.parse(quoted.value, mode="eval")
        return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        used |= _annotation_names(node)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_finds_unread_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from x import a, b as c, d\n"
        "def f(v: 'a') -> np.ndarray:\n"
        "    return d\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def module_level_names(tree: ast.Module) -> dict[str, ast.AST]:
    """Each function, class and assigned name a module defines at its top
    level, with its defining statement; dunder names are left out."""
    defined: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node
    return {name: node for name, node in defined.items() if not name.startswith("__")}


def read_names(tree: ast.AST) -> Counter:
    """How often ``tree`` reads each name: loaded names, attributes, imported
    names, quoted annotations, and strings that are a (dotted) name, such as
    the attribute names a benchmark patches."""
    reads: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute):
            reads[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                reads[node.value.rpartition(".")[2]] += 1
        reads.update(_annotation_names(node))
    return reads


def orphans(definers: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` of each module-level name a ``definers`` source (by
    module name) defines that no source in ``readers`` reads outside its own
    definition."""
    total = sum((read_names(ast.parse(source)) for source in readers), Counter())
    found = []
    for module, source in definers.items():
        for name, node in module_level_names(ast.parse(source)).items():
            if total[name] - read_names(node)[name] <= 0:
                found.append(f"{module}.{name}")
    return sorted(found)


def test_orphan_checker_finds_unread_definitions():
    package = (
        "X = 1\n"
        "Y, Z = 2, 3\n"
        "def recurse(n):\n"
        "    return recurse(n - 1)\n"
        "class Kept: pass\n"
        "def g() -> 'Kept': return X\n"
        "def patched(): pass\n"
    )
    user = "from pkg import Z\nimport pkg\npkg.g()\nsetattr(pkg, 'patched', None)\n"
    assert orphans({"pkg": package}, [package, user]) == ["pkg.Y", "pkg.recurse"]


def test_every_package_name_has_a_reader():
    definers = {f"dfaf.{p.stem}": p.read_text(encoding="utf-8") for p in PACKAGE}
    assert orphans(definers, [p.read_text(encoding="utf-8") for p in READERS]) == []
