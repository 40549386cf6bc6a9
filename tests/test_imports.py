"""Every module in the package and the test suite reads every name it imports."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "dfaf").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _annotation_names(node: ast.AST) -> set[str]:
    # Names inside a quoted annotation such as ``-> "Tensor | None"``.
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
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
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
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
