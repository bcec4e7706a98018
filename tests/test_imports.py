"""Every name a package module imports is used in that module.

The check reads the sources with the stdlib ast module, so it needs no
linter.  __init__.py is exempt (its imports are re-exports), and so are
`from __future__` imports.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "koopmode"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_checker_flags_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nimport scipy.linalg\n"
              "from typing import Iterable, Sequence\n"
              "def f(x: Sequence) -> None:\n    np.abs(scipy.linalg.norm(x))\n")
    assert unused_imports(source) == ["Iterable", "os"]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
