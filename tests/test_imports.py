"""Every name a package module imports is used in that module, the
command-line module loads no more than its commands need, and README's
library quick start runs.

The unused-import check reads the sources with the stdlib ast module, so
it needs no linter.  __init__.py is exempt (its imports are re-exports),
and so are `from __future__` imports.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "koopmode"


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


def test_cli_import_leaves_out_scipy_ndimage():
    """Only clustering labels with scipy.ndimage, so `run` and `slice`
    never pay for importing it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    code = ("import sys, koopmode.cli\n"
            "assert 'koopmode.ranking' in sys.modules\n"
            "assert 'scipy.ndimage' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_readme_quick_start_runs(capsys):
    """The README's Python quick start, run as written: a public name it
    uses cannot disappear unnoticed."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start (library)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert "period" in capsys.readouterr().out
