"""Every name a package module imports is used in that module, every
public name it defines has a caller, every defaulted parameter of a
public function has a caller that sets it, the command-line module loads
no more than its commands need (no scipy module at all: _lapack's
routines are scipy.linalg's, to the bit), and README's library quick
start runs.

The unused-import and caller checks read the sources with the stdlib ast
module, so they need no linter.  __init__.py is exempt (its imports are
re-exports), and so are `from __future__` imports.
"""
import ast
import importlib.machinery
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmode import _lapack

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


# Where a public name may be called, or a default set, from: the package,
# the scripts, the benchmark and the acceptance tests, but no unit test.
CALLERS = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"])
# Kept without a caller: the DMDM reader the tests check modes.dmdm with.
NO_CALLER_NEEDED = {"fileio.read_mode_matrix"}


def public_definitions(tree: ast.Module, module: str):
    """(qualified name, name, node) of each public module-level function
    or class and each public method of such a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name, item


def referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names and attribute names used in tree, outside the subtree skip."""
    inside = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def caller_trees(callers) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text()) for path in callers
            if path.name != "__init__.py"}


def names_without_caller(package: Path, callers) -> list[str]:
    trees = caller_trees(callers)
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for qualified, name, node in public_definitions(trees[path], path.stem):
            if not any(name in referenced_names(tree, node if other == path else None)
                       for other, tree in trees.items()):
                found.append(qualified)
    return found


def test_caller_check_flags_a_name_used_only_by_itself(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1) + used()\n"
        "class Box:\n    def get(self):\n        return self.get\n"
        "    def put(self):\n        return Box()\n")
    (tmp_path / "user.py").write_text("import mod\nmod.Box().put()\n")
    assert sorted(names_without_caller(tmp_path, sorted(tmp_path.glob("*.py")))) == [
        "mod.Box.get", "mod.recursive"]


def test_every_public_name_has_a_caller():
    """A public function, class or method that only unit tests call is a
    second way of doing a job the program does one way: delete it."""
    assert set(names_without_caller(PACKAGE, CALLERS)) == NO_CALLER_NEEDED


def defaulted_parameters(node: ast.FunctionDef, method: bool):
    """(name, position) of each parameter of node with a default, position
    counting the caller's positional arguments (a method's self or cls
    not among them) and None for a keyword-only parameter."""
    args = node.args
    positional = args.posonlyargs + args.args
    skip = method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                              for d in node.decorator_list)
    first = len(positional) - len(args.defaults)
    yield from ((a.arg, i - skip) for i, a in enumerate(positional) if i >= first)
    yield from ((a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None)


def sets(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether call passes the parameter, by keyword, by position or
    through *args or **kwargs."""
    return (any(k.arg in (None, name) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or position is not None and len(call.args) > position)


def parameters_without_caller(package: Path, callers) -> list[str]:
    trees = caller_trees(callers)
    calls = [n for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Call)]
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for qualified, name, node in public_definitions(trees[path], path.stem):
            if not isinstance(node, ast.FunctionDef):
                continue
            inside = {id(n) for n in ast.walk(node)}
            its = [c for c in calls if id(c) not in inside and name in (
                getattr(c.func, "id", None), getattr(c.func, "attr", None))]
            method = qualified.count(".") == 2
            found += [f"{qualified}({param})" for param, position in
                      defaulted_parameters(node, method)
                      if not any(sets(c, param, position) for c in its)]
    return found


def test_parameter_check_flags_a_default_no_caller_sets(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    return f(a, 1, 2, d=3, e=4)\n"
        "def g(x=0, y=0):\n    return x + y\n"
        "class Box:\n    def put(self, item=None, size=1):\n        return item\n"
        "    @staticmethod\n    def make(kind=None):\n        return Box()\n")
    (tmp_path / "user.py").write_text(
        "import mod\nmod.f(0, 1, e=5)\nargs = (1, 2)\nmod.g(*args)\n"
        "mod.Box.make().put(1)\n")
    assert parameters_without_caller(tmp_path, sorted(tmp_path.glob("*.py"))) == [
        "mod.f(c)", "mod.f(d)", "mod.Box.put(size)", "mod.Box.make(kind)"]


def test_every_defaulted_parameter_has_a_caller():
    """A default that no program caller overrides is a setting only unit
    tests change: a second configuration to test that the program never
    runs.  Make it a constant.  A needed exemption is listed here with a
    one-line reason, as NO_CALLER_NEEDED lists names."""
    assert parameters_without_caller(PACKAGE, CALLERS) == []


def test_no_command_imports_scipy(tmp_path):
    """koopmode calls LAPACK through _lapack, which loads scipy's compiled
    wrappers from their file, and loo labels its clusters with ranking's
    own labeller, so neither the import nor any command pays for a scipy
    package's init: not scipy.linalg's, and not scipy.ndimage's in loo or
    in a rom whose robustness box runs leave-one-out.  Nor does any
    command import numpy.ma, which np.unique's first call does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(f"input = {tmp_path / 'synth' / 'oracle.dmds'}\nsynth_d = 60\nsynth_n = 48\n"
                   "rank = 17\nloo_trials = 5\nrom.robust.robustness_min = 1000\n"
                   "slice_modes = 1,2\n")
    code = ("import sys, koopmode.cli\n"
            "assert 'koopmode.ranking' in sys.modules\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "for command in ('synth', 'run', 'loo', 'rom', 'slice'):\n"
            "    out = sys.argv[2] + '/' + command\n"
            "    assert koopmode.cli.main([command, '--config', sys.argv[1], '--out', out]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))")
    done = subprocess.run([sys.executable, "-c", code, str(cfg), str(tmp_path)], env=env,
                          check=True, timeout=120, capture_output=True, text=True)
    assert done.stdout.splitlines()[-2:] == ["[]", "[]"]
    assert (tmp_path / "loo" / "kde_grid.csv").is_file()
    assert (tmp_path / "rom" / "rom_robust_errors.csv").is_file()
    assert (tmp_path / "slice" / "slice_mode2_phase.csv").is_file()


@st.composite
def matrices(draw):
    """Tall and wide float64 matrices, C- or F-ordered."""
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    a = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((m, n))
    return np.asarray(a, order=draw(st.sampled_from("CF")))


@given(a=matrices())
@settings(max_examples=60, deadline=None)
def test_lapack_matches_scipy_linalg_bitwise(a):
    """The same compiled routines with the same arguments and workspace
    sizes: the SVD and the raw QR are scipy.linalg's to the bit."""
    import scipy.linalg

    for got, want in zip(_lapack.svd(a), scipy.linalg.svd(a, full_matrices=False)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    (want_h, want_tau), want_r = scipy.linalg.qr(a, mode="raw")
    h, tau, info = _lapack.geqrf(a.copy(order="K"))
    assert info == 0
    assert np.array_equal(h, want_h) and np.array_equal(tau, want_tau)
    assert np.array_equal(np.triu(h[:a.shape[1]]), want_r)


def test_lapack_svd_rejects_nan_as_scipy_does():
    import scipy.linalg

    a = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(Exception) as want:
        scipy.linalg.svd(a, full_matrices=False)
    with pytest.raises(Exception) as got:
        _lapack.svd(a)
    assert (got.type, str(got.value)) == (want.type, str(want.value))


@pytest.mark.parametrize("name", ["dgesdd", "dgesdd_lwork", "dgeqrf", "dtpqrt", "dtpmqrt",
                                  "dormqr"])
def test_lapack_routines_are_scipys(name):
    """Each routine _lapack loads has scipy.linalg.lapack's signature."""
    import scipy.linalg.lapack

    assert getattr(_lapack._FLAPACK, name).__doc__ == getattr(scipy.linalg.lapack, name).__doc__


def test_missing_lapack_extension_names_the_folder(tmp_path, monkeypatch):
    fake = importlib.machinery.ModuleSpec("scipy", None, origin=str(tmp_path / "__init__.py"))
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake)
    with pytest.raises(ImportError, match=re.escape(f" in {tmp_path / 'linalg'}")):
        _lapack._load_flapack()


def test_readme_quick_start_runs(capsys):
    """The README's Python quick start, run as written: a public name it
    uses cannot disappear unnoticed."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start (library)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert "period" in capsys.readouterr().out
