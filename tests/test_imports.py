"""Every name a package module imports is used in that module, every
public name it defines has a caller, every defaulted parameter of a
public function has a caller that sets it, the command-line module loads
no more than its commands need (no scipy module or library at all, no
numpy.random outside synth, and one OpenBLAS: _lapack calls numpy's, and
on one BLAS thread its QR routines are scipy.linalg.lapack's and its
zgelsd np.linalg.lstsq's, to the bit), and README's library quick start
runs.

The unused-import and caller checks read the sources with the stdlib ast
module, so they need no linter.  __init__.py is exempt (its imports are
re-exports), and so are `from __future__` imports.
"""
import ast
import contextlib
import ctypes
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmode import _lapack, dmd

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


def package_env() -> dict:
    """The environment with this checkout's package first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    return env


def toy_config(folder: Path) -> Path:
    """A config for every command on a 60 x 48 synth in folder/synth."""
    cfg = folder / "toy.cfg"
    cfg.write_text(f"input = {folder / 'synth' / 'oracle.dmds'}\nsynth_d = 60\nsynth_n = 48\n"
                   "rank = 17\nloo_trials = 5\nrom.robust.robustness_min = 1000\n"
                   "slice_modes = 1,2\n")
    return cfg


def assert_toy_outputs(folder: Path) -> None:
    """loo, the robustness box of rom and slice wrote their files."""
    assert (folder / "loo" / "kde_grid.csv").is_file()
    assert (folder / "rom" / "rom_robust_errors.csv").is_file()
    assert (folder / "slice" / "slice_mode2_phase.csv").is_file()


def mapped_files(maps: str) -> set[Path]:
    """The files in a /proc/self/maps listing; skips the test without one."""
    fields = [line.split(None, 5) for line in maps.splitlines()]
    files = {Path(f[5]) for f in fields if len(f) == 6 and f[5].startswith("/")}
    if not files:
        pytest.skip("no /proc/self/maps to read the mapped files from")
    return files


def test_no_command_imports_scipy(tmp_path):
    """koopmode calls LAPACK through _lapack, which binds the OpenBLAS numpy
    links, and loo labels its clusters with ranking's own labeller, so
    neither the import nor any command imports a scipy module (no scipy
    package init: not scipy.linalg's, and not scipy.ndimage's in loo or in
    a rom whose robustness box runs leave-one-out) or maps a scipy library,
    and LAPACK and BLAS share one OpenBLAS.  Nor does any command import
    numpy.ma, which np.unique's first call does."""
    env, cfg = package_env(), toy_config(tmp_path)
    code = ("import os, sys, koopmode.cli\n"
            "assert 'koopmode.ranking' in sys.modules\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "for command in ('synth', 'run', 'loo', 'rom', 'slice'):\n"
            "    out = sys.argv[2] + '/' + command\n"
            "    assert koopmode.cli.main([command, '--config', sys.argv[1], '--out', out]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
            "if os.path.exists('/proc/self/maps'):\n"
            "    with open('/proc/self/maps') as fh:\n"
            "        sys.stderr.write(fh.read())")
    done = subprocess.run([sys.executable, "-c", code, str(cfg), str(tmp_path)], env=env,
                          check=True, timeout=120, capture_output=True, text=True)
    assert done.stdout.splitlines()[-2:] == ["[]", "[]"]
    assert_toy_outputs(tmp_path)
    files = mapped_files(done.stderr)
    assert [f for f in files if {"scipy", "scipy.libs"} & set(f.parts)] == []
    assert len([f for f in files if f.name.startswith("libscipy_openblas")]) == 1, sorted(files)


def test_analysis_commands_load_no_numpy_random(tmp_path):
    """leave_one_out draws its columns from the standard library's
    random.Random, seeded with an int, so in a process that runs no synth
    (whose noise stays numpy's), run, loo, rom with a robustness box and
    slice import no numpy.random, nor hashlib, nor the secrets, hmac and
    _hashlib modules numpy.random's seeding imports, and map no OpenSSL
    libcrypto."""
    from koopmode.cli import main

    cfg = toy_config(tmp_path)
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "synth")]) == 0
    code = ("import os, sys, koopmode.cli\n"
            "for command in ('run', 'loo', 'rom', 'slice'):\n"
            "    out = sys.argv[2] + '/' + command\n"
            "    assert koopmode.cli.main([command, '--config', sys.argv[1], '--out', out]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'random']\n"
            "             or m in ('secrets', 'hmac', 'hashlib', '_hashlib')))\n"
            "if os.path.exists('/proc/self/maps'):\n"
            "    with open('/proc/self/maps') as fh:\n"
            "        sys.stderr.write(fh.read())")
    done = subprocess.run([sys.executable, "-c", code, str(cfg), str(tmp_path)], env=package_env(),
                          check=True, timeout=120, capture_output=True, text=True)
    assert done.stdout.splitlines()[-1] == "[]"
    assert_toy_outputs(tmp_path)
    files = mapped_files(done.stderr)
    assert [f for f in files if f.name.startswith("libcrypto")] == [], sorted(files)


@contextlib.contextmanager
def one_blas_thread():
    """numpy's OpenBLAS and scipy's on one thread inside the block, since
    the bits the program promises are one BLAS thread's: on two, scipy
    1.17's OpenBLAS 0.3.30 rounds some tpqrt calls with nb > 16 apart from
    its own one-thread bits."""
    import numpy.linalg._umath_linalg
    import scipy.linalg.lapack

    pools = [(ctypes.CDLL(numpy.linalg._umath_linalg.__file__), "64_")]
    pools += [(ctypes.CDLL(str(path)), "") for path in
              (Path(scipy.__file__).parents[1] / "scipy.libs").glob("libscipy_openblas*")]
    calls = [(getattr(lib, f"scipy_openblas_get_num_threads{suffix}"),
              getattr(lib, f"scipy_openblas_set_num_threads{suffix}")) for lib, suffix in pools]
    before = [get() for get, _ in calls]
    for _, set_threads in calls:
        set_threads(1)
    try:
        yield scipy.linalg.lapack
    finally:
        for (_, set_threads), threads in zip(calls, before):
            set_threads(threads)


sizes = st.one_of(st.just(1), st.integers(1, 40))


@st.composite
def matrices(draw, rows=sizes, cols=sizes):
    """Tall and wide float64 matrices, one-row and one-column ones
    included, C- or F-ordered."""
    m, n = draw(rows), draw(cols)
    a = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((m, n))
    return np.asarray(a, order=draw(st.sampled_from("CF")))


def assert_matches_scipy(a: np.ndarray, c: np.ndarray) -> None:
    """dmd's SVD of a, and geqrf and dormqr of a, the latter on c, against
    scipy's, the SVD's factors in scipy's F order too.  dormqr applies
    Q^T on a one-item workspace, as dmd calls it, so c has one column."""
    import scipy.linalg
    import scipy.linalg.lapack

    for got, want in zip(dmd._svd(a), scipy.linalg.svd(a, full_matrices=False)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert got.flags.f_contiguous == want.flags.f_contiguous
    (want_h, want_tau), want_r = scipy.linalg.qr(a, mode="raw")
    ours = a.copy(order="K")
    h, tau, info = _lapack.geqrf(ours)
    assert info == 0 and np.shares_memory(h, ours) == ours.flags.f_contiguous
    assert np.array_equal(h, want_h) and np.array_equal(tau, want_tau)
    assert np.array_equal(np.triu(h[:a.shape[1]]), want_r)
    got = _lapack.dormqr(h[:, :tau.size], tau, c)
    want = scipy.linalg.lapack.dormqr("L", "T", h[:, :tau.size], tau, c, 1)
    assert got[1] == want[2] == 0 and not np.shares_memory(got[0], c)
    assert np.array_equal(got[0], want[0])


@given(a=matrices(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_lapack_matches_scipy_linalg_bitwise(a, data):
    """The same routines with the same arguments and workspace sizes, at
    the default BLAS threads: numpy.linalg's SVD, as dmd takes it, and the
    raw QR are scipy.linalg's to the bit, geqrf overwrites an
    F-ordered input, and dormqr on the least workspace (dmd's lwork = 1
    for its one column) is scipy.linalg.lapack's."""
    assert_matches_scipy(a, data.draw(matrices(rows=st.just(a.shape[0]), cols=st.just(1))))


@pytest.mark.parametrize("shape", [(400, 144), (144, 300), (288, 144)])
def test_lapack_blocked_paths_match_scipy_bitwise(shape):
    """Past 128 columns geqrf blocks its reflectors, and gesdd takes the
    paths the queried workspace allows, so the sizes the queries return
    decide the bits."""
    rng = np.random.default_rng(shape[0])
    assert_matches_scipy(np.asfortranarray(rng.standard_normal(shape)),
                         rng.standard_normal((shape[0], 1)))


@given(data=st.data(), n=sizes, m=sizes, merge=st.booleans(),
       orders=st.tuples(*[st.sampled_from("CF")] * 4))
@settings(max_examples=60, deadline=None)
def test_lapack_tpqrt_matches_scipy_bitwise(data, n, m, merge, orders):
    """dtpqrt folds a block (l = 0) or a triangle (l = N, a merge) into an
    N x N triangle, as pass 1 does, and dtpmqrt carries columns by its
    reflectors with trans = "T": R, V, T and the carried columns are
    scipy.linalg.lapack's to the bit, for every block size nb."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = n if merge else m
    l = n if merge else 0
    a = np.asarray(np.triu(rng.standard_normal((n, n))), order=orders[0])
    b = rng.standard_normal((m, n))
    b = np.asarray(np.triu(b) if merge else b, order=orders[1])
    nb = data.draw(st.integers(1, n))
    top = np.asarray(rng.standard_normal((n, data.draw(st.integers(1, 3)))), order=orders[2])
    rest = np.asarray(rng.standard_normal((m, top.shape[1])), order=orders[3])
    with one_blas_thread() as lapack:
        ours = a.copy(order="K"), b.copy(order="K")
        got = _lapack.dtpqrt(l, nb, *ours)
        want = lapack.dtpqrt(l, nb, a, b, overwrite_a=1, overwrite_b=1)
        assert got[3] == want[3] == 0
        assert [np.shares_memory(x, y) for x, y in zip(got, ours)] == [
            y.flags.f_contiguous for y in ours]
        assert all(np.array_equal(x, y) for x, y in zip(got[:3], want[:3]))
        carried = _lapack.dtpmqrt(l, got[1], got[2], top, rest)
        expected = lapack.dtpmqrt(l, want[1], want[2], top, rest, trans="T")
    assert carried[2] == expected[2] == 0
    assert all(np.array_equal(x, y) for x, y in zip(carried[:2], expected[:2]))


@given(a=matrices(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_lapack_zgelsd_is_numpys_lstsq_bitwise(a, data):
    """zgelsd with numpy's rcond, B buffer and queried workspace returns
    np.linalg.lstsq's solution, rank and singular values to the bit, on
    tall, wide and rank-deficient complex systems."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = a + 1j * rng.standard_normal(a.shape)  # in a's order
    if data.draw(st.booleans()):
        a[:, -1] = a[:, 0]
    b = rng.standard_normal(a.shape[0])
    x, _, rank, s = np.linalg.lstsq(a, b.astype(complex), rcond=None)
    got = _lapack.zgelsd(a.copy(order="K"), b)
    assert got[3] == 0 and got[1] == rank
    assert got[0].tobytes() == x.tobytes() and got[2].tobytes() == s.tobytes()


def test_lapack_svd_rejects_nan_as_scipy_does():
    import scipy.linalg

    a = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(Exception) as want:
        scipy.linalg.svd(a, full_matrices=False)
    with pytest.raises(Exception) as got:
        dmd._svd(a)
    assert (got.type, str(got.value)) == (want.type, str(want.value))


def test_missing_lapack_routine_names_it_and_the_library():
    """Bound against a library that links no LAPACK (Python's _ctypes
    extension), the lookup fails on the first routine and says which, and
    in which file it looked."""
    import _ctypes

    path = getattr(_ctypes, "__file__", None)
    if path is None:
        pytest.skip("_ctypes is built into the interpreter")
    with pytest.raises(ImportError, match=re.escape(f"LAPACK's dgeqrf, and {path} exports no")):
        _lapack._bind(path)


@pytest.mark.parametrize("folder", ["numpy.libs", "numpy/.dylibs", None])
def test_lapack_opens_the_openblas_file_else_the_extension(tmp_path, monkeypatch, folder):
    """The OpenBLAS file in the folder a wheel ships it in (numpy.libs on
    Linux and Windows, numpy/.dylibs on macOS) is opened by its path; with
    none, numpy.linalg's extension is."""
    import numpy.linalg._umath_linalg

    (tmp_path / "numpy").mkdir()
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    if folder is None:
        assert _lapack._openblas() == numpy.linalg._umath_linalg.__file__
        return
    (tmp_path / folder).mkdir()
    (tmp_path / folder / "libscipy_openblas64_-0123abcd.dll").touch()
    assert _lapack._openblas() == str(tmp_path / folder / "libscipy_openblas64_-0123abcd.dll")


@pytest.mark.parametrize("name", sorted(_lapack._ROUTINES))
def test_lapack_routine_is_numpys_openblas(name):
    """Each routine _lapack calls is the ILP64 one in the OpenBLAS numpy's
    wheel ships, the library numpy.linalg's BLAS calls run in."""
    libs = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*"))
    if not libs:
        pytest.skip("numpy is not a wheel that ships scipy-openblas64")
    address = ctypes.cast(getattr(ctypes.CDLL(str(libs[0])), f"scipy_{name}_64_"), ctypes.c_void_p)
    assert len(libs) == 1
    assert ctypes.cast(_lapack._LAPACK[name], ctypes.c_void_p).value == address.value


@pytest.mark.parametrize("call", [
    lambda: _lapack.dormqr(np.ones((4, 2)), np.ones(3), np.ones((4, 1))),
    lambda: _lapack.dtpqrt(0, 1, np.eye(3), np.ones((5, 2))),
    lambda: _lapack.dtpmqrt(0, np.ones((5, 2)), np.ones((1, 2)), np.ones((3, 1)),
                            np.ones((5, 1))),
    lambda: _lapack.zgelsd(np.ones((4, 2), complex), np.ones(3)),
], ids=["dormqr", "dtpqrt", "dtpmqrt", "zgelsd"])
def test_lapack_rejects_mismatched_shapes(call):
    """LAPACK reads each array through its pointer by the sizes it is told,
    so a shape that disagrees with the others is a ValueError before the
    call, not a read past an array's end."""
    with pytest.raises(ValueError, match="^(dormqr|dtpqrt|dtpmqrt|zgelsd): "):
        call()


def test_readme_quick_start_runs(capsys):
    """The README's Python quick start, run as written: a public name it
    uses cannot disappear unnoticed."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start (library)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert "period" in capsys.readouterr().out
