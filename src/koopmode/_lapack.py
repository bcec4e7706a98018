"""The LAPACK routines dmd calls, from scipy/linalg/_flapack, the f2py
extension behind scipy.linalg.lapack, loaded from its file: its init needs
only numpy's C API, while scipy.linalg's package init (an array-API clone
of numpy importing numpy.testing, numpy.f2py and more) is half of a
command's start-up.  svd and geqrf pass scipy.linalg's arguments and
workspace sizes, so they return its bits."""
import importlib.machinery
import importlib.util
from pathlib import Path

import numpy as np


def _load_flapack():
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        raise ImportError("koopmode needs scipy's LAPACK wrappers: scipy is not installed")
    folder = Path(spec.origin).parent / "linalg"
    path = folder / f"_flapack{importlib.machinery.EXTENSION_SUFFIXES[0]}"
    if not path.is_file():
        raise ImportError(f"koopmode needs scipy's LAPACK wrappers: no {path.name} in {folder}")
    loader = importlib.machinery.ExtensionFileLoader("koopmode._flapack", str(path))
    module = loader.create_module(importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module


_FLAPACK = _load_flapack()
dtpqrt, dtpmqrt, dormqr = _FLAPACK.dtpqrt, _FLAPACK.dtpmqrt, _FLAPACK.dormqr


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """scipy.linalg.svd(a, full_matrices=False) of a real matrix: gesdd."""
    a = np.asarray_chkfinite(a)
    work, _ = _FLAPACK.dgesdd_lwork(*a.shape, compute_uv=1, full_matrices=0)
    u, s, vt, info = _FLAPACK.dgesdd(a, compute_uv=1, full_matrices=0, lwork=int(work.real))
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal gesdd")
    return u, s, vt


def geqrf(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """scipy.linalg.qr(a, mode="raw", overwrite_a=True, check_finite=False)'s
    reflectors and scales, and geqrf's info: an F-ordered float64 a is overwritten."""
    *_, work, _ = _FLAPACK.dgeqrf(a, lwork=-1, overwrite_a=1)
    h, tau, _, info = _FLAPACK.dgeqrf(a, lwork=int(work[0]), overwrite_a=1)
    return h, tau, info
