"""The LAPACK routines that dmd calls, bound with ctypes in the OpenBLAS numpy
itself links (scipy-openblas64 in numpy's wheels), so a process maps one
OpenBLAS, with one thread pool, and no scipy object.  The library is
opened by its file, which the wheels ship in numpy.libs (Linux and
Windows) or numpy/.dylibs (macOS), since a lookup through the handle of
numpy.linalg's extension reaches the libraries it links only where
dlsym searches them; that handle is the fallback.  The routines have
the wheels' ILP64 names, scipy_<name>_64_, and take 64-bit integers and
Fortran's hidden string lengths.

Each QR function takes the arguments of scipy.linalg.lapack's f2py wrapper
of the same name and does what it does: inputs are copied to F order,
unless the caller hands over an F-ordered float64 array to overwrite;
outputs start zeroed; geqrf queries its workspace size as scipy.linalg
does.  So on one BLAS thread every result is scipy's, to
the bit.  (On two, scipy 1.17's OpenBLAS 0.3.30 rounds some tpqrt calls
with nb > 16 apart from its own one-thread bits; numpy's 0.3.31 gave the
one-thread bits on both.)  zgelsd, the least-squares solver, is called
as np.linalg.lstsq calls it, so its results are lstsq's, but on the
caller's matrix in place.  Without these routines in numpy's LAPACK, the
import raises ImportError."""
import ctypes
from pathlib import Path

import numpy as np
import numpy.linalg._umath_linalg

# Each routine's arguments, info included, all passed by reference, and
# how many of them are one-letter strings, whose hidden lengths follow.
_ROUTINES = {"dgeqrf": (8, 0), "dormqr": (13, 2), "dtpqrt": (12, 0), "dtpmqrt": (17, 2),
             "zgelsd": (15, 0)}


def _bind(path: str) -> dict:
    """The routines from the library at path or one it links: ImportError
    naming the routine and the file when one is missing."""
    lib = ctypes.CDLL(path)
    found = {}
    for name, (args, strings) in _ROUTINES.items():
        try:
            found[name] = getattr(lib, f"scipy_{name}_64_")
        except AttributeError:
            raise ImportError(f"koopmode needs LAPACK's {name}, and {path} exports no "
                              f"scipy_{name}_64_: numpy is not linked to scipy-openblas64") from None
        found[name].argtypes = [ctypes.c_void_p] * args + [ctypes.c_size_t] * strings
        found[name].restype = None
    return found


def _openblas() -> str:
    """The file of the OpenBLAS numpy's wheel ships, else that of
    numpy.linalg's extension."""
    package = Path(np.__file__).parent
    found = [*(package.parent / "numpy.libs").glob("libscipy_openblas64_*"),
             *(package / ".dylibs").glob("libscipy_openblas64_*")]
    return str(min(found)) if found else numpy.linalg._umath_linalg.__file__


_LAPACK = _bind(_openblas())


def _call(name: str, *args) -> int:
    """LAPACK's name on args in Fortran's order, up to the info it returns:
    an array goes by its data, a str as a one-letter Fortran string whose
    hidden length follows the arguments, an integer by reference."""
    info = ctypes.c_int64()
    _LAPACK[name](*(a.ctypes.data if isinstance(a, np.ndarray) else a.encode()
                    if isinstance(a, str) else ctypes.byref(ctypes.c_int64(a)) for a in args),
                  ctypes.byref(info), *[1 for a in args if isinstance(a, str)])
    return info.value


def geqrf(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """scipy.linalg.qr(a, mode="raw", overwrite_a=True, check_finite=False)'s
    reflectors and scales, and geqrf's info: an F-ordered float64 a is overwritten."""
    a = np.require(a, np.float64, "FAW")
    m, n = a.shape
    tau, query = np.zeros(min(m, n)), np.zeros(1)
    _call("dgeqrf", m, n, a, m, tau, query, -1)
    lwork = int(query[0])
    return a, tau, _call("dgeqrf", m, n, a, m, tau, np.zeros(max(lwork, 1)), lwork)


def dormqr(a: np.ndarray, tau: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, int]:
    """scipy.linalg.lapack.dormqr("L", "T", a, tau, c, 1)'s c and info: a
    copy of c, one column, multiplied by geqrf's Q^T."""
    a, tau = np.require(a, np.float64, "F"), np.require(tau, np.float64, "C")
    c = np.array(c, np.float64, order="F")
    (lda, k), (m, n) = a.shape, c.shape
    if tau.shape != (k,):
        raise ValueError(f"dormqr: {k} reflectors and {tau.size} scales")
    return c, _call("dormqr", "L", "T", m, n, k, a, lda, tau, c, m, np.zeros(1), 1)


def dtpqrt(l: int, nb: int, a: np.ndarray, b: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """scipy.linalg.lapack.dtpqrt(l, nb, a, b, overwrite_a=1, overwrite_b=1):
    the QR of [a; b], a n x n upper triangular and b pentagonal with l
    trapezoidal rows; returns R, V, T and info."""
    a, b = np.require(a, np.float64, "FAW"), np.require(b, np.float64, "FAW")
    m, n = b.shape
    if a.shape != (n, n):
        raise ValueError(f"dtpqrt: a {a.shape} is not square on b {b.shape}")
    t = np.zeros((nb, n), order="F")
    info = _call("dtpqrt", m, n, l, nb, a, max(1, n), b, max(1, m), t, max(1, nb),
                 np.zeros(max(nb, 1) * n))
    return a, b, t, info


def dtpmqrt(l: int, v: np.ndarray, t: np.ndarray, a: np.ndarray, b: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, int]:
    """scipy.linalg.lapack.dtpmqrt(l, v, t, a, b, trans="T"): copies of a
    and b, stacked, multiplied from the left by Q^T of dtpqrt's V and T."""
    v, t = np.require(v, np.float64, "F"), np.require(t, np.float64, "F")
    a, b = np.array(a, np.float64, order="F"), np.array(b, np.float64, order="F")
    (nb, k), (m, n) = t.shape, b.shape
    if v.shape != (m, k) or a.shape != (k, n):
        raise ValueError(f"dtpmqrt: v {v.shape}, t {t.shape}, a {a.shape} and b {b.shape}")
    info = _call("dtpmqrt", "L", "T", m, n, k, l, nb, v, max(1, m), t, max(1, nb), a, max(1, k),
                 b, max(1, m), np.zeros(max(1, n * nb)))
    return a, b, info


def zgelsd(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int, np.ndarray, int]:
    """np.linalg.lstsq(a, b, rcond=None)'s solution, rank and singular values
    for one right-hand side, and gelsd's info, by numpy's call: rcond
    eps max(M, N), b in a max(M, N)-row buffer, the queried workspace.  An
    F-ordered complex128 a is overwritten, in place of numpy's copy."""
    a = np.require(a, np.complex128, "FAW")
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError(f"zgelsd: a {a.shape} and b {b.shape}")
    x = np.zeros(max(m, n), np.complex128)
    x[:m] = b
    s, rank = np.zeros(min(m, n)), np.zeros(1, np.int64)
    head = (m, n, 1, a, max(1, m), x, max(1, m, n), s,
            np.array([np.finfo(np.float64).eps * max(m, n)]), rank)
    work, rwork, iwork = np.zeros(1, np.complex128), np.zeros(1), np.zeros(1, np.int64)
    _call("zgelsd", *head, work, -1, rwork, iwork)
    lwork = int(work[0].real)
    info = _call("zgelsd", *head, np.zeros(max(lwork, 1), np.complex128), lwork,
                 np.zeros(max(int(rwork[0]), 1)), np.zeros(max(int(iwork[0]), 1), np.int64))
    return x[:n], int(rank[0]), s, info
