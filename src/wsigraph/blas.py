"""The OpenBLAS that numpy and scipy load: one thread while the pipeline
computes, and LAPACK's two-stage symmetric band eigensolver; and the count of
cores the process may use.

The numpy and scipy wheels each bundle OpenBLAS, which starts one thread per
core in every process unless OPENBLAS_NUM_THREADS says otherwise.  Under a
worker pool that oversubscribes the cores, and the thread count also moves
results in the last bits.  `one_blas_thread()` sets every OpenBLAS loaded in
the process to one thread and restores the old counts on exit; pool workers
forked inside it inherit the single thread.

Both bundled builds also export LAPACKE's `dsbev_2stage`, the two-stage
band-to-tridiagonal reduction (Haidar, Ltaief and Dongarra, SC 2011), which
scipy does not wrap.  `band_eigenvalues(band)` calls it through ctypes, and
falls back to `scipy.linalg.eigvals_banded` (one-stage `dsbevd`) where no
loaded library exports it.

The libraries are looked up once, at the first call, by which time importing
wsigraph has loaded numpy's and scipy's.  Where no OpenBLAS is found (another
BLAS, or no /proc/self/maps), `one_blas_thread()` does nothing, the threads
are capped by the environment instead, and the band solve takes the fallback.

`usable_cores()` sizes what the pipeline runs side by side: the default
worker pool and the GCN's pass threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from pathlib import Path

import numpy as np
from scipy.linalg import eigvals_banded

# symbol names: plain OpenBLAS, and the renamed builds in the numpy and scipy
# wheels ("scipy_" prefix; the 64_ suffix marks 64-bit integer builds)
_PREFIXES = ("", "scipy_")
_SUFFIXES = ("", "64_")
_LAPACK_COL_MAJOR = 102


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the machine's core count (1 if that is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no sched_getaffinity (macOS, Windows)
        return os.cpu_count() or 1


@functools.cache
def _openblas_libraries() -> tuple:
    """Every OpenBLAS loaded in the process at the first call, in path order."""
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8")
    except OSError:
        return ()
    paths = {line.split(maxsplit=5)[-1] for line in maps.splitlines() if "openblas" in line}
    libs = []
    for path in sorted(paths):
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    return tuple(libs)


def _symbol_namings():
    """Yield (library, prefix, suffix) for every loaded OpenBLAS and symbol naming."""
    for lib in _openblas_libraries():
        for prefix in _PREFIXES:
            for suffix in _SUFFIXES:
                yield lib, prefix, suffix


@functools.cache
def _openblas_controls() -> tuple:
    """(get, set) thread-count functions of every loaded OpenBLAS."""
    controls = []
    for lib, prefix, suffix in _symbol_namings():
        get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
    return tuple(controls)


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with one thread in every loaded OpenBLAS."""
    controls = _openblas_controls()
    saved = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(controls, saved):
            set_(n)


@functools.cache
def _dsbev_2stage():
    """LAPACKE_dsbev_2stage of the first loaded OpenBLAS that exports it, or None."""
    for lib, prefix, suffix in _symbol_namings():
        fn = getattr(lib, f"{prefix}LAPACKE_dsbev_2stage{suffix}", None)
        if fn is not None:
            lapack_int = ctypes.c_int64 if suffix else ctypes.c_int32
            # (layout, jobz, uplo, n, kd, ab, ldab, w, z, ldz)
            fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, lapack_int, lapack_int,
                           ctypes.c_void_p, lapack_int, ctypes.c_void_p, ctypes.c_void_p,
                           lapack_int]
            fn.restype = lapack_int
            return fn
    return None


def band_eigenvalues(band: np.ndarray) -> np.ndarray:
    """All eigenvalues, ascending, of the symmetric matrix with lower band `band`.

    `band` is (kd+1, n) in LAPACK's lower band storage: band[i - j, j] holds
    A[i, j] for j <= i <= j + kd.  It may be overwritten.  A Fortran-ordered
    float64 array is handed to LAPACK as is; any other is copied first.
    Without a loaded `dsbev_2stage`, scipy's `eigvals_banded` solves it.
    """
    fn = _dsbev_2stage()
    if fn is None:
        return eigvals_banded(band, lower=True, overwrite_a_band=True, check_finite=False)
    ab = np.require(band, np.float64, ["F_CONTIGUOUS", "WRITEABLE"])
    ldab, n = ab.shape
    w = np.empty(n)
    info = fn(_LAPACK_COL_MAJOR, b"N", b"L", n, ldab - 1, ab.ctypes.data, ldab,
              w.ctypes.data, None, 1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsbev_2stage failed with info = {info}")
    return w
