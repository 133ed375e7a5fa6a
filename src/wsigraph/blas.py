"""One BLAS thread per process while the pipeline computes.

The numpy and scipy wheels each bundle OpenBLAS, which starts one thread per
core in every process unless OPENBLAS_NUM_THREADS says otherwise.  Under a
worker pool that oversubscribes the cores, and the thread count also moves
results in the last bits.  `one_blas_thread()` sets every OpenBLAS loaded in
the process to one thread and restores the old counts on exit; pool workers
forked inside it inherit the single thread.  The libraries are looked up
once, at the first call, by which time importing wsigraph has loaded numpy's
and scipy's.  Where no OpenBLAS is found (another BLAS, or no
/proc/self/maps), it does nothing, and the threads are capped by the
environment instead.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from pathlib import Path

# symbol names: plain OpenBLAS, and the renamed builds in the numpy and scipy
# wheels (the 64_ suffix marks 64-bit integer builds)
_PREFIXES = ("openblas", "scipy_openblas")
_SUFFIXES = ("", "64_")


@functools.cache
def _openblas_controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS loaded at the first call."""
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8")
    except OSError:
        return ()
    paths = {line.split(maxsplit=5)[-1] for line in maps.splitlines() if "openblas" in line}
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in _PREFIXES:
            for suffix in _SUFFIXES:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
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
