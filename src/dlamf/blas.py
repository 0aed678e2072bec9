"""Thread counts of the two OpenBLAS pools that NumPy and SciPy wheels bundle.

NumPy's wheel carries libscipy_openblas64_ and SciPy's libscipy_openblas,
each with a pool of as many threads as CPUs. The per-matrix LAPACK loops of
estimators._spectral_rows and detectors._cholesky_forms call SciPy's
library between NumPy's BLAS calls, and the two pools then fight over the
CPUs: on a two-CPU host, 256 trials of a fixed-loading set at N=128,
K=256 took 7.5-8 s with both pools at their two threads against 0.9 s
with one. one_scipy_thread holds SciPy's pool at one thread for such a loop;
pin_one_thread pins both pools of a worker process. The thread counts
only decide how fast these calls run: the trial engine's statistics are
the same bits with the default pools and with OPENBLAS_NUM_THREADS=1.

The libraries are found in the wheels' scipy.libs and numpy.libs folders
on first use, among the ones the process has already loaded (RTLD_NOLOAD);
no library is loaded here. Where a symbol is absent (another BLAS, another
wheel layout), its pool is left alone and every call here does nothing for
it.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os

import numpy as np
import scipy

# {package: (get_num_threads, set_num_threads)} once looked up
_pools = None


def _lookup(package, suffix):
    """package's OpenBLAS (get, set) thread-count functions, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                        package.__name__ + ".libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
            return (getattr(lib, f"scipy_openblas_get_num_threads{suffix}"),
                    getattr(lib, f"scipy_openblas_set_num_threads{suffix}"))
        except (OSError, AttributeError):
            continue
    return None


def pools():
    """{"scipy": (get, set), "numpy": (get, set)} of the pools found."""
    global _pools
    if _pools is None:
        found = {"scipy": _lookup(scipy, ""), "numpy": _lookup(np, "64_")}
        _pools = {name: fns for name, fns in found.items() if fns}
    return _pools


@contextlib.contextmanager
def one_scipy_thread():
    """Hold SciPy's pool at one thread in the block, then restore its
    count, also when the block raises."""
    pool = pools().get("scipy")
    threads = pool[0]() if pool else 1
    if threads == 1:
        yield
        return
    pool[1](1)
    try:
        yield
    finally:
        pool[1](threads)


def pin_one_thread():
    """Set both pools to one thread for the rest of the process: the
    initializer of the trial engine's worker processes."""
    for _, set_threads in pools().values():
        set_threads(1)
