"""Pocket-conditioned GFlowNet molecule generation with a geometry-aware conditioning stack.

Importing the package sets numpy's BLAS to one thread for the whole process.
The matrices here are small: a second BLAS thread buys no wall time but
doubles the CPU of every training step, and it changes the order of
floating-point sums, so checkpoint bytes would depend on the thread count.
``BLAS_PINNED`` says whether it worked: it needs the OpenBLAS that numpy
wheels ship in ``numpy.libs``. Where that is not found the threads are left
alone, and ``training.train`` records the BLAS setting in the checkpoint
meta instead.
"""

import os

import numpy as np

__version__ = "0.1.0"

# OpenBLAS's thread setter, by the names its builds export: the scipy-openblas
# wheel numpy ships, a 64-bit-integer build, a plain build
BLAS_SET_THREADS_SYMBOLS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads")


def _pin_blas_to_one_thread() -> bool:
    """Call the first thread setter found in numpy's bundled OpenBLAS with 1;
    True if one was found. Loading the library again by its path returns the
    handle numpy already uses."""
    import ctypes  # here, not at the top: the import costs ~3 ms

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(os.listdir(libs))
    except OSError:
        return False
    for name in names:
        if "openblas" not in name:
            continue
        try:
            dll = ctypes.CDLL(os.path.join(libs, name))
        except OSError:
            continue
        for symbol in BLAS_SET_THREADS_SYMBOLS:
            set_threads = getattr(dll, symbol, None)
            if set_threads is not None:
                set_threads(1)
                return True
    return False


BLAS_PINNED = _pin_blas_to_one_thread()
