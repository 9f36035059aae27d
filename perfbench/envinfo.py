"""The environment a benchmark figure was measured in.

Records Python, numpy, the BLAS numpy was built against, the CPUs this
process may use and the thread count the loaded OpenBLAS reports.  Nothing
here sets a thread count: the benchmark runs with the threads a user gets.
"""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np

# thread-count and config symbols of the OpenBLAS builds numpy ships with
_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")
_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config")
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")


def _loaded_openblas() -> str | None:
    """Path of the OpenBLAS shared object mapped into this process, if any."""
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in path.lower() and ".so" in path:
                    return path
    except OSError:
        return None
    return None


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def openblas_info() -> dict:
    """Thread count and runtime config string of the loaded OpenBLAS (None when not found)."""
    path = _loaded_openblas()
    if path is None:
        return {"library": None, "threads": None, "config": None}
    lib = ctypes.CDLL(path)
    config = _call(lib, _CONFIG_SYMBOLS, ctypes.c_char_p)
    return {
        "library": os.path.basename(path),
        "threads": _call(lib, _THREAD_SYMBOLS, ctypes.c_int),
        "config": config.decode(errors="replace") if config else None,
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas": openblas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        # inherited from the caller, never set by the benchmark
        "blas_env": {name: os.environ[name] for name in BLAS_ENV_VARS if name in os.environ},
    }
