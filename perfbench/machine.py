"""Facts about the machine a result was measured on.

The cache sizes matter for reading spectral_engine.fwht_bytes: a d = 20
int64 vector is 8 MiB, which fits in the last-level cache of most current
servers, so the transform is not bandwidth-bound and the byte figure is a
computed count, never divided by a measured bandwidth.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

D20_VECTOR_BYTES = 8 << 20
_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")
# OpenBLAS builds prefix their symbols differently; numpy's wheels use the first.
_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cache_sizes() -> dict[str, int]:
    """Unified and data cache sizes in bytes, keyed L1d/L2/L3, from sysfs."""
    sizes = {}
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
        sizes[f"L{level}" + ("d" if kind == "Data" else "")] = int(size.rstrip("KM")) * scale
    return sizes


def blas() -> dict:
    """BLAS library numpy was built with, and the thread count it runs with."""
    info = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    out = {"name": info.get("name", "unknown"), "version": info.get("version", "unknown"), "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return out
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = fn()
                return out
    return out


def facts() -> dict:
    caches = cache_sizes()
    l3 = caches.get("L3")
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas(),
        "cache_bytes": caches,
        "d20_vector_bytes": D20_VECTOR_BYTES,
        "d20_vector_fits_l3": None if l3 is None else D20_VECTOR_BYTES <= l3,
    }
