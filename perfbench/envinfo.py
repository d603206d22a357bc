"""Run environment for the benchmark: BLAS thread pinning and the env block.

``pin_blas_threads`` must run before numpy is imported anywhere in the
process; ``env_block`` then verifies the pin against the loaded OpenBLAS.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Names under which OpenBLAS builds export openblas_get_num_threads.
_GET_THREADS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads")

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def pin_blas_threads() -> None:
    """Pin BLAS to ``BLAS_THREADS`` and put the repository's ``src`` on the path."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas_threads must run before numpy is imported")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in _GET_THREADS:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def env_block() -> dict:
    """numpy/BLAS versions, verified BLAS threads, nproc, Python, CPU, commit."""
    import numpy as np

    threads = blas_threads()
    if threads is not None and threads != BLAS_THREADS:
        raise RuntimeError(f"OpenBLAS runs {threads} threads, expected {BLAS_THREADS}")
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_verified": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }
