"""Where a result came from: commit, machine, library versions, and an
in-run matmul calibration to read the other numbers against."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from time import perf_counter
from typing import Dict

import numpy as np

__all__ = ["collect"]


def _git_sha(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f'{blas.get("name", "blas")} {blas.get("version", "unknown")}'
    except (TypeError, KeyError):  # older numpy: no dict mode
        return "unknown"


def _matmul_gflops(n: int = 1024, reps: int = 5) -> float:
    a = np.random.default_rng(0).standard_normal((n, n)).astype(np.float32)
    best = float("inf")
    for _ in range(reps):
        t0 = perf_counter()
        a @ a
        best = min(best, perf_counter() - t0)
    return 2.0 * n**3 / best / 1e9


def collect(root: Path, seed: int) -> Dict:
    return {
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _openblas_version(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
        "calib.matmul_gflops": _matmul_gflops(),
    }
