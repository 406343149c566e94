"""Environment recorded with every benchmark result."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

# run.py sets these to 1 before numpy loads; each result records them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def loadavg_1min() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def _git(root: Path, *args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def blas_name() -> str:
    import numpy as np
    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError):
        return "unknown"


def environment(root: Path) -> dict:
    """Versions, BLAS threading, CPU counts and source revision."""
    import numpy as np
    import scipy

    sha = _git(root, "rev-parse", "HEAD")
    dirty = _git(root, "status", "--porcelain") if sha else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "executable": Path(sys.executable).name,
        "git_sha": sha,
        "git_dirty": None if dirty is None else bool(dirty),
    }
