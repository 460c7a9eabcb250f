"""Where the benchmark finds the package, and what machine it runs on."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# one closed-loop client: numpy's BLAS pools stay single-threaded, so the
# only extra threads are the ones `verify --workers 2` asks for
_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> None:
    """Put this checkout's package first on sys.path; refuse to run without it.

    An installed copy elsewhere must never stand in for the source tree the
    benchmark was handed.
    """
    if not (SRC / "annurates" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source at {SRC}")
    for name in _THREAD_ENV:
        os.environ[name] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import annurates

    if Path(annurates.__file__).resolve().parent != SRC / "annurates":
        raise SystemExit(f"benchmark: imported annurates from {annurates.__file__}")


def machine() -> dict:
    """Hardware and software the figures were measured on."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
