"""Process set-up shared by the benchmark's entry points.

Thread counts of the BLAS and OpenMP runtimes must be fixed before numpy
is first imported, so every entry point calls :func:`prepare` before it
imports anything that pulls numpy in.
"""

from __future__ import annotations

import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: One BLAS/OpenMP thread: the small products of the closed form and the
#: oracle lose time to thread hand-off, and one thread keeps runs steady.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/ramangn`` package to measure."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare() -> None:
    """Pin the thread counts and put the checkout's ``src`` first on the path."""
    threads = str(min(BLAS_THREADS, nproc()))
    for name in THREAD_VARS:
        os.environ[name] = threads
    if not os.path.isfile(os.path.join(SRC, "ramangn", "__init__.py")):
        raise MissingProgram(f"no ramangn package under {SRC}")
    sys.path.insert(0, SRC)
    import ramangn

    if os.path.dirname(os.path.dirname(os.path.abspath(ramangn.__file__))) != SRC:
        raise MissingProgram(
            f"ramangn was imported from {ramangn.__file__}, not from {SRC}")


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def describe() -> dict:
    """Commit, machine and library versions recorded with every result."""
    import numpy
    import scipy

    return {
        "commit": _git_commit(),
        "nproc": nproc(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
