"""Machine record: processor, interpreter and library versions, and the
sgemm ceilings measured at the two GEMM shapes that bound the model's
convolutions.

Run as a script, it prints the ceilings, as JSON, for the BLAS thread count
set in its environment:

    OPENBLAS_NUM_THREADS=2 python3 perfbench/machine.py

With ``--reference`` it times the reference mix once per line read from
standard input, printing each time on its own line.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# (rows, inner, cols) of full-scale im2col GEMMs: pfe's recurrent convolution
# (128*128 pixels, 3*3*16 taps, 4*16 gates) and pf's 5x5 branch
# (128*128 pixels, 5*5*32 taps, 3 channels), the widest and narrowest shapes
SHAPES = {"pfe": (16384, 144, 64), "pf": (16384, 800, 3)}


def sgemm_gflops(rows: int, inner: int, cols: int, reps: int = 15) -> float:
    """Median float32 matmul rate at the given shape, in GFLOP/s."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((rows, inner), dtype=np.float32)
    b = rng.standard_normal((inner, cols), dtype=np.float32)
    for _ in range(3):
        a @ b
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - start)
    return 2.0 * rows * inner * cols / statistics.median(times) / 1e9


@functools.cache
def _reference_inputs() -> tuple[np.ndarray, ...]:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4096, 144), dtype=np.float32)
    b = rng.standard_normal((144, 64), dtype=np.float32)
    x = rng.standard_normal(1 << 20, dtype=np.float32)
    return a, b, x, np.ones(1 << 23)


def reference_seconds(reps: int = 5) -> float:
    """Median time of a fixed mix of work that runs no bear code: a small
    float32 GEMM, elementwise passes over fresh 4 MB arrays, a zero-filled
    16 MB allocation, a pass over 64 MB of memory and a pure-Python loop,
    the kinds of work the workloads do. Its changes over a run track how
    fast the shared machine is."""
    a, b, x, big = _reference_inputs()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(4):
            a @ b
            np.tanh(x) * x + 1.0
            np.zeros(1 << 22, dtype=np.float32).sum()
            big.sum()
            total = 0
            for i in range(20000):
                total += i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Reference:
    """A child process that times the reference mix on request, so that its
    arrays stay out of the measured process's memory."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--reference"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def seconds(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def ceilings() -> dict[str, float]:
    return {name: sgemm_gflops(*shape) for name, shape in SHAPES.items()}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except Exception:  # numpy builds differ in what the config dict holds
        return "unknown"


def _ceilings_at(threads: int) -> dict[str, float]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def record(blas_threads: int, why: str) -> dict:
    """Everything a result needs to be compared across machines."""
    nproc = os.cpu_count() or 1
    threads = sorted({1, nproc})
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_version(),
        "blas_threads": blas_threads,
        "blas_threads_why": why,
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE", "default"),
        "sgemm_gflops": {f"{t}_threads": _ceilings_at(t) for t in threads},
        "sgemm_shapes": {name: "x".join(map(str, shape)) for name, shape in SHAPES.items()},
    }


if __name__ == "__main__":
    if sys.argv[1:] == ["--reference"]:
        for _ in sys.stdin:
            print(reference_seconds(), flush=True)
    else:
        print(json.dumps(ceilings()))
