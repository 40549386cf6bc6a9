#!/usr/bin/env python3
"""Sweep the two products of ``tensor.linear_forward`` over batch shapes.

    python3 tools/linear_sweep.py [--reps 7]

For each square weight d x d and batch (B, n, d), times numpy's per-instance
product ``np.matmul(x, w)`` and one GEMM over the flattened rows
``np.matmul(x.reshape(-1, d), w)``, each as the best of ``--reps`` calls with
1 BLAS thread, the two products taking turns. It prints one row per shape
with the ratio one-GEMM time / per-instance time (below 1: one GEMM is
faster), then the smallest power of two of weight elements above every
weight at which one GEMM lost or tied at a measured (B, n), next to
``tensor.ONE_GEMM_MIN_WEIGHT``. Shapes near parity can flip from run to run,
so compare several runs before moving the constant.
"""

import os

# Pinned before numpy is first imported, so BLAS starts single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dfaf.tensor import ONE_GEMM_MIN_WEIGHT

BATCHES = (8, 32, 256)
ROWS = (6, 14, 100)
WIDTHS = (64, 128, 256, 512)


def best_ms(fns, reps: int) -> list[float]:
    """Best time of each of ``fns`` over ``reps`` rounds; each round calls
    every function once, so drift of the host hits them alike."""
    for fn in fns:
        fn()  # warm-up: first-touch pages and BLAS buffers
    best = [float("inf")] * len(fns)
    for _ in range(reps):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return [b * 1e3 for b in best]


def sweep(reps: int) -> dict[tuple[int, int, int], tuple[float, float]]:
    """(d, B, n) -> (per-instance ms, one-GEMM ms)."""
    rng = np.random.default_rng(0)
    out = {}
    for d in WIDTHS:
        w = rng.standard_normal((d, d))
        for b in BATCHES:
            for n in ROWS:
                x = rng.standard_normal((b, n, d))
                per, one = best_ms(
                    [lambda: np.matmul(x, w), lambda: np.matmul(x.reshape(-1, d), w)], reps
                )
                out[d, b, n] = per, one
    return out


def threshold(times: dict[tuple[int, int, int], tuple[float, float]]) -> int:
    """Smallest power of two above every weight size at which one GEMM lost
    or tied."""
    lost = [d * d for (d, _, _), (per, one) in times.items() if one >= per]
    return 1 << max(lost, default=0).bit_length()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reps", type=int, default=7)
    args = parser.parse_args(argv)
    times = sweep(args.reps)
    print(f"{'weight':>9} {'B':>4} {'n':>4} {'per-inst ms':>12} {'one-GEMM ms':>12} {'ratio':>6}")
    for (d, b, n), (per, one) in times.items():
        print(f"{d:>4}x{d:<4} {b:>4} {n:>4} {per:>12.4f} {one:>12.4f} {one / per:>6.2f}")
    for d in WIDTHS:
        ratios = [one / per for (dd, _, _), (per, one) in times.items() if dd == d]
        print(f"d={d}: ratio {min(ratios):.2f}-{max(ratios):.2f}")
    found = threshold(times)
    print(f"threshold 2^{found.bit_length() - 1}; ONE_GEMM_MIN_WEIGHT is "
          f"2^{ONE_GEMM_MIN_WEIGHT.bit_length() - 1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
