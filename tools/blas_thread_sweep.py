#!/usr/bin/env python3
"""Do BLAS products give the same bytes with one OpenBLAS thread and two?

    python3 tools/blas_thread_sweep.py

Runs, on seeded inputs, the products that decide whether a trained model's
bytes depend on the BLAS thread count:

- the attention backward's ``dl = gh·vᵀ`` (``tensor.attention``), on the
  strided per-head views it multiplies, at batch 8 and 8 heads: 100 query
  rows against 100 keys at head widths 16, 32 and 64, and at head width 64
  also 49×49, 144×144, 14×14, 100×14 and 14×100 (queries × keys);
- ``np.vdot(g, g)``, as ``training.clip_gradients`` sums it, at 10,000,
  50,000 and 2^20 elements.

Every product runs in two child processes, one with
``OPENBLAS_NUM_THREADS=1`` and one with ``=2``. One line per product gives
the SHA-256 of its result under each count and whether the two are equal.
On a host with one CPU, OpenBLAS runs both children with one thread, so
every line reads equal there.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from dfaf.tensor import _heads, _swap  # noqa: E402

BATCH, HEADS = 8, 8
# (queries, keys, head width) of the attention backward's dl product.
DL_SHAPES = [
    (100, 100, 64), (100, 100, 32), (100, 100, 16),
    (49, 49, 64), (144, 144, 64), (14, 14, 64), (100, 14, 64), (14, 100, 64),
]
VDOT_SIZES = [10_000, 50_000, 1 << 20]
THREAD_COUNTS = (1, 2)


def products() -> dict[str, str]:
    """The SHA-256 of each product of this process, by case name."""
    digests = {}
    for n, m, width in DL_SHAPES:
        rng = np.random.default_rng(n * 1000 + m + width)
        g = rng.standard_normal((BATCH, n, HEADS * width))
        v = rng.standard_normal((BATCH, m, HEADS * width))
        dl = np.matmul(_heads(g, HEADS), _swap(_heads(v, HEADS)))
        digests[f"dl {n}x{m} width {width}"] = hashlib.sha256(dl.tobytes()).hexdigest()
    for size in VDOT_SIZES:
        g = np.random.default_rng(size).standard_normal(size)
        total = np.float64(np.vdot(g, g))
        digests[f"vdot {size}"] = hashlib.sha256(total.tobytes()).hexdigest()
    return digests


def run_child(threads: int) -> dict[str, str]:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
    proc = subprocess.run(
        [sys.executable, __file__, "--child"], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(products()))
        return 0
    if len(os.sched_getaffinity(0)) < 2:
        print("one CPU: OpenBLAS runs both children with one thread")
    one, two = (run_child(threads) for threads in THREAD_COUNTS)
    for name in one:
        verdict = "equal" if one[name] == two[name] else "DIFFER"
        print(f"{name:<22} 1 thread {one[name]}  2 threads {two[name]}  {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
