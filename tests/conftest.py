"""Shared helpers for the test suite."""
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import dfaf

# The directory that holds the ``dfaf`` package this process imported.  A
# child process gets it first on its import path, so it runs the same code
# whatever its working directory and whether or not the package is installed.
PACKAGE_ROOT = str(Path(dfaf.__file__).resolve().parent.parent)


def run_cli(args, cwd, env_extra=None, timeout=600, command=None):
    """Run the CLI in a child process and return the completed process.

    ``command`` defaults to ``python -m dfaf`` under the current interpreter.
    ``DFAF_SEED`` is dropped from the inherited environment unless
    ``env_extra`` sets it.
    """
    env = dict(os.environ)
    env.pop("DFAF_SEED", None)
    if env_extra:
        env.update(env_extra)
    inherited = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([PACKAGE_ROOT, *inherited])
    if command is None:
        command = [sys.executable, "-m", "dfaf"]
    return subprocess.run(
        [*command, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def without_gates(p):
    """The same intra-modality parameters with the gate layers taken out:
    the naive module over the dynamic one's weights."""
    return dataclasses.replace(p, gate_from_regions=None, gate_from_words=None)


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop reference product, no numpy matmul involved."""
    n, d = a.shape
    d2, k = b.shape
    assert d == d2
    out = np.zeros((n, k))
    for i in range(n):
        for j in range(k):
            acc = 0.0
            for m in range(d):
                acc += a[i, m] * b[m, j]
            out[i, j] = acc
    return out


def _np_split(x, heads):
    # (B, n, d) -> (B·heads, n, d/heads); entry b·heads + h is column group h
    # of instance b.
    w = x.shape[-1] // heads
    return np.stack([x[b, :, h * w : (h + 1) * w] for b in range(len(x)) for h in range(heads)])


def _np_merge(x, heads):
    # Inverse of _np_split.
    return np.concatenate([x[h::heads] for h in range(heads)], axis=-1)


def np_attention(q, k, v, heads, g=None):
    """The numpy reference for ``tensor.attention`` on (B, n, d) batches,
    composed in the op's order: split the feature axes into head-major
    column groups, softmax(q·kᵀ/√d_h) per group, weight the values, merge.
    Returns the values and the (B, heads, n, m) weights and, given an
    upstream gradient ``g``, the gradients in q, k and v as well.

    It copies every head out and back on purpose: the op multiplies strided
    views instead, and an oracle that shared its layout would not check it."""
    qh, kh, vh = (_np_split(x, heads) for x in (q, k, v))
    c = 1.0 / math.sqrt(qh.shape[-1])
    x = np.matmul(qh, np.ascontiguousarray(kh.swapaxes(-1, -2))) * c
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)
    out = _np_merge(np.matmul(s, vh), heads)
    weights = s.reshape(len(q), heads, *s.shape[1:])
    if g is None:
        return out, weights
    gh = _np_split(g, heads)
    gs = np.matmul(gh, vh.swapaxes(-1, -2))
    gl = (gs - (gs * s).sum(axis=-1, keepdims=True)) * s * c
    dq = _np_merge(np.matmul(gl, kh), heads)
    dk = _np_merge(np.matmul(gl.swapaxes(-1, -2), qh), heads)
    dv = _np_merge(np.matmul(s.swapaxes(-1, -2), gh), heads)
    return out, weights, dq, dk, dv
