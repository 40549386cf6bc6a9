"""Backward-pass verification against central finite differences.

Each attention module — and the full classifier end to end — is driven to a
scalar under a gradient tape, then every parameter block's taped gradient is
compared with a central-difference estimate of the same scalar.  Errors are
reported per block (relative L2), so one bad adjoint points at one weight or
bias instead of poisoning an aggregate number.

Finite differences cost two forwards per scalar parameter, which is why
``run_gradcheck`` refuses widths above ``MAX_DIM``.

The comparison is noise-aware.  A central difference (f(θ+ε)−f(θ−ε))/2ε
carries cancellation noise of roughly ulp(|f|)/2ε per coordinate, so for a
parameter block whose true gradient norm sits near or below that floor, the
raw norm-ratio measures the oracle's rounding noise, not the gradient.  Each
block's relative error therefore uses a denominator floored at the oracle's
resolving power — a mismatch must exceed what finite differences can actually
certify before it counts against the gradient.
"""
from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .attention import (
    dfaf_block_forward,
    dyintra_maf_forward,
    init_dfaf_block,
    init_dyintra_maf,
    init_inter_maf,
    inter_maf_forward,
)
from .model import ModelConfig, build_model, cross_entropy_loss, forward
from .tensor import (
    GradTape,
    Tensor,
    add,
    backward,
    finite_diff_gradient,
    sum_all,
)

MAX_DIM = 16

# Multiplier on the theoretical cancellation noise; absorbs rounding inside
# the forward pass itself, which the final-subtraction ulp alone understates.
FD_NOISE_SAFETY = 32.0


def fd_resolution(f_value: float, n_coords: int, eps: float) -> float:
    """Norm-scale rounding noise of a central-difference gradient block.

    Each coordinate's estimate carries ~ulp(|f|)/(2·eps) of subtractive
    cancellation noise; a block of n coordinates accumulates √n of it.  The
    |f| scale is floored at 1 because intermediate values inside the forward
    do not shrink with the final output.
    """
    ulp = float(np.finfo(np.float64).eps) * max(abs(f_value), 1.0)
    return FD_NOISE_SAFETY * math.sqrt(n_coords) * ulp / (2.0 * eps)


def check_unit(
    unit: str,
    named_params: Iterable[tuple[str, Tensor]],
    objective: Callable[[], Tensor],
    threshold: float = 1e-4,
    eps: float = 1e-5,
    corrupt: str = "",
) -> dict:
    """Compare taped gradients of ``objective`` against finite differences.

    ``objective`` must rebuild its graph on every call (parameters are
    perturbed in place between calls) and must be deterministic.  ``corrupt``
    names a block as ``"<unit>/<param>"`` whose analytic gradient is
    deliberately spoiled before comparison — the hook that proves the harness
    can actually fail.

    Returns the unit's JSON report, with one entry per parameter block.  A
    block's ``fd_noise`` is the oracle's own resolution for it; the relative
    error's denominator never drops below ``fd_noise / threshold``.
    """
    named = list(named_params)
    for _, p in named:
        p.zero_grad()
    with GradTape() as tape:
        out = objective()
        backward(tape, out)
    f_value = out.item()

    def scalar(_params) -> float:
        return objective().item()

    blocks = []
    for name, p in named:
        fd = finite_diff_gradient(scalar, [p], eps=eps)[0]
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        if corrupt == f"{unit}/{name}":
            analytic = analytic + 1.0
        noise = fd_resolution(f_value, p.size, eps)
        diff = float(np.linalg.norm(analytic - fd))
        na = float(np.linalg.norm(analytic))
        nf = float(np.linalg.norm(fd))
        err = diff / max(na, nf, noise / threshold)
        blocks.append(
            {
                "name": name,
                "rel_err": err,
                "analytic_norm": na,
                "fd_norm": nf,
                "fd_noise": noise,
                "passed": err < threshold,
            }
        )
    return {
        "unit": unit,
        "max_rel_err": max(b["rel_err"] for b in blocks),
        "passed": all(b["passed"] for b in blocks),
        "blocks": blocks,
    }


def _sum_pair(r: Tensor, e: Tensor) -> Tensor:
    return add(sum_all(r), sum_all(e))


def run_gradcheck(
    dim: int = 8,
    regions: int = 5,
    words: int = 4,
    n_blocks: int = 2,
    heads: int = 2,
    order: str = "r_then_e",
    seed: int = 0,
    threshold: float = 1e-4,
    eps: float = 1e-5,
    corrupt: str = "",
) -> dict:
    """Check every module in isolation, then the full model end to end.

    Module units reduce their outputs to sum(r') + sum(e'); the model unit
    uses the real training loss on a two-instance batch so the classifier and
    embedding gradients are exercised on the same path training uses.
    Returns the JSON report, with one :func:`check_unit` report per unit.  A
    ``corrupt`` that names no ``"<unit>/<param>"`` block is a ValueError.
    """
    if dim > MAX_DIM:
        raise ValueError(
            f"finite differences are only tractable at dim <= {MAX_DIM}; got {dim}"
        )
    # The model unit's architecture; building it checks heads, order and
    # n_blocks for every unit.
    config = ModelConfig(
        dim=dim,
        heads=heads,
        n_blocks=n_blocks,
        hidden=2 * dim,
        d_v=dim + 5,
        d_w=dim + 3,
        n_answers=5,
        order=order,
    )

    rng = np.random.default_rng(seed)
    r = Tensor(rng.standard_normal((1, regions, dim)))
    e = Tensor(rng.standard_normal((1, words, dim)))
    inter = init_inter_maf(dim, rng)
    dyintra = init_dyintra_maf(dim, rng)
    intra = init_dyintra_maf(dim, rng, dynamic=False)
    block = init_dfaf_block(dim, "full", rng)
    model = build_model(config, rng)
    # ReLU is the model's only kink, and at random init the multiply-fused
    # classifier input is so small that every hidden preactivation sits
    # within fd's perturbation radius of it — central differences straddle
    # the kink and disagree with any one-sided derivative.  A gradient check
    # is free to pick its evaluation point, so park each hidden unit a safe
    # margin to one side (alternating, to exercise both mask branches).
    signs = np.where(np.arange(config.hidden) % 2 == 0, 1.0, -1.0)
    model.mlp_hidden.bias.data += 0.05 * signs
    raw_r = Tensor(rng.standard_normal((2, regions, config.d_v)))
    raw_e = Tensor(rng.standard_normal((2, words, config.d_w)))
    targets = [int(t) for t in rng.integers(0, config.n_answers, size=2)]

    units = [
        ("inter_maf", inter,
         lambda: _sum_pair(*inter_maf_forward(r, e, inter, heads=heads, order=order))),
        ("dyintra_maf", dyintra,
         lambda: _sum_pair(*dyintra_maf_forward(r, e, dyintra, heads=heads))),
        ("intra_maf", intra,
         lambda: _sum_pair(*dyintra_maf_forward(r, e, intra, heads=heads))),
        ("dfaf_block", block,
         lambda: _sum_pair(*dfaf_block_forward(r, e, block, heads, order))),
        ("model", model,
         lambda: cross_entropy_loss(forward(raw_r, raw_e, model), targets)),
    ]
    names = {f"{unit}/{name}" for unit, params, _ in units for name, _ in params.named_parameters()}
    if corrupt and corrupt not in names:
        raise ValueError(f"corrupt target {corrupt!r} names no <unit>/<param> block")
    reports = [
        check_unit(unit, params.named_parameters(), objective, threshold, eps, corrupt)
        for unit, params, objective in units
    ]
    return {
        "settings": {
            "dim": dim,
            "regions": regions,
            "words": words,
            "n_blocks": n_blocks,
            "heads": heads,
            "order": order,
            "seed": seed,
            "eps": eps,
        },
        "threshold": threshold,
        "max_rel_err": max(u["max_rel_err"] for u in reports),
        "passed": all(u["passed"] for u in reports),
        "failing_blocks": [
            f"{u['unit']}/{b['name']}" for u in reports for b in u["blocks"] if not b["passed"]
        ],
        "units": reports,
    }
