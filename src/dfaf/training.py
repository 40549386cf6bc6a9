"""Adamax optimization, the staged learning-rate schedule, and the train loop.

The optimizer keeps a first-moment average and an infinity-norm accumulator
per parameter; updates are bias-corrected through the first moment only. The
learning rate starts at its base value, doubles after a short warm phase,
and later drops to a quarter of the doubled rate, where it stays. Gradients
are clipped by global L2 norm before every step. A non-finite loss or
gradient norm aborts training with a diagnostic rather than silently
continuing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .attention import ForwardContext
from .data import FeatureDataset, make_batches
from .model import ModelParams, cross_entropy_loss, forward, predict
from .tensor import GradTape, ShapeError, Tensor, backward, dropout_threshold

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8

WARM_EPOCHS = 2
DECAY_EPOCH = 10

# Elements per Adamax pass: 256 KB per float64 operand, so the four arrays
# and two scratch buffers of one slice stay in L2 between its ufuncs.
CHUNK = 32768


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient norm."""


@dataclass
class AdamaxState:
    """Per-parameter first moments and infinity norms, plus the step count."""

    moments: list[np.ndarray]
    inf_norms: list[np.ndarray]
    t: int = 0
    # The two CHUNK-sized buffers ``adamax_step`` computes in; not saved. They
    # live as long as the state because a fresh pair per step costs about
    # fifty page faults whenever the allocator has returned them to the system.
    scratch: np.ndarray = field(
        default_factory=lambda: np.empty((2, CHUNK)), repr=False, compare=False
    )

    @classmethod
    def for_params(cls, params: Sequence[Tensor]) -> "AdamaxState":
        return cls(
            moments=[np.zeros_like(p.data) for p in params],
            inf_norms=[np.zeros_like(p.data) for p in params],
        )

    def as_checkpoint_trailer(self) -> tuple[int, list[np.ndarray], list[np.ndarray]]:
        return self.t, self.moments, self.inf_norms

    @classmethod
    def from_checkpoint_trailer(
        cls, trailer: tuple[int, list[np.ndarray], list[np.ndarray]]
    ) -> "AdamaxState":
        """Copy a trailer, which ``load_checkpoint`` returns as read-only views
        of the mapped file, into writable, aligned, native float64 arrays."""
        step, moments, inf_norms = trailer
        return cls(
            moments=[np.array(m, dtype=np.float64) for m in moments],
            inf_norms=[np.array(u, dtype=np.float64) for u in inf_norms],
            t=step,
        )


@dataclass
class TrainConfig:
    base_lr: float = 1e-3
    epochs: int = 30
    batch_size: int = 32
    clip: float = 0.25
    # Applied at the rate in effect round(dropout·2^16)/2^16 (6554/65536 for
    # 0.1); see tensor.dropout_threshold.
    dropout: float = 0.1
    seed: int = 0
    eval_batch_size: int = 256

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "int" and not isinstance(v, int):
                raise ValueError(f"{f.name} must be an integer, got {v!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not 0 <= self.base_lr < math.inf:
            raise ValueError(f"base_lr must be finite and nonnegative, got {self.base_lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1 or self.eval_batch_size < 1:
            raise ValueError("batch sizes must be at least 1")
        if not 0 < self.clip < math.inf:
            raise ValueError(f"clip threshold must be finite and positive, got {self.clip}")
        dropout_threshold(self.dropout)


def adamax_step(
    params: Sequence[Tensor],
    grads: Sequence[np.ndarray],
    state: AdamaxState,
    lr: float,
) -> None:
    """One in-place update:

        m ← β1·m + (1−β1)·g
        u ← max(β2·u, |g|)
        θ ← θ − lr/(1−β1^t) · m/(u+ε)

    so the very first step moves every coordinate by −lr·sign(g).

    Every length, shape and layout is checked before anything changes. The
    formulas then run in the order written, as in-place ufuncs on a whole
    tensor of at most ``CHUNK`` elements or on ``CHUNK``-sized slices of a
    larger one, flattened, so no full-size temporary is made.
    """
    n = len(params)
    if not n == len(grads) == len(state.moments) == len(state.inf_norms):
        raise ShapeError(
            f"{n} params, {len(grads)} grads, {len(state.moments)} moments, "
            f"{len(state.inf_norms)} inf-norms"
        )
    for p, g, m, u in zip(params, grads, state.moments, state.inf_norms):
        if not g.shape == m.shape == u.shape == p.data.shape:
            raise ShapeError(
                f"param shape {p.data.shape} but grad {g.shape}, moment {m.shape}, "
                f"inf-norm {u.shape}"
            )
        if not (p.data.flags.c_contiguous and m.flags.c_contiguous and u.flags.c_contiguous):
            raise ValueError("Adamax updates C-contiguous params, moments and inf-norms only")
    state.t += 1
    step = lr / (1.0 - BETA1**state.t)
    for p, g, m, u in zip(params, grads, state.moments, state.inf_norms):
        if p.data.size <= CHUNK:
            _adamax_slice(p.data, g, m, u, step, state.scratch)
        else:
            pf, gf, mf, uf = p.data.reshape(-1), g.reshape(-1), m.reshape(-1), u.reshape(-1)
            for lo in range(0, pf.size, CHUNK):
                hi = lo + CHUNK
                _adamax_slice(pf[lo:hi], gf[lo:hi], mf[lo:hi], uf[lo:hi], step, state.scratch)


def _adamax_slice(p, g, m, u, step: float, scratch: np.ndarray) -> None:
    # The update on at most CHUNK elements, one ufunc per operation in the
    # order of adamax_step's formulas; step is lr/(1−β1^t).
    a = scratch[0, : p.size].reshape(p.shape)
    b = scratch[1, : p.size].reshape(p.shape)
    m *= BETA1
    np.multiply(g, 1.0 - BETA1, out=a)
    m += a
    u *= BETA2
    np.abs(g, out=a)
    np.maximum(u, a, out=u)
    np.multiply(m, step, out=a)
    np.add(u, EPSILON, out=b)
    a /= b
    p -= a


def lr_schedule(epoch: int, base_lr: float) -> float:
    """Staged rate: base through epoch ``WARM_EPOCHS``, then doubled through
    epoch ``DECAY_EPOCH``, then a single drop to half base, held thereafter."""
    if epoch < 1:
        raise ValueError(f"epochs are 1-based, got {epoch}")
    if epoch <= WARM_EPOCHS:
        return base_lr
    if epoch <= DECAY_EPOCH:
        return 2.0 * base_lr
    return 2.0 * base_lr * 0.25


def clip_gradients(
    grads: Sequence[np.ndarray], threshold: float = 0.25
) -> list[np.ndarray]:
    """Bound gradient magnitude before a step: if the L2 norm over all
    entries of all arrays exceeds the threshold, scale every array in place
    by threshold/norm (direction preserved).

    The arrays must be distinct and writable. Returns the arrays themselves
    when nothing was scaled, and new views of them (``g[...]``) when they
    were, so a caller can tell a rescale by object identity. A non-finite
    norm raises DivergenceError before any array or parameter changes.
    """
    if not threshold > 0:
        raise ValueError(f"clip threshold must be positive, got {threshold}")
    total = math.sqrt(sum(float(np.vdot(g, g)) for g in grads))
    if not math.isfinite(total):
        raise DivergenceError(f"gradient norm is {total}; no update applied")
    if total <= threshold:
        return list(grads)
    factor = threshold / total
    for g in grads:
        g *= factor
    return [g[...] for g in grads]


def evaluate_accuracy(
    model: ModelParams, dataset: FeatureDataset, batch_size: int = 256
) -> float:
    """Fraction of instances whose argmax logit hits the stored answer."""
    return evaluate_by_template(model, dataset, batch_size)["overall"]


def evaluate_by_template(
    model: ModelParams, dataset: FeatureDataset, batch_size: int = 256
) -> dict:
    """Overall and per-template accuracy; the weighted per-template mean
    equals the overall accuracy exactly. A logit row with a non-finite entry
    scores as a miss and still counts in ``n``."""
    hits = np.zeros(len(dataset.template_names), dtype=np.int64)
    totals = np.zeros(len(dataset.template_names), dtype=np.int64)
    for batch in make_batches(dataset, batch_size):
        pred = predict(Tensor(batch.regions), Tensor(batch.tokens), model)
        logits = pred.logits.data
        good = logits.argmax(axis=-1) == batch.answers
        good &= np.isfinite(logits).all(axis=-1)
        for tid in range(len(dataset.template_names)):
            mask = batch.template_ids == tid
            hits[tid] += int(good[mask].sum())
            totals[tid] += int(mask.sum())
    per_template = {
        name: {
            "n": int(totals[i]),
            "accuracy": float(hits[i] / totals[i]) if totals[i] else None,
        }
        for i, name in enumerate(dataset.template_names)
    }
    return {
        "overall": float(hits.sum() / totals.sum()),
        "n": int(totals.sum()),
        "per_template": per_template,
    }


def train(
    model: ModelParams,
    dataset: FeatureDataset,
    cfg: TrainConfig,
    eval_dataset: FeatureDataset | None = None,
    state: AdamaxState | None = None,
    on_epoch: Callable[[dict], None] | None = None,
) -> tuple[list[dict], AdamaxState]:
    """Optimize the model in place; returns per-epoch metric rows and the
    final optimizer state (resumable via its checkpoint trailer).

    Eval accuracy is measured on ``eval_dataset`` when given, otherwise on
    the training data. Fully deterministic given cfg.seed (wall_ms aside).

    A step holds one gradient set: the ``.grad`` arrays its backward makes,
    one for every parameter, which the clip scales in place and which no
    name keeps past Adamax. Backward releases the step's tape as
    it goes, so the clip and Adamax run beside the gradients, not the
    forward's activations. Every parameter's ``.grad`` is None during each
    epoch-end eval and ``on_epoch`` call, and on return or raise.
    """
    if dataset.n_answers != model.config.n_answers:
        raise ShapeError(
            f"dataset has {dataset.n_answers} answers, model head has {model.config.n_answers}"
        )
    rng = np.random.default_rng(cfg.seed)
    params = model.parameters()
    if state is None:
        state = AdamaxState.for_params(params)
    ctx = ForwardContext(cfg.dropout, rng)
    metrics: list[dict] = []
    for epoch in range(1, cfg.epochs + 1):
        started = time.perf_counter()
        lr = lr_schedule(epoch, cfg.base_lr)
        loss_sum, seen = 0.0, 0
        try:
            for batch in make_batches(dataset, cfg.batch_size, rng):
                for p in params:
                    p.zero_grad()
                with GradTape() as tape:
                    pred = forward(Tensor(batch.regions), Tensor(batch.tokens), model, ctx)
                    loss = cross_entropy_loss(pred, batch.answers.tolist())
                loss_value = loss.item()
                if not math.isfinite(loss_value):
                    raise DivergenceError(
                        f"non-finite loss {loss_value} at epoch {epoch} after "
                        f"{state.t} optimizer steps (lr {lr})"
                    )
                backward(tape, loss)
                grads = [p.grad for p in params]
                adamax_step(params, clip_gradients(grads, cfg.clip), state, lr)
                del grads
                loss_sum += loss_value * len(batch)
                seen += len(batch)
        finally:
            # Release the gradients before evaluating, and also when a step
            # raises, so a diverged model holds none.
            for p in params:
                p.zero_grad()
        eval_ds = eval_dataset if eval_dataset is not None else dataset
        row = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": loss_sum / seen,
            "eval_acc": evaluate_accuracy(model, eval_ds, cfg.eval_batch_size),
            "wall_ms": (time.perf_counter() - started) * 1000.0,
        }
        metrics.append(row)
        if on_epoch is not None:
            on_epoch(row)
    return metrics, state
