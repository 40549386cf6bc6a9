"""End-to-end answerer: embed raw features, run the fusion stack, classify.

Raw per-region vectors (μ×d_v) and per-token vectors (L×d_w) are projected
to a common width, passed through the attention-flow stack, average-pooled
per modality, fused (element-wise product by default), and classified by a
two-layer MLP over a closed answer vocabulary. Training minimizes hard-label
cross entropy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .attention import (
    ATTENTION_TYPES,
    ORDERS,
    AttentionRecord,
    DfafBlockParams,
    ForwardContext,
    dfaf_stack_forward,
    init_dfaf_stack,
    linear_dropout,
)
from .tensor import (
    LinearLayer,
    Params,
    ShapeError,
    Tensor,
    add,
    avg_pool_rows,
    concat_cols,
    cross_entropy_rows,
    linear_forward,
    linear_init,
    mul,
    relu,
)

FUSIONS = ("multiply", "add", "concat")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; everything a checkpoint must reproduce."""

    dim: int = 64
    heads: int = 4
    n_blocks: int = 1
    hidden: int = 128
    d_v: int = 64
    d_w: int = 32
    n_answers: int = 4
    fusion: str = "multiply"
    order: str = "r_then_e"
    attention_type: str = "full"

    def __post_init__(self):
        for name in INT_FIELDS:
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.dim % self.heads != 0:
            raise ShapeError(f"dim {self.dim} not divisible by {self.heads} heads")
        if self.fusion not in FUSIONS:
            raise ValueError(f"fusion must be one of {FUSIONS}, got {self.fusion!r}")
        if self.order not in ORDERS:
            raise ValueError(f"order must be one of {ORDERS}, got {self.order!r}")
        if self.attention_type not in ATTENTION_TYPES:
            raise ValueError(
                f"attention_type must be one of {ATTENTION_TYPES}, got {self.attention_type!r}"
            )

    def n_parameters(self) -> int:
        """Parameter count of the model ``build_model`` makes, without making it."""

        def linear(n_in: int, n_out: int) -> int:
            return (n_in + 1) * n_out

        d = self.dim
        inter = 6 * linear(d, d) + 2 * linear(2 * d, d)  # q/k/v twice, two fusions
        intra = 10 * linear(d, d)  # q/k/v twice, two gates, two outputs
        has_inter = self.attention_type in ("full", "inter_only")
        has_intra = self.attention_type != "inter_only"
        block = has_inter * inter + has_intra * intra
        fused = 2 * d if self.fusion == "concat" else d
        return (
            linear(self.d_v, d)
            + linear(self.d_w, d)
            + self.n_blocks * block
            + linear(fused, self.hidden)
            + linear(self.hidden, self.n_answers)
        )


# The positive-integer and the string fields, in declaration order; the
# checkpoint header stores exactly these.
INT_FIELDS = tuple(f.name for f in fields(ModelConfig) if f.type == "int")
STR_FIELDS = tuple(f.name for f in fields(ModelConfig) if f.type == "str")


@dataclass
class ModelParams(Params):
    """All trainable parameters plus the fusion-mode switch."""

    region_embed: LinearLayer
    word_embed: LinearLayer
    stack: list[DfafBlockParams]
    mlp_hidden: LinearLayer
    mlp_out: LinearLayer
    fusion: str = "multiply"

    def __post_init__(self):
        if self.fusion not in FUSIONS:
            raise ValueError(f"fusion must be one of {FUSIONS}, got {self.fusion!r}")
        if not self.stack:
            raise ValueError("model needs at least one block")
        dim = self.stack[0].dim
        expected_in = 2 * dim if self.fusion == "concat" else dim
        if self.mlp_hidden.in_dim != expected_in:
            raise ShapeError(
                f"{self.fusion} fusion feeds width {expected_in} to the classifier, "
                f"mlp_hidden expects {self.mlp_hidden.in_dim}"
            )
        if self.mlp_out.in_dim != self.mlp_hidden.out_dim:
            raise ShapeError(
                f"classifier layers disagree: hidden out {self.mlp_hidden.out_dim}, "
                f"output in {self.mlp_out.in_dim}"
            )

    @property
    def dim(self) -> int:
        return self.stack[0].dim

    @property
    def n_answers(self) -> int:
        return self.mlp_out.out_dim


@dataclass
class Prediction:
    """Classifier output for one instance (or a batch); ``logits`` stays
    tape-connected for the loss."""

    logits: Tensor
    records: list[AttentionRecord] | None = None


def build_model(config: ModelConfig, rng: np.random.Generator | None) -> ModelParams:
    """Fresh parameters; rng draw order is fixed, so equal seeds build equal
    models. Without a generator every parameter is zero, for a loader to
    fill."""
    fused_width = 2 * config.dim if config.fusion == "concat" else config.dim
    return ModelParams(
        region_embed=linear_init(config.d_v, config.dim, rng),
        word_embed=linear_init(config.d_w, config.dim, rng),
        stack=init_dfaf_stack(
            config.dim,
            config.heads,
            config.n_blocks,
            rng,
            order=config.order,
            attention_type=config.attention_type,
        ),
        mlp_hidden=linear_init(fused_width, config.hidden, rng),
        mlp_out=linear_init(config.hidden, config.n_answers, rng),
        fusion=config.fusion,
    )


def config_of(params: ModelParams) -> ModelConfig:
    """Recover the architecture description from a parameter set."""
    block = params.stack[0]
    return ModelConfig(
        dim=params.dim,
        heads=block.heads,
        n_blocks=len(params.stack),
        hidden=params.mlp_hidden.out_dim,
        d_v=params.region_embed.in_dim,
        d_w=params.word_embed.in_dim,
        n_answers=params.n_answers,
        fusion=params.fusion,
        order=block.order,
        attention_type=block.attention_type,
    )


def embed_inputs(
    raw_r: Tensor, raw_e: Tensor, p: ModelParams, ctx: ForwardContext | None = None
) -> tuple[Tensor, Tensor]:
    """Project both modalities to the shared width (dropout in train mode)."""
    if raw_r.shape[-1] != p.region_embed.in_dim:
        raise ShapeError(
            f"region features have width {raw_r.shape[-1]}, "
            f"model expects {p.region_embed.in_dim}"
        )
    if raw_e.shape[-1] != p.word_embed.in_dim:
        raise ShapeError(
            f"word features have width {raw_e.shape[-1]}, "
            f"model expects {p.word_embed.in_dim}"
        )
    return linear_dropout(p.region_embed, raw_r, ctx), linear_dropout(p.word_embed, raw_e, ctx)


def fuse_and_classify(
    r: Tensor,
    e: Tensor,
    p: ModelParams,
    records: list[AttentionRecord] | None = None,
) -> Prediction:
    """Pool both modalities, fuse, and score the answer vocabulary."""
    if r.shape[-2] < 1 or e.shape[-2] < 1:
        raise ShapeError(
            f"cannot pool an empty modality: regions {r.shape}, words {e.shape}"
        )
    v = avg_pool_rows(r)
    q = avg_pool_rows(e)
    if p.fusion == "multiply":
        fused = mul(v, q)
    elif p.fusion == "add":
        fused = add(v, q)
    else:
        fused = concat_cols(v, q)
    logits = linear_forward(p.mlp_out, relu(linear_forward(p.mlp_hidden, fused)))
    return Prediction(logits=logits, records=records)


def forward(
    raw_r: Tensor,
    raw_e: Tensor,
    p: ModelParams,
    ctx: ForwardContext | None = None,
    records: list[AttentionRecord] | None = None,
) -> Prediction:
    """Full pipeline; a ``ctx`` means train mode, None means eval."""
    r0, e0 = embed_inputs(raw_r, raw_e, p, ctx)
    r_out, e_out = dfaf_stack_forward(r0, e0, p.stack, records=records, ctx=ctx)
    return fuse_and_classify(r_out, e_out, p, records=records)


def predict(raw_r: Tensor, raw_e: Tensor, p: ModelParams, record: bool = False) -> Prediction:
    """Deterministic eval-mode forward; records one AttentionRecord per block
    when asked."""
    records: list[AttentionRecord] | None = [] if record else None
    return forward(raw_r, raw_e, p, ctx=None, records=records)


def cross_entropy_loss(pred: Prediction, target: int | Sequence[int]) -> Tensor:
    """Mean negative log-likelihood of the target answer(s)."""
    targets = [target] if isinstance(target, (int, np.integer)) else list(target)
    n = pred.logits.shape[0] if pred.logits.ndim == 2 else 1
    if len(targets) != n:
        raise ShapeError(f"{n} prediction rows but {len(targets)} targets")
    return cross_entropy_rows(pred.logits, targets)
