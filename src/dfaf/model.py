"""End-to-end answerer: embed raw features, run the fusion stack, classify.

Raw per-region vectors (μ×d_v) and per-token vectors (L×d_w) are projected
to a common width, passed through the attention-flow stack, average-pooled
per modality, fused (element-wise product by default), and classified by a
two-layer MLP over a closed answer vocabulary. Training minimizes hard-label
cross entropy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .attention import (
    ATTENTION_TYPES,
    ORDERS,
    AttentionRecord,
    DfafBlockParams,
    ForwardContext,
    dfaf_block_forward,
    init_dfaf_block,
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
    """Architecture hyperparameters; everything a checkpoint must reproduce.

    The only declaration of the architecture: parameter sets hold weights,
    and every forward reads its switches from the config on the model.
    """

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
        """Parameter count of the model ``build_model`` makes. It builds
        placeholders of one block and counts that block ``n_blocks`` times, so
        a forged header's ``n_blocks`` costs no time, and its widths no memory."""
        one = build_model(replace(self, n_blocks=1), None)
        return one.n_parameters() + (self.n_blocks - 1) * one.stack[0].n_parameters()


# The positive-integer and the string fields, in declaration order; the
# checkpoint header stores exactly these.
INT_FIELDS = tuple(f.name for f in fields(ModelConfig) if f.type == "int")
STR_FIELDS = tuple(f.name for f in fields(ModelConfig) if f.type == "str")


@dataclass
class ModelParams(Params):
    """All trainable parameters, and the config they were built from."""

    region_embed: LinearLayer
    word_embed: LinearLayer
    stack: list[DfafBlockParams]
    mlp_hidden: LinearLayer
    mlp_out: LinearLayer
    config: ModelConfig


@dataclass
class Prediction:
    """Classifier output for a batch: (B, answers) ``logits``, which stay
    tape-connected for the loss."""

    logits: Tensor
    records: list[AttentionRecord] | None = None


def build_model(config: ModelConfig, rng: np.random.Generator | None) -> ModelParams:
    """Fresh parameters; rng draw order is fixed, so equal seeds build equal
    models. This is the one declaration of each tensor's name, shape and
    order. Without a generator every parameter is a read-only zero
    placeholder that owns no memory: the checkpoint saver and loader check
    names and shapes against it, and the loader replaces each with its data."""
    fused_width = 2 * config.dim if config.fusion == "concat" else config.dim
    return ModelParams(
        region_embed=linear_init(config.d_v, config.dim, rng),
        word_embed=linear_init(config.d_w, config.dim, rng),
        stack=[
            init_dfaf_block(config.dim, config.attention_type, rng)
            for _ in range(config.n_blocks)
        ],
        mlp_hidden=linear_init(fused_width, config.hidden, rng),
        mlp_out=linear_init(config.hidden, config.n_answers, rng),
        config=config,
    )


def config_of(params: ModelParams) -> ModelConfig:
    """The architecture description a parameter set was built from."""
    return params.config


def embed_inputs(
    raw_r: Tensor, raw_e: Tensor, p: ModelParams, ctx: ForwardContext | None = None
) -> tuple[Tensor, Tensor]:
    """Project both modalities to the shared width (dropout in train mode)."""
    return linear_dropout(p.region_embed, raw_r, ctx), linear_dropout(p.word_embed, raw_e, ctx)


def fuse_and_classify(
    r: Tensor,
    e: Tensor,
    p: ModelParams,
    records: list[AttentionRecord] | None = None,
) -> Prediction:
    """Pool both modalities, fuse, and score the answer vocabulary."""
    v = avg_pool_rows(r)
    q = avg_pool_rows(e)
    if p.config.fusion == "multiply":
        fused = mul(v, q)
    elif p.config.fusion == "add":
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
    """Full pipeline on a batch of (B, μ, d_v) regions and (B, L, d_w)
    tokens; a ``ctx`` means train mode, None means eval. Blocks run in
    order, and each appends one AttentionRecord when ``records`` is a
    list."""
    config = p.config
    r, e = embed_inputs(raw_r, raw_e, p, ctx)
    for block in p.stack:
        record = None if records is None else AttentionRecord()
        r, e = dfaf_block_forward(r, e, block, config.heads, config.order, record, ctx)
        if records is not None:
            records.append(record)
    return fuse_and_classify(r, e, p, records=records)


def predict(raw_r: Tensor, raw_e: Tensor, p: ModelParams, record: bool = False) -> Prediction:
    """Deterministic eval-mode forward; records one AttentionRecord per block
    when asked."""
    records: list[AttentionRecord] | None = [] if record else None
    return forward(raw_r, raw_e, p, ctx=None, records=records)


def cross_entropy_loss(pred: Prediction, targets: Sequence[int]) -> Tensor:
    """Mean negative log-likelihood of each instance's target answer."""
    return cross_entropy_rows(pred.logits, targets)
