"""Inter- and intra-modality attention flow between region and word features.

Two module families operate on a pair of feature batches (regions ``r`` of
shape (B, μ, dim), words ``e`` of shape (B, L, dim)), both projected to a
shared width ``dim``. Every forward takes batches; one instance is a batch
of one.

* Inter-modality flow: bidirectional co-attention. Each modality attends over
  the other, pulls in weighted value vectors, and fuses them with its own
  features through a concatenation + linear layer. Updates can run in
  parallel or sequentially (the second pass re-projects the freshly updated
  modality through the same projection weights).

* Intra-modality flow: self-attention within each modality. In the dynamic
  variant each modality's query and key features are modulated channel-wise
  by ``1 + sigmoid(linear(avg_pool(other modality)))`` — so what a modality
  attends to within itself is conditioned on the other modality. Value
  features are never gated. The naive variant skips gating entirely and is
  fully independent of the other modality. Both use a residual update.

Multi-head attention is one tape op, ``tensor.attention``: it splits the
feature axis into contiguous groups and attends in all of them at once on a
head-major view, each group scaled by the square root of its width. Gates
are computed at full width and split alongside the channels.

A block is inter-modality flow followed by intra-modality flow; blocks stack
sequentially. There is no normalization anywhere, and dropout (train mode,
which a ForwardContext selects) follows each projection and fusion linear.

Nothing here checks shapes: ``ModelConfig`` fixes every width the builders
use, and the ``tensor`` ops reject a wrong width or an empty modality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .tensor import (
    LinearLayer,
    Params,
    Tensor,
    add,
    add_scalar,
    attention,
    attention_weights,
    avg_pool_rows,
    concat_cols,
    dropout,
    linear_forward,
    linear_init,
    mul_row,
    sigmoid,
)

ORDERS = ("parallel", "r_then_e", "e_then_r")


class BlockVariant(NamedTuple):
    """What a block of one attention type holds and runs."""

    inter: bool  # has the inter-modality half
    intra: bool  # has the intra-modality half
    dynamic: bool  # the intra half gates queries and keys


# The paper's ablations. The builder, the parameter count and the forward
# all read this table.
VARIANTS = {
    "full": BlockVariant(inter=True, intra=True, dynamic=True),
    "inter_only": BlockVariant(inter=True, intra=False, dynamic=False),
    "intra_only": BlockVariant(inter=False, intra=True, dynamic=False),
    "dyintra_only": BlockVariant(inter=False, intra=True, dynamic=True),
}
ATTENTION_TYPES = tuple(VARIANTS)


@dataclass
class ForwardContext:
    """Train mode: dropout at ``dropout_rate`` drawn from ``rng``. Forwards
    take None for eval mode, which is deterministic."""

    dropout_rate: float
    rng: np.random.Generator


def linear_dropout(layer: LinearLayer, x: Tensor, ctx: ForwardContext | None) -> Tensor:
    """A linear layer, followed by dropout in train mode."""
    out = linear_forward(layer, x)
    return out if ctx is None else dropout(out, ctx.dropout_rate, ctx.rng)


@dataclass
class QkvProjection(Params):
    """Query/key/value projections for one modality."""

    query: LinearLayer
    key: LinearLayer
    value: LinearLayer


@dataclass
class InterMafParams(Params):
    """Bidirectional cross-modality attention parameters."""

    region_qkv: QkvProjection
    word_qkv: QkvProjection
    region_out: LinearLayer  # 2*dim -> dim, fuses [r, r_update]
    word_out: LinearLayer  # 2*dim -> dim, fuses [e, e_update]


@dataclass
class DyIntraMafParams(Params):
    """Self-attention parameters, optionally gated by the other modality.

    The gate layers exist in every variant, so the parameter set has one
    shape; the naive forward (``dynamic`` false) never reads them.
    """

    region_qkv: QkvProjection
    word_qkv: QkvProjection
    gate_from_regions: LinearLayer  # pooled regions -> gate on word q/k
    gate_from_words: LinearLayer  # pooled words -> gate on region q/k
    region_out: LinearLayer  # dim -> dim, applied to the residual sum
    word_out: LinearLayer


@dataclass
class AttentionRecord:
    """Attention matrices and gate vectors captured from one block's forward.

    Matrix lists hold one (B, n, m) array per head (length ``heads``), and
    gates are (B, dim): row b is instance b of the batch, and one instance
    is a batch of one. Arrays are detached copies, safe to keep after
    backward. For dynamic intra modules, ``intra_*_gates_disabled`` hold the
    same inputs' self-attention with the gates left out of queries and keys.
    """

    inter_r_from_e: list[np.ndarray] = field(default_factory=list)
    inter_e_from_r: list[np.ndarray] = field(default_factory=list)
    intra_r: list[np.ndarray] = field(default_factory=list)
    intra_e: list[np.ndarray] = field(default_factory=list)
    gate_on_regions: np.ndarray | None = None
    gate_on_words: np.ndarray | None = None
    intra_r_gates_disabled: list[np.ndarray] = field(default_factory=list)
    intra_e_gates_disabled: list[np.ndarray] = field(default_factory=list)

    def matrices(self) -> Iterator[tuple[str, int, np.ndarray]]:
        """The forward's own attention matrices as (name, head, array)."""
        for name in ("inter_r_from_e", "inter_e_from_r", "intra_r", "intra_e"):
            for head, arr in enumerate(getattr(self, name)):
                yield name, head, arr


@dataclass
class DfafBlockParams(Params):
    """One fusion block: inter-modality flow, then intra-modality flow.

    Either half may be absent (ablation variants); ``VARIANTS`` gives every
    attention type at least one.
    """

    inter: InterMafParams | None
    intra: DyIntraMafParams | None


# ---------------------------------------------------------------------------
# forward passes


def head_copies(w: np.ndarray, heads: int) -> list[np.ndarray]:
    """Per-head (B, n, m) copies of head-major (B·heads, n, m) weights ``w``."""
    by_head = w.reshape(-1, heads, *w.shape[1:])
    return [by_head[:, h].copy() for h in range(heads)]


def compute_gates(other_modality_feats: Tensor, gate_layer: LinearLayer) -> Tensor:
    """Per-channel gate in (0,1) from the other modality's pooled features."""
    pooled = avg_pool_rows(other_modality_feats)
    return sigmoid(linear_forward(gate_layer, pooled))


def _project(qkv: QkvProjection, x: Tensor, ctx) -> tuple[Tensor, Tensor, Tensor]:
    return tuple(linear_dropout(layer, x, ctx) for layer in (qkv.query, qkv.key, qkv.value))


def inter_maf_forward(
    r: Tensor,
    e: Tensor,
    p: InterMafParams,
    heads: int = 1,
    order: str = "parallel",
    record: AttentionRecord | None = None,
    ctx: ForwardContext | None = None,
) -> tuple[Tensor, Tensor]:
    """Bidirectional cross-attention update of both modalities.

    parallel: both updates read the other modality's original projections.
    r_then_e: words update first (attending over original regions); regions
    then attend over the *updated* words, re-projected through the same
    key/value layers. e_then_r is the mirror image.
    """
    r_q = linear_dropout(p.region_qkv.query, r, ctx)
    e_q = linear_dropout(p.word_qkv.query, e, ctx)

    def update_regions(keys: Tensor, values: Tensor) -> tuple[Tensor, np.ndarray]:
        attended, weights = attention(r_q, keys, values, heads)
        return linear_dropout(p.region_out, concat_cols(r, attended), ctx), weights

    def update_words(keys: Tensor, values: Tensor) -> tuple[Tensor, np.ndarray]:
        attended, weights = attention(e_q, keys, values, heads)
        return linear_dropout(p.word_out, concat_cols(e, attended), ctx), weights

    def keys_values(qkv: QkvProjection, x: Tensor) -> tuple[Tensor, Tensor]:
        return linear_dropout(qkv.key, x, ctx), linear_dropout(qkv.value, x, ctx)

    if order == "parallel":
        r_new, w_r = update_regions(*keys_values(p.word_qkv, e))
        e_new, w_e = update_words(*keys_values(p.region_qkv, r))
    elif order == "r_then_e":
        e_new, w_e = update_words(*keys_values(p.region_qkv, r))
        r_new, w_r = update_regions(*keys_values(p.word_qkv, e_new))
    else:  # e_then_r
        r_new, w_r = update_regions(*keys_values(p.word_qkv, e))
        e_new, w_e = update_words(*keys_values(p.region_qkv, r_new))

    if record is not None:
        record.inter_r_from_e = head_copies(w_r, heads)
        record.inter_e_from_r = head_copies(w_e, heads)
    return r_new, e_new


def dyintra_maf_forward(
    r: Tensor,
    e: Tensor,
    p: DyIntraMafParams,
    heads: int = 1,
    dynamic: bool = True,
    record: AttentionRecord | None = None,
    ctx: ForwardContext | None = None,
) -> tuple[Tensor, Tensor]:
    """Self-attention within each modality with a residual update.

    Dynamic variant: each modality's queries and keys are scaled channel-wise
    by (1 + gate), the gate coming from the other modality's pooled features.
    Values are never gated. Naive variant (``dynamic`` false) has no
    dependence on the other modality at all. A dynamic record also keeps the
    attention of the ungated queries and keys.
    """
    r_q, r_k, r_v = _project(p.region_qkv, r, ctx)
    e_q, e_k, e_v = _project(p.word_qkv, e, ctx)

    gate_r = gate_e = None
    if dynamic:
        if record is not None:  # what the gates modulate, without them
            record.intra_r_gates_disabled = head_copies(attention_weights(r_q, r_k, heads), heads)
            record.intra_e_gates_disabled = head_copies(attention_weights(e_q, e_k, heads), heads)
        gate_r = compute_gates(e, p.gate_from_words)  # modulates region q/k
        gate_e = compute_gates(r, p.gate_from_regions)  # modulates word q/k
        mult_r = add_scalar(gate_r, 1.0)
        mult_e = add_scalar(gate_e, 1.0)
        r_q, r_k = mul_row(r_q, mult_r), mul_row(r_k, mult_r)
        e_q, e_k = mul_row(e_q, mult_e), mul_row(e_k, mult_e)

    # Each modality's projections are dropped once attended; in eval nothing
    # else holds them, and this keeps them out of the forward's peak.
    r_att, w_r = attention(r_q, r_k, r_v, heads)
    del r_q, r_k, r_v
    e_att, w_e = attention(e_q, e_k, e_v, heads)
    del e_q, e_k, e_v
    r_new = linear_dropout(p.region_out, add(r, r_att), ctx)
    e_new = linear_dropout(p.word_out, add(e, e_att), ctx)

    if record is not None:
        record.intra_r = head_copies(w_r, heads)
        record.intra_e = head_copies(w_e, heads)
        if dynamic:
            record.gate_on_regions = gate_r.numpy()
            record.gate_on_words = gate_e.numpy()
    return r_new, e_new


def dfaf_block_forward(
    r: Tensor,
    e: Tensor,
    p: DfafBlockParams,
    heads: int,
    order: str,
    dynamic: bool,
    record: AttentionRecord | None = None,
    ctx: ForwardContext | None = None,
) -> tuple[Tensor, Tensor]:
    """Inter-modality flow followed by intra-modality flow (either optional)."""
    if p.inter is not None:
        r, e = inter_maf_forward(r, e, p.inter, heads, order, record, ctx)
    if p.intra is not None:
        r, e = dyintra_maf_forward(r, e, p.intra, heads, dynamic, record, ctx)
    return r, e


# ---------------------------------------------------------------------------
# builders


def init_qkv(dim: int, rng: np.random.Generator | None) -> QkvProjection:
    return QkvProjection(
        query=linear_init(dim, dim, rng),
        key=linear_init(dim, dim, rng),
        value=linear_init(dim, dim, rng),
    )


def init_inter_maf(dim: int, rng: np.random.Generator | None) -> InterMafParams:
    return InterMafParams(
        region_qkv=init_qkv(dim, rng),
        word_qkv=init_qkv(dim, rng),
        region_out=linear_init(2 * dim, dim, rng),
        word_out=linear_init(2 * dim, dim, rng),
    )


def init_dyintra_maf(dim: int, rng: np.random.Generator | None) -> DyIntraMafParams:
    return DyIntraMafParams(
        region_qkv=init_qkv(dim, rng),
        word_qkv=init_qkv(dim, rng),
        gate_from_regions=linear_init(dim, dim, rng),
        gate_from_words=linear_init(dim, dim, rng),
        region_out=linear_init(dim, dim, rng),
        word_out=linear_init(dim, dim, rng),
    )


def init_dfaf_block(
    dim: int, attention_type: str, rng: np.random.Generator | None
) -> DfafBlockParams:
    variant = VARIANTS[attention_type]
    return DfafBlockParams(
        inter=init_inter_maf(dim, rng) if variant.inter else None,
        intra=init_dyintra_maf(dim, rng) if variant.intra else None,
    )
