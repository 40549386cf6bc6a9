"""Dense float64 tensors with reverse-mode autodiff on an explicit gradient tape.

Tensors hold 1 to 3 axes of row-major 64-bit floats. Operations record
themselves on the innermost active ``GradTape`` whenever an input requires
gradients; ``backward`` replays the tape in reverse and accumulates adjoints
into the leaves. With no tape active, operations are plain numpy compute.

A tape is replayed once: ``backward`` removes each node as it runs it, so a
node's output and the arrays its closure keeps are freed once no node left
on the tape holds them, and the gradients reuse that memory. ``len(tape)``
stays the number of nodes recorded. Gradients of one forward taken twice
come from two tapes; ``.grad`` accumulates across them.

A backward closure never returns an array it keeps, and never writes into
the adjoint it is given. ``backward`` may therefore keep a returned array
that owns its memory as a leaf's ``.grad``, and adds further contributions
in place into arrays it made itself.

Activations are batches: the row ops (``mul_row``, ``attention``,
``avg_pool_rows``) take (B, n, d) rows, pooled vectors and logits are
(B, d), and one instance is a batch of one. Each rejects any other rank
with a ``ShapeError`` that names the shapes. ``linear_forward`` alone is
rank-generic: it multiplies a batch by a large weight as one GEMM over all
rows, and by a small one instance by instance. It is also the only dropout:
given a rate, it masks its own output in place and keeps one boolean per
element for backward, so a layer and its dropout are one tape node. Each
element's keep-or-drop comes from a 16-bit field of the generator's raw
64-bit words, four per word, so the rate in effect is round(rate·2^16)/2^16.
Elementwise ops take equal shapes.

Ops raise ``ShapeError`` on operands they would otherwise compute garbage
from. Parameter containers check nothing: builders derive every shape from
one config, and the checkpoint saver and loader check each shape against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Iterator, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class TapeError(RuntimeError):
    """Backward pass asked for something the tape cannot provide."""


_TAPES: list["GradTape"] = []


def active_tape() -> "GradTape | None":
    """The innermost open tape, or None."""
    return _TAPES[-1] if _TAPES else None


class Tensor:
    """A dense float64 array of 1-3 axes, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if not 1 <= arr.ndim <= 3:
            raise ShapeError(f"tensors take 1-3 axes, got shape {arr.shape}")
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        """A defensive copy of the values."""
        return self.data.copy()

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _make(data: np.ndarray, requires_grad: bool) -> Tensor:
    # Internal fast path: data is already a float64 ndarray of valid rank.
    t = Tensor.__new__(Tensor)
    t.data = data
    t.requires_grad = requires_grad
    t.grad = None
    return t


class _Node:
    __slots__ = ("inputs", "output", "backward")

    def __init__(self, inputs, output, backward):
        self.inputs = inputs
        self.output = output
        self.backward = backward


class GradTape:
    """Ordered record of forward operations, replayable for adjoints.

    Used as a context manager; ops executed inside record themselves when any
    input requires gradients. Recording order is execution order, which is a
    valid topological order for the reverse sweep.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.recorded = 0

    def __enter__(self) -> "GradTape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not _TAPES or _TAPES[-1] is not self:
            raise TapeError("tape exited out of order")
        _TAPES.pop()
        return False

    def __len__(self) -> int:
        """The number of nodes recorded, also after ``backward`` used them."""
        return self.recorded


def _recorded(inputs: tuple) -> bool:
    """Whether an op on ``inputs`` records itself: a tape is active and some
    input requires gradients."""
    tape = active_tape()
    return tape is not None and any(t.requires_grad for t in inputs)


def _apply(inputs: tuple, out_data: np.ndarray, backward) -> Tensor:
    track = _recorded(inputs)
    out = _make(out_data, track)
    if track:
        tape = active_tape()
        tape.nodes.append(_Node(inputs, out, backward))
        tape.recorded += 1
    return out


def backward(tape: GradTape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires-grad leaf on the tape.

    Consumes the tape: each node is removed as its closure runs, so the
    forward's arrays are freed during the sweep, and a second call on the
    same tape raises ``TapeError``. ``.grad`` keeps adding across tapes;
    callers zero grads explicitly.
    """
    nodes = tape.nodes
    if len(nodes) < tape.recorded:
        raise TapeError("tape was already replayed; record the forward on a new tape")
    if loss.data.size != 1:
        raise TapeError(f"loss must be scalar, got shape {loss.shape}")
    # Adjoints are keyed by id. An output freed mid-sweep leaves its id here,
    # which is safe because the sweep makes no Tensor that could reuse it.
    produced = {id(n.output) for n in nodes}
    if id(loss) not in produced:
        raise TapeError("loss was not produced on this tape")

    adjoints: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    # Keys whose adjoint is an array made here, so later fan-in adds in place.
    owned: set[int] = set()
    while nodes:
        node = nodes.pop()
        out_g = adjoints.pop(id(node.output), None)
        if out_g is None:
            continue
        grads = node.backward(out_g)
        for inp, g in zip(node.inputs, grads):
            if g is None or not inp.requires_grad:
                continue
            key = id(inp)
            if key in produced:
                acc = adjoints.get(key)
                if acc is None:
                    adjoints[key] = g
                elif key in owned:
                    acc += g
                else:
                    adjoints[key] = acc + g
                    owned.add(key)
            elif inp.grad is not None:
                inp.grad += g
            elif _fresh(g, out_g, grads):
                inp.grad = g
            else:
                inp.grad = g.copy()


def _fresh(g: np.ndarray, out_g: np.ndarray, grads: tuple) -> bool:
    # Whether a closure made ``g`` for this one input: it owns its memory, is
    # not the output adjoint passed through, and goes to no other input.
    return g.base is None and g is not out_g and sum(x is g for x in grads) == 1


# ---------------------------------------------------------------------------
# arithmetic ops


def _check_same_shape(a: Tensor, b: Tensor, opname: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{opname} needs equal shapes: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def bwd(g):
        return g, g

    return _apply((a, b), a.data + b.data, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    ad, bd = a.data, b.data

    def bwd(g):
        return g * bd, g * ad

    return _apply((a, b), ad * bd, bwd)


def mul_row(m: Tensor, v: Tensor) -> Tensor:
    """Multiply every row of instance b in ``m`` (B, n, d) by row b of
    ``v`` (B, d): the gate broadcast."""
    if m.ndim != 3 or v.shape != (m.shape[0], m.shape[2]):
        raise ShapeError(f"mul_row needs (B, n, d) rows and (B, d) gates: {m.shape} vs {v.shape}")
    vb = v.data[:, None, :]
    md = m.data

    def bwd(g):
        return g * vb, (g * md).sum(axis=1)

    return _apply((m, v), md * vb, bwd)


def add_scalar(t: Tensor, c: float) -> Tensor:
    def bwd(g):
        return (g,)

    return _apply((t,), t.data + c, bwd)


def concat_cols(*tensors: Tensor) -> Tensor:
    """Concatenate along the feature (last) axis."""
    if len(tensors) < 2:
        raise ShapeError("concat_cols needs at least two tensors")
    lead = tensors[0].shape[:-1]
    for t in tensors[1:]:
        if t.shape[:-1] != lead:
            raise ShapeError(
                f"concat_cols leading axes disagree: {tensors[0].shape} vs {t.shape}"
            )
    widths = [t.shape[-1] for t in tensors]
    offsets = np.cumsum(widths)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, offsets, axis=-1))

    return _apply(tensors, np.concatenate([t.data for t in tensors], axis=-1), bwd)


def sum_all(t: Tensor) -> Tensor:
    """Sum of all elements, as a length-1 tensor."""
    td_shape = t.shape

    def bwd(g):
        return (np.full(td_shape, g.reshape(-1)[0]),)

    return _apply((t,), np.array([t.data.sum()]), bwd)


# ---------------------------------------------------------------------------
# nonlinearities


def _swap(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


def _heads(a: np.ndarray, heads: int) -> np.ndarray:
    # (B, n, d) -> a strided (B, heads, n, d/heads) view; entry [b, h] is
    # columns [h·d/heads, (h+1)·d/heads) of instance b.
    b, n, d = a.shape
    return a.reshape(b, n, heads, d // heads).swapaxes(1, 2)


def _attention_scale(qd: np.ndarray, kd: np.ndarray, vd: np.ndarray, heads: int) -> float:
    # Check the operand shapes of attention; return the logit scale 1/√d_h.
    shapes = f"q {qd.shape}, k {kd.shape}, v {vd.shape}"
    if not qd.ndim == kd.ndim == vd.ndim == 3:
        raise ShapeError(f"attention needs (B, n, d) batches of equal rank: {shapes}")
    if qd.shape[-1] != kd.shape[-1] or kd.shape[-2] != vd.shape[-2]:
        raise ShapeError(f"query/key widths or key/value rows disagree: {shapes}")
    if not qd.shape[:-2] == kd.shape[:-2] == vd.shape[:-2]:
        raise ShapeError(f"attention batch sizes disagree: {shapes}")
    if kd.shape[-2] == 0:
        raise ShapeError(f"attention needs at least one key row: {shapes}")
    if heads < 1 or qd.shape[-1] % heads or vd.shape[-1] % heads:
        raise ShapeError(f"cannot split {shapes} into {heads} heads")
    return 1.0 / math.sqrt(qd.shape[-1] // heads)


# Attention rows of at most this many keys are reduced column by column:
# numpy's row reductions pay about 40 ns per row, which dominates at 6 to 14
# keys. Up to 15 keys the columns took 0.11-0.82 of numpy's time at the
# default and paper attention shapes, and at most 1.04 on a 23 MB batch that
# overflows the cache; at 16 keys, a 128-byte row stride that aliases in
# cache, up to 1.9 times it (table in CHANGES.md). _row_sum follows numpy's
# order for at most 15 terms, so this may not exceed 15.
ROW_LOOP_MAX = 15


def _row_max(x: np.ndarray) -> np.ndarray:
    # x.max(axis=-1, keepdims=True). np.maximum is exact in any order, save
    # the sign of a +0.0 tied with -0.0, which numpy's vector reduction also
    # picks by its lane layout; the shifted exponentials are the same.
    if x.shape[-1] > ROW_LOOP_MAX:
        return x.max(axis=-1, keepdims=True)
    acc = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(acc, x[..., j], out=acc)
    return acc[..., None]


def _row_sum(x: np.ndarray) -> np.ndarray:
    # x.sum(axis=-1, keepdims=True), column by column in numpy's pairwise
    # order, so the bytes are the same: under 8 terms in sequence; 8 to 15
    # as the tree ((x0+x1)+(x2+x3))+((x4+x5)+(x6+x7)), then the rest in
    # sequence. numpy adds the result to the identity +0.0, which only turns
    # a -0.0 sum into +0.0; adding +0.0 to the first term does the same.
    m = x.shape[-1]
    if m > ROW_LOOP_MAX:
        return x.sum(axis=-1, keepdims=True)
    cols = [x[..., j] for j in range(m)]
    acc = cols[0] + 0.0
    rest = cols[1:]
    if m >= 8:
        acc += cols[1]
        acc += cols[2] + cols[3]
        hi = cols[4] + cols[5]
        hi += cols[6] + cols[7]
        acc += hi
        rest = cols[8:]
    for col in rest:
        acc += col
    return acc[..., None]


def _softmax_weights(qd: np.ndarray, kd: np.ndarray, heads: int, c: float) -> np.ndarray:
    # softmax(q·kᵀ·c) per head as (B, heads, n, m), stabilized by per-row max
    # subtraction. The keys' one copy is (B, heads, d_h, m), so each head's
    # logits are a contiguous NN product; it goes before the row temporaries.
    b, m, d = kd.shape
    kt = np.ascontiguousarray(kd.reshape(b, m, heads, d // heads).transpose(0, 2, 3, 1))
    s = np.matmul(_heads(qd, heads), kt)
    del kt
    s *= c
    s -= _row_max(s)
    np.exp(s, out=s)
    s /= _row_sum(s)
    return s


def _matmul_into(a: np.ndarray, b: np.ndarray, shape: tuple[int, ...], heads: int) -> np.ndarray:
    # A fresh (B, n, d) array whose head view holds the per-head a·b.
    out = np.empty(shape)
    np.matmul(a, b, out=_heads(out, heads))
    return out


def attention_weights(q: Tensor, k: Tensor, heads: int) -> np.ndarray:
    """The (B, heads, n, m) weights ``attention(q, k, v, heads)`` returns,
    from ``q`` and ``k`` alone: no value product, and nothing is recorded."""
    qd, kd = q.data, k.data
    return _softmax_weights(qd, kd, heads, _attention_scale(qd, kd, kd, heads))


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> tuple[Tensor, np.ndarray]:
    """Multi-head attention softmax(q·kᵀ/√d_h)·v as one op.

    ``q`` (B, n, d), ``k`` (B, m, d) and ``v`` (B, m, d_v) are equal-sized
    batches: rows of ``q`` are queries, rows of ``k`` and ``v`` are keys, of
    which there must be at least one. The feature axes split into ``heads``
    contiguous column groups, each attended on its own and scaled by the
    square root of its width d_h. Returns the merged values (``q``'s rows,
    ``v``'s width) and the (B, heads, n, m) weights, whose entry [b, h] is
    head h of instance b. Backward reads the weights, so nothing may write
    into them. The softmax is stabilized by per-row max subtraction. Rows of
    at most ``ROW_LOOP_MAX`` keys are reduced column by column, in numpy's
    own order, so the bytes match numpy's row reductions. Every product runs
    on strided head views of q, k, v and the gradients; only the keys are
    copied, once, into the transposed layout of the logits.
    """
    qd, kd, vd = q.data, k.data, v.data
    c = _attention_scale(qd, kd, vd, heads)
    s = _softmax_weights(qd, kd, heads, c)
    out = _matmul_into(s, _heads(vd, heads), qd.shape[:-1] + vd.shape[-1:], heads)
    need_q, need_k, need_v = q.requires_grad, k.requires_grad, v.requires_grad

    def bwd(g):
        gh = _heads(g, heads)
        dv = _matmul_into(_swap(s), gh, vd.shape, heads) if need_v else None
        if not (need_q or need_k):
            return None, None, dv
        dl = np.matmul(gh, _swap(_heads(vd, heads)))
        dl -= _row_sum(dl * s)
        dl *= s
        dl *= c
        dq = _matmul_into(dl, _heads(kd, heads), qd.shape, heads) if need_q else None
        dk = _matmul_into(_swap(dl), _heads(qd, heads), kd.shape, heads) if need_k else None
        return dq, dk, dv

    return _apply((q, k, v), out, bwd), s


def sigmoid(t: Tensor) -> Tensor:
    x = t.data
    pos = x >= 0
    z = np.exp(np.where(pos, -x, x))
    out = np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z))

    def bwd(g):
        return (g * out * (1.0 - out),)

    return _apply((t,), out, bwd)


def relu(t: Tensor) -> Tensor:
    x = t.data
    mask = x > 0

    def bwd(g):
        return (g * mask,)

    # maximum, not where(mask, ...): a NaN input stays NaN downstream.
    return _apply((t,), np.maximum(x, 0.0), bwd)


def avg_pool_rows(m: Tensor) -> Tensor:
    """Arithmetic mean over the row axis: (B, n, d) -> (B, d)."""
    if m.ndim != 3:
        raise ShapeError(f"avg_pool_rows needs a (B, n, d) batch, got {m.shape}")
    n = m.shape[-2]
    if n == 0:
        raise ShapeError("avg_pool_rows on an empty input")
    md_shape = m.shape

    def bwd(g):
        return (np.broadcast_to((g / n)[..., None, :], md_shape),)

    return _apply((m,), m.data.mean(axis=-2), bwd)


def cross_entropy_rows(logits: Tensor, targets: Sequence[int]) -> Tensor:
    """Mean negative log-likelihood of one integer target per row of the
    (B, answers) ``logits`` under row softmax.

    Computed through log-sum-exp on the logits for stability; the gradient is
    (softmax - one_hot) / n_rows.
    """
    if logits.ndim != 2:
        raise ShapeError(f"cross entropy takes a (B, answers) logit matrix, got {logits.shape}")
    x = logits.data
    idx = np.asarray(targets, dtype=np.intp)
    if idx.ndim != 1 or idx.shape[0] != x.shape[0]:
        raise ShapeError(f"{x.shape[0]} logit rows but {idx.shape} targets")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[1]):
        raise IndexError(f"target outside [0, {x.shape[1]}): {idx.tolist()}")
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    lse = m[:, 0] + np.log(e.sum(axis=-1))
    rows = np.arange(x.shape[0])
    losses = lse - x[rows, idx]
    n = x.shape[0]
    probs = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        gl = probs.copy()
        gl[rows, idx] -= 1.0
        gl *= g.reshape(-1)[0] / n
        return (gl,)

    return _apply((logits,), np.array([losses.mean()]), bwd)


# ---------------------------------------------------------------------------
# layers and the finite-difference oracle


class Params:
    """Base of the parameter dataclasses, whose field order is the
    checkpoint's tensor order: reordering fields changes the file format.

    ``named_parameters`` walks the fields as declared. A Tensor is a leaf, a
    Params recurses as ``name.``, a list numbers its items (``stack.0.``),
    and any other field (sizes, switches, None) is skipped.
    """

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for f in fields(self):
            yield from _named(f"{prefix}{f.name}", getattr(self, f.name))

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def n_parameters(self) -> int:
        return sum(p.size for p in self.parameters())


def _named(name: str, value) -> Iterator[tuple[str, Tensor]]:
    if isinstance(value, Tensor):
        yield name, value
    elif isinstance(value, Params):
        yield from value.named_parameters(f"{name}.")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _named(f"{name}.{i}", item)


@dataclass
class LinearLayer(Params):
    """Fully-connected layer: weight (in_dim x out_dim) plus bias (out_dim)."""

    weight: Tensor
    bias: Tensor

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]


def linear_init(in_dim: int, out_dim: int, rng: np.random.Generator | None) -> LinearLayer:
    # Uniform +-1/sqrt(fan_in) weights, zero bias. Without a generator both are
    # placeholders for a loader to replace: read-only zeros with zero strides
    # over one 8-byte buffer, so they own no memory (``Tensor()`` would copy
    # them). numpy refuses a shape of more bytes than its largest array with
    # ValueError.
    if rng is None:
        zero = bytes(8)
        weight = np.ndarray((in_dim, out_dim), np.float64, zero, 0, (0, 0))
        bias = np.ndarray((out_dim,), np.float64, zero, 0, (0,))
        return LinearLayer(_make(weight, True), _make(bias, True))
    bound = 1.0 / math.sqrt(in_dim)
    w = rng.uniform(-bound, bound, size=(in_dim, out_dim))
    return LinearLayer(Tensor(w, requires_grad=True), Tensor(np.zeros(out_dim), requires_grad=True))


# A (B, n, d) batch times a weight of at least this many elements runs as one
# GEMM over its B·n rows. numpy's batched matmul makes one GEMM per instance,
# and each packs the whole weight again; for small weights that still beats one
# tall GEMM. One-GEMM time over per-instance time, measured with 1 BLAS
# thread, B in {8, 32, 256}, n in {6, 14, 100} and square weights: 0.80-1.40
# at 64x64, 0.67-1.11 at 128x128, 0.55-1.00 at 256x256 (2^16) and 0.32-0.90
# at 512x512 (2^18); CHANGES.md keeps the sweep ("linear-layer GEMM sweep").
# 2^17 is the smallest power of two above every weight at which one GEMM
# lost or tied in any run.
ONE_GEMM_MIN_WEIGHT = 1 << 17

# Dropout draws one 16-bit field per element: four from each raw 64-bit word.
DROPOUT_LEVELS = 1 << 16


def dropout_threshold(rate: float) -> int:
    """t = round(rate·2^16): dropout at ``rate`` zeroes an element whose field
    is below t, so the rate in effect is t/2^16. A rate outside [0, 1), or one
    of at least 1 − 2^-17, whose t is 2^16, raises ``ValueError``."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    t = round(rate * DROPOUT_LEVELS)
    if t == DROPOUT_LEVELS:
        raise ValueError(f"dropout rate {rate} rounds to 1 in 16 bits; it must be below 1 - 2**-17")
    return t


def linear_forward(
    layer: LinearLayer, x: Tensor, rate: float = 0.0, rng: np.random.Generator | None = None
) -> Tensor:
    """x·W + b as one op; ``x`` is a vector, a matrix or a batch of matrices.

    A batch times a weight of at least ``ONE_GEMM_MIN_WEIGHT`` elements is one
    GEMM over the flattened rows; a smaller weight multiplies each instance on
    its own. Both give each instance the bytes it gets alone at the default
    and paper model widths, but one GEMM may round an instance's last bits
    differently at some other widths.

    A ``rate`` applies inverted dropout to the output at the rate in effect
    p = t/2^16, t = ``dropout_threshold(rate)``. One call takes ⌈n/4⌉ words
    from ``rng.bit_generator.random_raw`` for the output's n elements and
    splits each word into four 16-bit fields, low bits first; element i is
    zeroed when field i is below t, and the others are scaled by 1/(1-p).
    Only the boolean mask is kept for backward. Masking before scaling gives
    the bytes of ``out * keep`` for a float mask ``keep`` of 0 and 1/(1-p),
    signed zeros, infinities and NaN included, and so does the gradient,
    ``(g * mask) * (1/(1-p))``. A rate whose t is 0 draws nothing.

    Backward makes the weight's and the bias's gradients as new arrays, so
    ``backward`` keeps them as their ``.grad`` without a copy."""
    t = dropout_threshold(rate)
    if x.shape[-1] != layer.in_dim:
        raise ShapeError(
            f"linear layer expects width {layer.in_dim}, input has shape {x.shape}"
        )
    xd, wd = x.data, layer.weight.data
    d, o = wd.shape
    if xd.ndim == 3 and wd.size >= ONE_GEMM_MIN_WEIGHT:
        out = np.matmul(xd.reshape(-1, d), wd).reshape(xd.shape[:-1] + (o,))
    else:
        out = np.matmul(xd, wd)
    out += layer.bias.data
    mask = None
    if t:
        scale = 1.0 / (1.0 - t / DROPOUT_LEVELS)
        words = rng.bit_generator.random_raw(-(-out.size // 4))
        # Little-endian 16-bit views split each word by value, low bits first.
        fields = words.astype("<u8", copy=False).view("<u2")[: out.size]
        mask = fields.reshape(out.shape) >= t
        out *= mask
        out *= scale
    need_x = x.requires_grad

    def bwd(g):
        if mask is not None:
            g = g * mask
            g *= scale
        # One GEMM per gradient on the flattened rows, for any number of axes.
        g2 = g.reshape(-1, o)
        gx = np.matmul(g2, wd.T).reshape(xd.shape) if need_x else None
        return gx, np.matmul(xd.reshape(-1, d).T, g2), g2.sum(axis=0)

    return _apply((x, layer.weight, layer.bias), out, bwd)


def finite_diff_gradient(
    f: Callable[[Sequence[Tensor]], float],
    params: Sequence[Tensor],
    eps: float = 1e-5,
) -> list[np.ndarray]:
    """Central-difference gradient of ``f`` w.r.t. each tensor in ``params``.

    ``f`` must be deterministic; parameters are perturbed in place one
    coordinate at a time and restored exactly.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            fp = float(f(params))
            flat[j] = orig - eps
            fm = float(f(params))
            flat[j] = orig
            gflat[j] = (fp - fm) / (2.0 * eps)
        grads.append(g)
    return grads


def relative_error(
    analytic: np.ndarray, reference: np.ndarray, atol: float = 1e-8
) -> float:
    """Blockwise relative L2 error.

    When both blocks are below ``atol`` in norm they agree on "zero" — a
    structurally zero gradient (e.g. a bias that softmax shift-invariance
    cancels) compared against finite-difference rounding noise must not read
    as a 100% mismatch.
    """
    na = float(np.linalg.norm(analytic))
    nf = float(np.linalg.norm(reference))
    if max(na, nf) < atol:
        return 0.0
    return float(np.linalg.norm(analytic - reference)) / max(na, nf)
