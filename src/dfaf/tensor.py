"""Dense float64 tensors with reverse-mode autodiff on an explicit gradient tape.

Tensors hold 1 to 3 axes of row-major 64-bit floats. Operations record
themselves on the innermost active ``GradTape`` whenever an input requires
gradients; ``backward`` replays the tape in reverse and accumulates adjoints
into the leaves. With no tape active, operations are plain numpy compute.

A backward closure never returns an array it keeps, and never writes into
the adjoint it is given. ``backward`` may therefore keep a returned array
that owns its memory as a leaf's ``.grad``, and adds further contributions
in place into arrays it made itself.

Activations are batches: the row ops (``mul_row``, ``attention``,
``avg_pool_rows``) take (B, n, d) rows, pooled vectors and logits are
(B, d), and one instance is a batch of one. Each rejects any other rank
with a ``ShapeError`` that names the shapes. ``linear_forward`` alone is
rank-generic, and elementwise ops take equal shapes.

Ops raise ``ShapeError`` on operands they would otherwise compute garbage
from. Parameter containers check nothing: builders derive every shape from
one config, and the checkpoint loader checks each stored shape.
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

    def __enter__(self) -> "GradTape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not _TAPES or _TAPES[-1] is not self:
            raise TapeError("tape exited out of order")
        _TAPES.pop()
        return False

    def __len__(self) -> int:
        return len(self.nodes)


def _recorded(inputs: tuple) -> bool:
    """Whether an op on ``inputs`` records itself: a tape is active and some
    input requires gradients."""
    tape = active_tape()
    return tape is not None and any(t.requires_grad for t in inputs)


def _apply(inputs: tuple, out_data: np.ndarray, backward) -> Tensor:
    track = _recorded(inputs)
    out = _make(out_data, track)
    if track:
        active_tape().nodes.append(_Node(inputs, out, backward))
    return out


def backward(tape: GradTape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires-grad leaf on the tape.

    Repeated calls keep adding into ``.grad``; callers zero grads explicitly.
    """
    if loss.data.size != 1:
        raise TapeError(f"loss must be scalar, got shape {loss.shape}")
    produced = {id(n.output) for n in tape.nodes}
    if id(loss) not in produced:
        raise TapeError("loss was not produced on this tape")

    adjoints: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    # Keys whose adjoint is an array made here, so later fan-in adds in place.
    owned: set[int] = set()
    for node in reversed(tape.nodes):
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


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    # (B, n, d) -> head-major (B·heads, n, d/heads) copy; entry b·heads + h
    # holds columns [h·d/heads, (h+1)·d/heads) of instance b.
    b, n, d = a.shape
    grouped = a.reshape(b, n, heads, d // heads).swapaxes(1, 2)
    return np.ascontiguousarray(grouped).reshape(b * heads, n, d // heads)


def _merge_heads(a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Inverse of _split_heads; ``shape`` is (B, n, d).
    b, n, d = shape
    grouped = a.reshape(b, d // a.shape[-1], n, a.shape[-1]).swapaxes(1, 2)
    return np.ascontiguousarray(grouped).reshape(shape)


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


def _softmax_weights(qh: np.ndarray, kh: np.ndarray, c: float) -> np.ndarray:
    # Head-major softmax(qh·khᵀ·c), stabilized by per-row max subtraction.
    s = np.matmul(qh, np.ascontiguousarray(_swap(kh)))
    s *= c
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def attention_weights(q: Tensor, k: Tensor, heads: int) -> np.ndarray:
    """The (B, heads, n, m) weights ``attention(q, k, v, heads)`` returns,
    from ``q`` and ``k`` alone: no value product, and nothing is recorded."""
    qd, kd = q.data, k.data
    c = _attention_scale(qd, kd, kd, heads)
    s = _softmax_weights(_split_heads(qd, heads), _split_heads(kd, heads), c)
    return s.reshape(len(qd), heads, *s.shape[1:])


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> tuple[Tensor, np.ndarray]:
    """Multi-head attention softmax(q·kᵀ/√d_h)·v as one op.

    ``q`` (B, n, d), ``k`` (B, m, d) and ``v`` (B, m, d_v) are equal-sized
    batches: rows of ``q`` are queries, rows of ``k`` and ``v`` are keys, of
    which there must be at least one. The feature axes split into ``heads``
    contiguous column groups, each attended on its own and scaled by the
    square root of its width d_h. Returns the merged values (``q``'s rows,
    ``v``'s width) and the (B, heads, n, m) weights, whose entry [b, h] is
    head h of instance b: a view of the head-major (B·heads, n, m) buffer
    that backward reads, so nothing may write into it. The softmax is
    stabilized by per-row max subtraction. Backward reuses the weights and
    the head-major copies of q, k and v.
    """
    qd, kd, vd = q.data, k.data, v.data
    c = _attention_scale(qd, kd, vd, heads)
    # A recorded op keeps its head-major copies of q, k and v for backward;
    # otherwise each is dropped as soon as it has been used.
    keep = _recorded((q, k, v))
    qh, kh = _split_heads(qd, heads), _split_heads(kd, heads)
    s = _softmax_weights(qh, kh, c)
    if not keep:
        qh = kh = None
    vh = _split_heads(vd, heads)
    out = np.matmul(s, vh)
    if not keep:
        vh = None
    out = _merge_heads(out, qd.shape[:-1] + vd.shape[-1:])
    need_q, need_k, need_v = q.requires_grad, k.requires_grad, v.requires_grad

    def bwd(g):
        g_h = _split_heads(g, heads)
        dv = _merge_heads(np.matmul(_swap(s), g_h), vd.shape) if need_v else None
        if not (need_q or need_k):
            return None, None, dv
        dl = np.matmul(g_h, _swap(vh))
        del g_h
        dl -= (dl * s).sum(axis=-1, keepdims=True)
        dl *= s
        dl *= c
        dq = _merge_heads(np.matmul(dl, kh), qd.shape) if need_q else None
        dk = _merge_heads(np.matmul(_swap(dl), qh), kd.shape) if need_k else None
        return dq, dk, dv

    return _apply((q, k, v), out, bwd), s.reshape(len(qd), heads, *s.shape[1:])


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


def dropout(t: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zeroes each element with probability ``rate`` and
    scales survivors by 1/(1-rate). Eval mode never calls it."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return t
    # One array: the uniform draws become the 0/1 mask, then the scaled mask.
    keep = rng.random(t.shape)
    np.greater_equal(keep, rate, out=keep)
    keep *= 1.0 / (1.0 - rate)

    def bwd(g):
        return (g * keep,)

    return _apply((t,), t.data * keep, bwd)


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
    # Uniform +-1/sqrt(fan_in) weights, zero bias; zero weights without a generator.
    bound = 1.0 / math.sqrt(in_dim)
    shape = (in_dim, out_dim)
    w = np.zeros(shape) if rng is None else rng.uniform(-bound, bound, size=shape)
    weight = Tensor(w, requires_grad=True)
    bias = Tensor(np.zeros(out_dim), requires_grad=True)
    return LinearLayer(weight, bias)


def linear_forward(layer: LinearLayer, x: Tensor) -> Tensor:
    """x·W + b as one op; ``x`` is a vector, a matrix or a batch of matrices."""
    if x.shape[-1] != layer.in_dim:
        raise ShapeError(
            f"linear layer expects width {layer.in_dim}, input has shape {x.shape}"
        )
    xd, wd = x.data, layer.weight.data
    d, o = wd.shape
    out = np.matmul(xd, wd)
    out += layer.bias.data
    need_x = x.requires_grad

    def bwd(g):
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
