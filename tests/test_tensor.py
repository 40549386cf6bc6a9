"""Tensor core: forward oracles, gradient closed forms, and tape behavior."""

import math

import numpy as np
import pytest
from conftest import np_attention
from hypothesis import given, settings
from hypothesis import strategies as st

from dfaf import tensor as T
from dfaf.tensor import (
    GradTape,
    LinearLayer,
    ShapeError,
    TapeError,
    Tensor,
    backward,
)


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


def attend(q, k, v, heads=1):
    """``attention`` on plain arrays, for tests of its forward alone."""
    return T.attention(Tensor(q), Tensor(k), Tensor(v), heads)


class TestMatmul:
    """The weights-by-values product inside ``attention``."""

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(7)
        q, k, v = (rng.standard_normal(shape) for shape in ((1, 5, 4), (1, 3, 4), (1, 3, 2)))
        out, w = attend(q, k, v)
        assert np.max(np.abs(out.numpy()[0] - matmul_oracle(w[0, 0], v[0]))) < 1e-12

    def test_identity_is_bit_exact(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((1, 6, 6))
        eye = np.eye(6)[None]
        # Identity values return the weights; keys 100·I make the weights
        # exactly the identity, which returns the values.
        out, w = attend(a, a, eye)
        assert np.array_equal(out.numpy(), w[:, 0])
        out, w = attend(100.0 * eye, 100.0 * eye, a)
        assert np.array_equal(w[:, 0], eye)
        assert np.array_equal(out.numpy(), a)

    def test_inner_dim_mismatch_mentions_both_shapes(self):
        with pytest.raises(ShapeError, match=r"k \(1, 4, 3\), v \(1, 2, 3\)"):
            attend(np.ones((1, 2, 3)), np.ones((1, 4, 3)), np.ones((1, 2, 3)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        q, k, v = (
            Tensor(rng.standard_normal(shape), requires_grad=True)
            for shape in ((1, 3, 4), (1, 5, 4), (1, 5, 2))
        )
        with GradTape() as tape:
            loss = T.sum_all(T.attention(q, k, v, 1)[0])
        backward(tape, loss)

        def f(params):
            return float(np_attention(*(p.data for p in params), 1)[0].sum())

        fd = T.finite_diff_gradient(f, [q, k, v])
        assert T.relative_error(v.grad, fd[2]) < 1e-8
        assert T.relative_error(q.grad, fd[0]) < 1e-7
        assert T.relative_error(k.grad, fd[1]) < 1e-7


class TestElementwiseArithmetic:
    def test_add_sub_mul_hand_values(self):
        a = Tensor([[1.0, -2.0], [0.5, 4.0]])
        b = Tensor([[3.0, 3.0], [-1.0, 0.25]])
        assert np.array_equal(T.add(a, b).numpy(), [[4.0, 1.0], [-0.5, 4.25]])
        assert np.array_equal(T.mul(a, b).numpy(), [[3.0, -6.0], [-0.5, 1.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3))))

    def test_mul_row_gradient_sums_over_rows(self):
        rng = np.random.default_rng(12)
        m = Tensor(rng.standard_normal((1, 4, 3)), requires_grad=True)
        v = Tensor(rng.standard_normal((1, 3)), requires_grad=True)
        with GradTape() as tape:
            loss = T.sum_all(T.mul_row(m, v))
        backward(tape, loss)
        assert np.allclose(v.grad, m.data.sum(axis=1))
        assert np.allclose(m.grad, np.broadcast_to(v.data, (1, 4, 3)))

    def test_row_ops_on_batched_input(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((2, 3, 4))
        v = rng.standard_normal((2, 4))
        got = T.mul_row(Tensor(m), Tensor(v)).numpy()
        for i in range(2):
            assert np.array_equal(got[i], m[i] * v[i])

    def test_scalar_ops(self):
        x = Tensor([1.0, 2.0, 3.0])
        assert np.array_equal(T.add_scalar(x, 1.0).numpy(), [2.0, 3.0, 4.0])


class TestConcatAndSlice:
    def test_roundtrip(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((3, 5))
        cat = T.concat_cols(Tensor(a), Tensor(b))
        assert cat.shape == (3, 7)
        assert np.array_equal(cat.numpy(), np.concatenate([a, b], axis=-1))

    def test_concat_gradient_splits(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 1)), requires_grad=True)
        with GradTape() as tape:
            cat = T.concat_cols(a, b)
            loss = T.sum_all(T.mul(cat, cat))
        backward(tape, loss)
        assert a.grad.shape == (2, 2) and b.grad.shape == (2, 1)
        assert np.allclose(a.grad, 2.0) and np.allclose(b.grad, 2.0)


def per_head(q, k, v, g, heads):
    """``np_attention`` run single-headed on each column group alone, merged
    back: values, (B, heads, n, m) weights, and the gradients in q, k and v."""
    w = q.shape[-1] // heads
    cols = [slice(h * w, (h + 1) * w) for h in range(heads)]
    groups = [np_attention(q[..., c], k[..., c], v[..., c], 1, g[..., c]) for c in cols]
    out, _, dq, dk, dv = (np.concatenate(x, axis=-1) for x in zip(*groups))
    return out, np.concatenate([group[1] for group in groups], axis=1), dq, dk, dv


def attend_with_grads(shape, heads, seed):
    rng = np.random.default_rng(seed)
    n, d = shape[-2:]
    q = Tensor(rng.standard_normal(shape), requires_grad=True)
    kv_shape = shape[:-2] + (n + 1, d)
    k, v = (Tensor(rng.standard_normal(kv_shape), requires_grad=True) for _ in "kv")
    g = rng.standard_normal(shape)
    with GradTape() as tape:
        out, w = T.attention(q, k, v, heads)
        loss = T.sum_all(T.mul(out, Tensor(g)))
    backward(tape, loss)
    return q, k, v, g, out, w


class TestSplitMergeHeads:
    """``attention`` splits into head-major column groups and merges back:
    each head is single-head attention on its group, bit for bit."""

    @pytest.mark.parametrize("shape", [(1, 5, 6), (3, 5, 6)])
    @pytest.mark.parametrize("heads", [1, 2, 6])
    def test_roundtrip_is_bitwise(self, shape, heads):
        q, k, v, g, out, w = attend_with_grads(shape, heads, 40)
        outs, weights, *_ = per_head(q.data, k.data, v.data, g, heads)
        assert np.array_equal(w, weights)
        assert np.array_equal(out.data, outs)

    @pytest.mark.parametrize("shape", [(1, 5, 6), (3, 5, 6)])
    def test_split_backward_is_exact_regrouping(self, shape):
        q, k, v, g, _, _ = attend_with_grads(shape, 3, 41)
        _, _, dq, dk, _ = per_head(q.data, k.data, v.data, g, 3)
        assert np.array_equal(q.grad, dq)
        assert np.array_equal(k.grad, dk)

    def test_merge_backward_is_exact_split(self):
        q, k, v, g, _, _ = attend_with_grads((2, 5, 6), 3, 42)
        *_, dv = per_head(q.data, k.data, v.data, g, 3)
        assert np.array_equal(v.grad, dv)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ShapeError, match="6"):
            attend(np.ones((1, 2, 6)), np.ones((1, 2, 6)), np.ones((1, 2, 6)), 4)

    def test_bad_merge_shape_rejected(self):
        with pytest.raises(ShapeError, match="heads"):
            attend(np.ones((1, 2, 6)), np.ones((1, 3, 6)), np.ones((1, 3, 7)), 2)


def softmax_rows(x):
    # Row softmax of a batch of one through the attention op: keys sqrt(d)·I
    # undo the 1/sqrt(d) scale, so the logits are the queries themselves,
    # and identity values return the weights.
    q = x if isinstance(x, Tensor) else Tensor(x)
    eye = np.eye(q.shape[-1])[None]
    return T.attention(q, Tensor(math.sqrt(q.shape[-1]) * eye), Tensor(eye), 1)[0]


class TestSoftmax:
    def test_uniform_rows(self):
        out = softmax_rows(np.zeros((1, 2, 4))).numpy()
        assert np.allclose(out, 0.25)

    def test_two_column_closed_form(self):
        x = np.array([[[0.0, 1.0]]])
        out = softmax_rows(x).numpy()[0]
        expect = 1.0 / (1.0 + math.exp(-1.0))
        assert abs(out[0, 1] - expect) < 1e-15
        assert abs(out[0, 0] - (1.0 - expect)) < 1e-15

    def test_large_inputs_do_not_overflow(self):
        out = softmax_rows(np.array([[[1000.0, 1000.0, -1000.0]]])).numpy()[0]
        assert np.all(np.isfinite(out))
        assert np.allclose(out[0], [0.5, 0.5, 0.0])

    def test_shift_invariance(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((1, 3, 5))
        a = softmax_rows(x).numpy()
        b = softmax_rows(x + 123.0).numpy()
        assert np.allclose(a, b, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(-50, 50), min_size=1, max_size=8),
            min_size=1,
            max_size=6,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_rows_are_distributions(self, rows):
        out = softmax_rows(np.array([rows])).numpy()
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.standard_normal((1, 3, 4)), requires_grad=True)
        c = rng.standard_normal((1, 3, 4))
        with GradTape() as tape:
            loss = T.sum_all(T.mul(softmax_rows(x), Tensor(c)))
        backward(tape, loss)

        def f(params):
            z = params[0].data
            e = np.exp(z - z.max(axis=-1, keepdims=True))
            s = e / e.sum(axis=-1, keepdims=True)
            return float((s * c).sum())

        fd = T.finite_diff_gradient(f, [x])
        assert T.relative_error(x.grad, fd[0]) < 1e-7


class TestActivations:
    def test_sigmoid_identities(self):
        out = T.sigmoid(Tensor([0.0, 100.0, -100.0])).numpy()
        assert abs(out[0] - 0.5) < 1e-15
        assert abs(out[1] - 1.0) < 1e-12
        assert abs(out[2]) < 1e-12

    def test_sigmoid_symmetry(self):
        x = np.linspace(-5, 5, 21)
        s = T.sigmoid(Tensor(x)).numpy()
        assert np.allclose(s + s[::-1], 1.0, atol=1e-15)

    def test_relu_hand_values(self):
        out = T.relu(Tensor([-2.0, 0.0, 3.5, np.nan])).numpy()
        assert np.array_equal(out, [0.0, 0.0, 3.5, np.nan], equal_nan=True)

    def test_activation_gradients(self):
        rng = np.random.default_rng(17)
        for kind, activation in (("sigmoid", T.sigmoid), ("relu", T.relu)):
            x = Tensor(rng.standard_normal((2, 3)) + 0.1, requires_grad=True)
            with GradTape() as tape:
                loss = T.sum_all(activation(x))
            backward(tape, loss)

            def f(params, kind=kind):
                z = params[0].data
                if kind == "relu":
                    return float(np.maximum(z, 0).sum())
                return float((1 / (1 + np.exp(-z))).sum())

            fd = T.finite_diff_gradient(f, [x])
            assert T.relative_error(x.grad, fd[0]) < 1e-7, kind


class TestAvgPool:
    def test_constant_rows(self):
        m = Tensor(np.tile([2.0, 4.0], (1, 5, 1)))
        assert np.array_equal(T.avg_pool_rows(m).numpy(), [[2.0, 4.0]])

    def test_hand_mean(self):
        m = Tensor([[[1.0, 0.0], [3.0, 8.0]]])
        assert np.array_equal(T.avg_pool_rows(m).numpy(), [[2.0, 4.0]])

    def test_batched_matches_per_slice(self):
        rng = np.random.default_rng(18)
        m = rng.standard_normal((3, 4, 2))
        out = T.avg_pool_rows(Tensor(m)).numpy()
        for i in range(3):
            assert np.allclose(out[i], m[i].mean(axis=0))

    def test_gradient_spreads_uniformly(self):
        m = Tensor(np.ones((1, 4, 3)), requires_grad=True)
        with GradTape() as tape:
            loss = T.sum_all(T.avg_pool_rows(m))
        backward(tape, loss)
        assert np.allclose(m.grad, 0.25)


class TestDropout:
    def test_rate_zero_is_identity_object(self):
        x = Tensor(np.ones((3, 3)))
        assert T.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_monte_carlo_zero_fraction_and_scaling(self):
        rng = np.random.default_rng(19)
        x = Tensor(np.ones((1000, 1000)))
        out = T.dropout(x, 0.1, rng).numpy()
        zero_frac = float((out == 0.0).mean())
        assert abs(zero_frac - 0.1) < 0.002
        survivors = out[out != 0.0]
        assert np.allclose(survivors, 1.0 / 0.9)
        # unbiased in expectation
        assert abs(out.mean() - 1.0) < 0.005

    def test_mask_shared_between_value_and_gradient(self):
        rng = np.random.default_rng(20)
        x = Tensor(np.ones((50, 50)), requires_grad=True)
        with GradTape() as tape:
            y = T.dropout(x, 0.3, rng)
            loss = T.sum_all(y)
        backward(tape, loss)
        assert np.array_equal(x.grad == 0.0, y.numpy() == 0.0)

    def test_invalid_arguments(self):
        x = Tensor(np.ones(3))
        with pytest.raises(ValueError):
            T.dropout(x, -0.1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            T.dropout(x, 1.0, np.random.default_rng(0))


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        logits = Tensor(np.zeros((4, 7)))
        loss = T.cross_entropy_rows(logits, [0, 1, 2, 3])
        assert abs(loss.item() - math.log(7)) < 1e-12

    def test_hand_computed_two_class(self):
        logits = Tensor([[2.0, 0.0]])
        loss = T.cross_entropy_rows(logits, [0])
        assert abs(loss.item() - math.log(1 + math.exp(-2.0))) < 1e-12

    def test_extreme_logits_stay_finite(self):
        logits = Tensor([[1000.0, -1000.0], [-1000.0, 1000.0]])
        loss = T.cross_entropy_rows(logits, [0, 1])
        assert math.isfinite(loss.item())
        assert abs(loss.item()) < 1e-12

    def test_gradient_is_softmax_minus_onehot_over_n(self):
        rng = np.random.default_rng(21)
        z = rng.standard_normal((3, 5))
        logits = Tensor(z, requires_grad=True)
        targets = [4, 0, 2]
        with GradTape() as tape:
            loss = T.cross_entropy_rows(logits, targets)
        backward(tape, loss)
        e = np.exp(z - z.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(3), targets] -= 1.0
        assert np.allclose(logits.grad, p / 3.0, atol=1e-12)

    def test_target_bounds_checked(self):
        with pytest.raises(IndexError):
            T.cross_entropy_rows(Tensor(np.zeros((2, 3))), [0, 3])
        with pytest.raises(ShapeError):
            T.cross_entropy_rows(Tensor(np.zeros((2, 3))), [0])


class TestTapeMechanics:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with GradTape() as tape:
            loss = T.sum_all(x)
        backward(tape, loss)
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic_gradient_is_2x(self):
        x = Tensor([[1.0, -2.0], [3.0, 0.5]], requires_grad=True)
        with GradTape() as tape:
            loss = T.sum_all(T.mul(x, x))
        backward(tape, loss)
        assert np.allclose(x.grad, 2.0 * x.data)

    def test_repeated_backward_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        with GradTape() as tape:
            loss = T.sum_all(T.mul(x, x))
        backward(tape, loss)
        backward(tape, loss)
        assert np.allclose(x.grad, 8.0)
        x.zero_grad()
        backward(tape, loss)
        assert np.allclose(x.grad, 4.0)

    def test_reused_tensor_fans_in(self):
        x = Tensor([3.0], requires_grad=True)
        with GradTape() as tape:
            y = T.add(x, x)  # 2x
            loss = T.sum_all(T.mul(y, y))  # 4x^2 -> grad 8x
        backward(tape, loss)
        assert np.allclose(x.grad, 24.0)

    def test_one_add_gives_two_leaves_unshared_grads(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        b = Tensor(-np.arange(4.0), requires_grad=True)
        c = Tensor([0.5, -1.0, 2.0, 3.0])
        with GradTape() as tape:
            loss = T.sum_all(T.mul(T.add(a, b), c))
        backward(tape, loss)
        assert np.array_equal(a.grad, c.data) and np.array_equal(b.grad, c.data)
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        assert np.array_equal(b.grad, c.data)

    def test_adjoint_passed_to_two_inputs_is_never_written(self):
        # add hands one array to a and b; a's later fan-in must not change b's.
        x = Tensor(np.zeros(3), requires_grad=True)
        z = Tensor(np.zeros(3), requires_grad=True)
        c, d = Tensor([1.0, 2.0, 3.0]), Tensor([10.0, 20.0, 30.0])
        with GradTape() as tape:
            a, b = T.add_scalar(x, 0.0), T.add_scalar(z, 0.0)
            u = T.mul(a, d)
            y = T.add(a, b)
            loss = T.sum_all(T.add(T.mul(y, c), u))
        backward(tape, loss)
        assert np.array_equal(z.grad, c.data)
        assert np.array_equal(x.grad, c.data + d.data)

    def test_fan_in_of_four_sums_in_reverse_tape_order(self):
        # x -> h -> four consumers; h's adjoint reaches x.grad unchanged
        # through add_scalar, so x.grad shows the order of h's fan-in sums.
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal(64), requires_grad=True)
        cs = [Tensor(rng.standard_normal(64) * 10.0**k) for k in range(4)]
        with GradTape() as tape:
            h = T.add_scalar(x, 0.0)
            ys = [T.mul(h, c) for c in cs]
            loss = T.sum_all(T.add(T.add(T.add(ys[0], ys[1]), ys[2]), ys[3]))
        backward(tape, loss)
        c0, c1, c2, c3 = (c.data for c in cs)
        # The last-recorded consumer contributes first: ((c3 + c2) + c1) + c0.
        expect = ((c3 + c2) + c1) + c0
        assert not np.array_equal(expect, ((c0 + c1) + c2) + c3)
        assert x.grad.tobytes() == expect.tobytes()

    def test_broadcast_view_gradient_becomes_writable_copy(self):
        m = Tensor(np.arange(12.0).reshape(1, 4, 3), requires_grad=True)
        c = Tensor([[1.0, -2.0, 4.0]])
        with GradTape() as tape:
            loss = T.sum_all(T.mul(T.avg_pool_rows(m), c))
        backward(tape, loss)
        assert m.grad.flags.writeable and m.grad.flags.c_contiguous
        assert np.array_equal(m.grad, np.broadcast_to(c.data / 4.0, (1, 4, 3)))
        m.grad[0, 0, 0] += 1.0
        assert m.grad[0, 1, 0] == 0.25

    def test_no_tape_means_no_recording(self):
        x = Tensor([1.0], requires_grad=True)
        y = T.mul(x, x)
        assert y.requires_grad is False

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with GradTape() as tape:
            y = T.mul(x, x)
        with pytest.raises(TapeError, match="scalar"):
            backward(tape, y)

    def test_off_tape_loss_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        with GradTape() as tape:
            T.mul(x, x)
        stray = T.sum_all(Tensor([1.0]))
        with pytest.raises(TapeError, match="tape"):
            backward(tape, stray)

    def test_constants_receive_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        c = Tensor([5.0])
        with GradTape() as tape:
            loss = T.sum_all(T.mul(x, c))
        backward(tape, loss)
        assert c.grad is None
        assert np.allclose(x.grad, 5.0)

    def test_nested_tapes_record_independently(self):
        x = Tensor([2.0], requires_grad=True)
        with GradTape() as outer:
            a = T.mul(x, x)
            with GradTape() as inner:
                b = T.mul(x, x)
                inner_loss = T.sum_all(b)
            outer_loss = T.sum_all(a)
        backward(inner, inner_loss)
        assert np.allclose(x.grad, 4.0)
        x.zero_grad()
        backward(outer, outer_loss)
        assert np.allclose(x.grad, 4.0)

    def test_out_of_order_exit_rejected(self):
        outer, inner = GradTape(), GradTape()
        with outer:
            inner.__enter__()
            with pytest.raises(TapeError, match="out of order"):
                outer.__exit__(None, None, None)
            assert T.active_tape() is inner
            inner.__exit__(None, None, None)
            assert T.active_tape() is outer
        assert T.active_tape() is None


class TestLinearLayer:
    def test_forward_composed_oracle(self):
        rng = np.random.default_rng(22)
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(3)
        x = rng.standard_normal((5, 4))
        layer = LinearLayer(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))
        got = T.linear_forward(layer, Tensor(x)).numpy()
        assert np.allclose(got, matmul_oracle(x, w) + b, atol=1e-12)

    def test_vector_input(self):
        layer = LinearLayer(Tensor(np.eye(2), requires_grad=True), Tensor([1.0, -1.0], requires_grad=True))
        out = T.linear_forward(layer, Tensor([3.0, 4.0]))
        assert np.array_equal(out.numpy(), [4.0, 3.0])

    def test_init_bounds_and_zero_bias(self):
        rng = np.random.default_rng(23)
        layer = T.linear_init(64, 16, rng)
        bound = 1.0 / math.sqrt(64)
        assert layer.weight.shape == (64, 16)
        assert np.all(np.abs(layer.weight.data) <= bound)
        assert np.array_equal(layer.bias.data, np.zeros(16))
        assert layer.weight.requires_grad and layer.bias.requires_grad

    def test_width_mismatch_reported(self):
        rng = np.random.default_rng(24)
        layer = T.linear_init(4, 2, rng)
        with pytest.raises(ShapeError, match="width 4"):
            T.linear_forward(layer, Tensor(np.ones((3, 5))))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(25)
        layer = T.linear_init(3, 2, rng)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        with GradTape() as tape:
            out = T.linear_forward(layer, x)
            loss = T.sum_all(T.mul(out, out))
        backward(tape, loss)

        def f(params):
            w, b, xx = (p.data for p in params)
            y = xx @ w + b
            return float((y * y).sum())

        fd = T.finite_diff_gradient(f, [layer.weight, layer.bias, x])
        assert T.relative_error(layer.weight.grad, fd[0]) < 1e-7
        assert T.relative_error(layer.bias.grad, fd[1]) < 1e-7
        assert T.relative_error(x.grad, fd[2]) < 1e-7


LINEAR_INPUT_SHAPES = [(4,), (5, 4), (3, 5, 4)]


def composed_linear(x, w, b, g):
    """The two-op composition matmul then bias, forward and backward, in numpy:
    the batched weight gradient is summed over the batch axis afterwards."""
    out = np.matmul(x, w) + b
    if x.ndim == 1:
        return out, g @ w.T, np.outer(x, g), g
    gw = np.matmul(x.swapaxes(-1, -2), g)
    if gw.ndim == 3:
        gw = gw.sum(axis=0)
    return out, np.matmul(g, w.T), gw, g.reshape(-1, g.shape[-1]).sum(axis=0)


class TestFusedLinear:
    @pytest.mark.parametrize("shape", LINEAR_INPUT_SHAPES)
    def test_forward_bitwise_and_backward_match_composition(self, shape):
        rng = np.random.default_rng(28)
        layer = T.linear_init(4, 3, rng)
        layer.bias.data[:] = rng.standard_normal(3)
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        g = rng.standard_normal(shape[:-1] + (3,))
        with GradTape() as tape:
            out = T.linear_forward(layer, x)
            loss = T.sum_all(T.mul(out, Tensor(g)))
        backward(tape, loss)
        want, gx, gw, gb = composed_linear(x.data, layer.weight.data, layer.bias.data, g)
        assert np.array_equal(out.data, want)
        for got, expect in ((x.grad, gx), (layer.weight.grad, gw), (layer.bias.grad, gb)):
            assert got.shape == expect.shape
            assert np.max(np.abs(got - expect)) < 1e-12

    @pytest.mark.parametrize("shape", LINEAR_INPUT_SHAPES)
    def test_gradients_match_finite_differences(self, shape):
        rng = np.random.default_rng(29)
        layer = T.linear_init(4, 3, rng)
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        with GradTape() as tape:
            out = T.linear_forward(layer, x)
            loss = T.sum_all(T.mul(out, out))
        backward(tape, loss)

        def f(params):
            w, b, xx = (p.data for p in params)
            y = np.matmul(xx, w) + b
            return float((y * y).sum())

        fd = T.finite_diff_gradient(f, [layer.weight, layer.bias, x])
        for got, expect in zip((layer.weight.grad, layer.bias.grad, x.grad), fd):
            assert T.relative_error(got, expect) < 1e-7

    def test_constant_input_gets_no_gradient(self):
        rng = np.random.default_rng(30)
        layer = T.linear_init(4, 3, rng)
        x = Tensor(rng.standard_normal((2, 5, 4)))
        with GradTape() as tape:
            loss = T.sum_all(T.linear_forward(layer, x))
        backward(tape, loss)
        assert x.grad is None
        assert np.allclose(layer.weight.grad, x.data.sum(axis=(0, 1))[:, None] * np.ones(3))
        assert np.array_equal(layer.bias.grad, np.full(3, 10.0))

    def test_one_call_records_one_node(self):
        layer = T.linear_init(4, 3, np.random.default_rng(31))
        with GradTape() as tape:
            T.linear_forward(layer, Tensor(np.ones((2, 5, 4))))
        assert len(tape) == 1

    @pytest.mark.parametrize(
        "weight, n, batch",
        [
            (w, n, b)
            for ws, ns, bs in (
                ([(64, 64), (32, 64), (128, 64)], (12, 6), (1, 32, 256)),
                ([(2048, 512), (300, 512), (512, 512), (1024, 512)], (100, 14), (1, 3, 8)),
            )
            for w in ws
            for n in ns
            for b in bs
        ],
    )
    def test_batch_rows_equal_each_instance_and_other_product(self, weight, n, batch):
        """At the default and paper model's linear shapes, a batch's rows equal
        each instance's own ``linear_forward`` bit for bit, and both products
        (per instance, and one GEMM over the flattened rows) give the same
        bytes. Rounding is specific to the numpy and OpenBLAS build (numpy
        2.4.6, scipy-openblas 0.3.31): another build may move the last bits
        of one product without a fault in the code."""
        rng = np.random.default_rng(32)
        d, o = weight
        layer = T.linear_init(d, o, rng)
        layer.bias.data[:] = rng.standard_normal(o)
        x = rng.standard_normal((batch, n, d))
        got = T.linear_forward(layer, Tensor(x)).data
        w, b = layer.weight.data, layer.bias.data
        assert np.array_equal(got, np.matmul(x, w) + b)
        assert np.array_equal(got, (np.matmul(x.reshape(-1, d), w) + b).reshape(got.shape))
        for i in range(batch):
            alone = T.linear_forward(layer, Tensor(x[i : i + 1])).data
            assert np.array_equal(got[i : i + 1], alone)


class TestFiniteDifferenceOracle:
    def test_quadratic_slope(self):
        x = Tensor([3.0])

        def f(params):
            v = params[0].data[0]
            return v * v

        (g,) = T.finite_diff_gradient(f, [x])
        assert abs(g[0] - 6.0) < 1e-8
        assert x.data[0] == 3.0  # restored exactly

    def test_linear_function_is_exact(self):
        rng = np.random.default_rng(26)
        c = rng.standard_normal(5)
        x = Tensor(rng.standard_normal(5))

        def f(params):
            return float(params[0].data @ c)

        (g,) = T.finite_diff_gradient(f, [x])
        assert np.allclose(g, c, atol=1e-9)


class TestShapesAndMisc:
    def test_scalar_input_becomes_length_one(self):
        t = Tensor(3.5)
        assert t.shape == (1,)
        assert t.item() == 3.5

    def test_four_axis_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 2, 2, 2)))

    def test_numpy_returns_copy(self):
        t = Tensor([1.0, 2.0])
        arr = t.numpy()
        arr[0] = 99.0
        assert t.data[0] == 1.0
