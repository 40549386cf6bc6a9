"""Tensor core: forward oracles, gradient closed forms, and tape behavior."""

import math

import numpy as np
import pytest
from conftest import matmul_oracle

from dfaf import tensor as T
from dfaf.cli import main
from dfaf.tensor import (
    GradTape,
    LinearLayer,
    ShapeError,
    TapeError,
    Tensor,
    backward,
)
from dfaf.training import TrainConfig


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

    def test_concat_cols_values_and_gradient_split(self):
        rng = np.random.default_rng(14)
        a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        with GradTape() as tape:
            cat = T.concat_cols(a, b)
            loss = T.sum_all(T.mul(cat, cat))
        backward(tape, loss)
        assert np.array_equal(cat.numpy(), np.concatenate([a.data, b.data], axis=-1))
        assert np.array_equal(a.grad, 2.0 * a.data) and np.array_equal(b.grad, 2.0 * b.data)


def short_rows(shape, seed):
    """Rows of magnitudes from 1e-8 to 1e8 of either sign, holding -0.0 and
    ±inf; row 0 of each group is all -0.0 and row 1 is nonpositive."""
    rng = np.random.default_rng(seed)
    x = 10.0 ** rng.uniform(-8, 8, shape) * rng.choice([-1.0, 1.0], shape)
    pick = rng.random(shape)
    x[pick < 0.15] = -0.0
    x[pick > 0.95] = np.inf
    x[(pick > 0.9) & (pick <= 0.95)] = -np.inf
    x[..., 0, :] = -0.0
    x[..., 1, :] = -np.abs(x[..., 1, :])
    return x


def nan_same(a: np.ndarray, b: np.ndarray) -> bool:
    # NaN in the same places and the same bytes elsewhere; a NaN's payload
    # may follow operand order.
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and same_bytes(a[~nan], b[~nan])


class TestShortRowReductions:
    """Rows of at most ``ROW_LOOP_MAX`` keys are reduced column by column,
    with the bytes of numpy's own row reductions."""

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("m", range(1, T.ROW_LOOP_MAX + 2))
    def test_max_and_sum_match_numpy_bitwise(self, m, batch):
        x = short_rows((batch, 2, 5, m), seed=m)
        with np.errstate(invalid="ignore"):
            assert same_bytes(T._row_max(x), x.max(axis=-1, keepdims=True))
            assert same_bytes(T._row_sum(x), x.sum(axis=-1, keepdims=True))

    @pytest.mark.parametrize("m", [1, 7, 8, 12, T.ROW_LOOP_MAX])
    def test_nan_rows_give_nan_in_the_same_places(self, m):
        x = short_rows((2, 4, m), seed=m)
        x[:, 2, m // 2] = np.nan
        x[1, 3, 0] = np.nan
        with np.errstate(invalid="ignore"):
            assert nan_same(T._row_max(x), x.max(axis=-1, keepdims=True))
            assert nan_same(T._row_sum(x), x.sum(axis=-1, keepdims=True))

    @pytest.mark.parametrize("m", [2, 9, 12, T.ROW_LOOP_MAX])
    def test_zero_tie_in_the_max_gives_the_same_weights(self, m):
        # A maximum of +0.0 tied with -0.0 may take either sign: with 8-lane
        # vectors numpy's reduction gives +0.0 for 9 keys ending in -0.0, the
        # columns -0.0. The shifted exponentials do not see the sign.
        x = np.zeros((2, 3, m))
        x[..., -1] = -0.0
        x[:, 1, :-2] = -1.0
        want = x.max(axis=-1, keepdims=True)
        got = T._row_max(x)
        assert np.array_equal(got, want)
        assert same_bytes(np.exp(x - got), np.exp(x - want))

    @pytest.mark.parametrize("keys", [6, 12])
    def test_attention_matches_numpy_reductions_bitwise(self, keys, monkeypatch):
        def run():
            rng = np.random.default_rng(keys)
            q = Tensor(rng.standard_normal((256, 12, 64)), requires_grad=True)
            k, v = (Tensor(rng.standard_normal((256, keys, 64)), requires_grad=True) for _ in "kv")
            g = Tensor(rng.standard_normal((256, 12, 64)))
            with GradTape() as tape:
                out, w = T.attention(q, k, v, 4)
                loss = T.sum_all(T.mul(out, g))
            backward(tape, loss)
            return out.data, w, q.grad, k.grad, v.grad

        columns = run()
        monkeypatch.setattr(T, "ROW_LOOP_MAX", 0)
        rows = run()
        assert all(same_bytes(a, b) for a, b in zip(columns, rows))


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


def reference_linear_forward(layer: LinearLayer, x: Tensor) -> Tensor:
    """``linear_forward`` as it was before it took a dropout rate, verbatim."""
    if x.shape[-1] != layer.in_dim:
        raise ShapeError(
            f"linear layer expects width {layer.in_dim}, input has shape {x.shape}"
        )
    xd, wd = x.data, layer.weight.data
    d, o = wd.shape
    if xd.ndim == 3 and wd.size >= T.ONE_GEMM_MIN_WEIGHT:
        out = np.matmul(xd.reshape(-1, d), wd).reshape(xd.shape[:-1] + (o,))
    else:
        out = np.matmul(xd, wd)
    out += layer.bias.data
    need_x = x.requires_grad

    def bwd(g):
        # One GEMM per gradient on the flattened rows, for any number of axes.
        g2 = g.reshape(-1, o)
        gx = np.matmul(g2, wd.T).reshape(xd.shape) if need_x else None
        return gx, np.matmul(xd.reshape(-1, d).T, g2), g2.sum(axis=0)

    return T._apply((x, layer.weight, layer.bias), out, bwd)


def reference_dropout(t: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Float-mask dropout on the 16-bit rule, written apart from the op.
    Element i reads the value of bits 16·(i % 4) to 16·(i % 4) + 15 of raw
    word i // 4, and survives, scaled by 2^16/(2^16 - t), when that value is
    at least t = round(rate·2^16)."""
    threshold = round(rate * 65536)
    if threshold == 0:
        return t
    n = t.data.size
    words = rng.bit_generator.random_raw((n + 3) // 4)
    fields = [(int(words[i // 4]) >> (16 * (i % 4))) & 0xFFFF for i in range(n)]
    keep = np.array([1.0 if f >= threshold else 0.0 for f in fields]).reshape(t.shape)
    keep *= 65536 / (65536 - threshold)

    def bwd(g):
        return (g * keep,)

    return T._apply((t,), t.data * keep, bwd)


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


LINEAR_INPUT_SHAPES = [(4,), (5, 4), (3, 5, 4), (4, 3)]


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
    """``linear_forward``: x·W + b as one op, with train-mode dropout given a
    rate, and ``linear_init``."""

    @pytest.mark.parametrize("shape", LINEAR_INPUT_SHAPES)
    def test_forward_bitwise_and_backward_match_composition(self, shape):
        # A layer from the input's width d to d - 1; the values also match a
        # triple-loop product of each row.
        d = shape[-1]
        rng = np.random.default_rng(28)
        layer = T.linear_init(d, d - 1, rng)
        layer.bias.data[:] = rng.standard_normal(d - 1)
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        g = rng.standard_normal(shape[:-1] + (d - 1,))
        with GradTape() as tape:
            out = T.linear_forward(layer, x)
            loss = T.sum_all(T.mul(out, Tensor(g)))
        backward(tape, loss)
        want, gx, gw, gb = composed_linear(x.data, layer.weight.data, layer.bias.data, g)
        assert np.array_equal(out.data, want)
        rows = matmul_oracle(x.data.reshape(-1, d), layer.weight.data) + layer.bias.data
        assert np.allclose(out.data, rows.reshape(out.shape), atol=1e-12)
        for got, expect in ((x.grad, gx), (layer.weight.grad, gw), (layer.bias.grad, gb)):
            assert got.shape == expect.shape
            assert np.max(np.abs(got - expect)) < 1e-12

    @pytest.mark.parametrize("shape", LINEAR_INPUT_SHAPES)
    def test_gradients_match_finite_differences(self, shape):
        rng = np.random.default_rng(29)
        layer = T.linear_init(shape[-1], shape[-1] - 1, rng)
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

    def test_vector_input(self):
        layer = LinearLayer(
            Tensor(np.eye(2), requires_grad=True), Tensor([1.0, -1.0], requires_grad=True)
        )
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
            T.linear_forward(layer, Tensor(np.ones((2, 5, 4))), 0.5, np.random.default_rng(0))
        assert len(tape) == 2

    @pytest.mark.parametrize(
        "width, rate, error, match",
        [
            (5, 0.0, ShapeError, "width 4"),
            *((4, rate, ValueError, "dropout rate") for rate in (-0.1, 1.0, float("nan"))),
        ],
    )
    def test_invalid_arguments(self, width, rate, error, match):
        layer = T.linear_init(4, 2, np.random.default_rng(24))
        with pytest.raises(error, match=match):
            T.linear_forward(layer, Tensor(np.ones((3, width))), rate, np.random.default_rng(0))

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

    @pytest.mark.parametrize("rate", [0.0, 2.0**-17, 1e-9])
    def test_rate_rounding_to_zero_draws_nothing_and_gives_eval_bytes(self, rate):
        rng = np.random.default_rng(41)
        layer = T.linear_init(3, 3, rng)
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        state = rng.bit_generator.state
        with GradTape() as tape:
            out = T.linear_forward(layer, x, rate, rng)
        assert rng.bit_generator.state == state
        assert len(tape) == 1
        assert same_bytes(out.data, T.linear_forward(layer, x).data)

    def test_monte_carlo_zero_fraction_and_scaling(self):
        rng = np.random.default_rng(19)
        ones = LinearLayer(Tensor(np.zeros((1, 1000))), Tensor(np.ones(1000)))
        out = T.linear_forward(ones, Tensor(np.zeros((1000, 1))), 0.1, rng).numpy()
        zero_frac = float((out == 0.0).mean())
        assert abs(zero_frac - 0.1) < 0.002
        survivors = out[out != 0.0]
        assert np.allclose(survivors, 1.0 / 0.9)
        # unbiased in expectation
        assert abs(out.mean() - 1.0) < 0.005

    def test_mask_shared_between_value_and_gradient(self):
        rng = np.random.default_rng(20)
        layer = LinearLayer(Tensor(np.eye(50), requires_grad=True), Tensor(np.zeros(50)))
        x = Tensor(np.ones((50, 50)), requires_grad=True)
        with GradTape() as tape:
            y = T.linear_forward(layer, x, 0.3, rng)
            loss = T.sum_all(y)
        backward(tape, loss)
        assert np.array_equal(x.grad == 0.0, y.numpy() == 0.0)
        assert np.array_equal(layer.weight.grad, x.data.T @ y.data)

    def test_field_equal_to_the_threshold_keeps_its_element(self):
        # The rate is set so that t equals the field of element 1; element 1
        # survives, and every element is kept exactly when its field is >= t.
        words = np.random.default_rng(40).bit_generator.random_raw(2)
        fields = [(int(words[i // 4]) >> (16 * (i % 4))) & 0xFFFF for i in range(8)]
        assert 0 < fields[1] < 65536
        rate = fields[1] / 65536
        ones = LinearLayer(Tensor(np.zeros((1, 8))), Tensor(np.ones(8)))
        out = T.linear_forward(ones, Tensor(np.zeros((1, 1))), rate, np.random.default_rng(40))
        assert out.data[0, 1] == 65536 / (65536 - fields[1])
        assert (out.data[0] != 0.0).tolist() == [f >= fields[1] for f in fields]

    @pytest.mark.parametrize("rate", [1.0 - 2.0**-17, 1.0 - 2.0**-20])
    def test_rate_rounding_to_one_is_refused(self, rate, capsys):
        layer = T.linear_init(3, 3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="dropout rate"):
            T.linear_forward(layer, Tensor(np.ones(3)), rate, np.random.default_rng(0))
        with pytest.raises(ValueError, match="dropout rate"):
            TrainConfig(dropout=rate)
        assert main(["train", "--set", f"dropout={rate!r}", "data.bin", "ckpt.bin"]) == 2
        assert "config error: training: dropout rate" in capsys.readouterr().err
        # The largest rate below the limit has t = 65535 and keeps one field value.
        TrainConfig(dropout=1.0 - 2.0**-16)

    @pytest.mark.parametrize("shape", [(1,), (2, 3), (3, 5), (1, 3, 3), (2, 2, 4)])
    def test_draws_one_word_per_four_elements_rounded_up(self, shape):
        n = math.prod(shape)
        layer = LinearLayer(Tensor(np.zeros((1, shape[-1]))), Tensor(np.ones(shape[-1])))
        x = Tensor(np.zeros(shape[:-1] + (1,)))
        rng, twin = np.random.default_rng(42), np.random.default_rng(42)
        T.linear_forward(layer, x, 0.1, rng)
        twin.bit_generator.advance(-(-n // 4))
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("rate", [0.1, 0.5])
    @pytest.mark.parametrize(
        "weight, shape",
        [((512, 256), (2, 6, 512)), ((8, 6), (3, 5, 8)), ((8, 6), (12, 8))],
        ids=["one-gemm", "per-instance", "matrix"],
    )
    def test_equals_linear_then_float_mask_dropout(self, weight, shape, rate):
        """The fused op gives the bytes of the linear op it replaced followed
        by ``reference_dropout``: values, the three gradients and the
        generator state afterwards. Three input rows hold +inf, -inf and NaN,
        the rest are finite and of both signs, and every other output column
        is so large that scaling a dropped element before masking it would
        give inf·0 = NaN instead of 0."""
        rng = np.random.default_rng(33)
        layer = T.linear_init(*weight, rng)
        layer.bias.data[:] = rng.standard_normal(weight[1])
        layer.bias.data[::2] = 1.7e308
        xd = rng.standard_normal(shape)
        rows = xd.reshape(-1, weight[0])
        rows[0, 0], rows[1, 1], rows[2, 2] = np.inf, -np.inf, np.nan
        g = rng.standard_normal(shape[:-1] + weight[1:])
        g.reshape(-1)[::7] = 0.0
        runs = []
        with np.errstate(invalid="ignore", over="ignore"):
            for fused in (True, False):
                layer.weight.grad = layer.bias.grad = None
                x = Tensor(xd, requires_grad=True)
                draws = np.random.default_rng(35)
                with GradTape() as tape:
                    if fused:
                        out = T.linear_forward(layer, x, rate, draws)
                    else:
                        out = reference_dropout(reference_linear_forward(layer, x), rate, draws)
                    loss = T.sum_all(T.mul(out, Tensor(g)))
                backward(tape, loss)
                runs.append((out.data, x.grad, layer.weight.grad, layer.bias.grad, draws))
        fused_run, reference_run = runs
        out = fused_run[0]
        assert np.isnan(out).any() and np.isinf(out).any()
        assert (np.signbit(out) & (out == 0.0)).any()
        assert (out[..., ::2] == 0.0).any()
        for got, want in zip(fused_run[:4], reference_run[:4]):
            assert same_bytes(got, want)
        assert fused_run[4].bit_generator.state == reference_run[4].bit_generator.state

    @pytest.mark.parametrize("calls", [1, 2])
    @pytest.mark.parametrize(
        "shape, one_gemm_min",
        [((2, 5, 4), 1), ((2, 5, 4), T.ONE_GEMM_MIN_WEIGHT), ((6, 4), T.ONE_GEMM_MIN_WEIGHT)],
        ids=["one-gemm", "per-instance", "matrix"],
    )
    def test_dropout_gradients_match_finite_differences(
        self, monkeypatch, shape, one_gemm_min, calls
    ):
        # With two dropout calls of one layer on one tape, backward adds the
        # second call's weight and bias gradient into the first.
        monkeypatch.setattr(T, "ONE_GEMM_MIN_WEIGHT", one_gemm_min)
        rng = np.random.default_rng(37)
        layer = T.linear_init(4, 3, rng)
        layer.bias.data[:] = rng.standard_normal(3)
        xs = [Tensor(rng.standard_normal(shape), requires_grad=True) for _ in range(calls)]

        def outputs(*inputs):
            # The same seeds each time, so every evaluation keeps its masks.
            return [
                T.linear_forward(layer, x, 0.3, np.random.default_rng(38 + i))
                for i, x in enumerate(inputs)
            ]

        with GradTape() as tape:
            ys = outputs(*xs)
            loss = T.sum_all(T.mul(ys[0], ys[0]))
            for y in ys[1:]:
                loss = T.add(loss, T.sum_all(T.mul(y, y)))
        backward(tape, loss)
        assert all((y.data == 0.0).any() for y in ys)

        def f(params):
            return sum(float((y.data * y.data).sum()) for y in outputs(*params[2:]))

        params = [layer.weight, layer.bias, *xs]
        fd = T.finite_diff_gradient(f, params)
        for p, expect in zip(params, fd):
            assert T.relative_error(p.grad, expect) < 1e-7


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

    def test_tape_replays_once_and_grads_accumulate_across_tapes(self):
        x = Tensor([2.0], requires_grad=True)
        tapes, losses = [], []
        for _ in range(2):
            with GradTape() as tape:
                losses.append(T.sum_all(T.mul(x, x)))
            tapes.append(tape)
        backward(tapes[0], losses[0])
        assert tapes[0].nodes == [] and len(tapes[0]) == 2
        with pytest.raises(TapeError, match="already replayed"):
            backward(tapes[0], losses[0])
        assert np.array_equal(x.grad, [4.0])
        backward(tapes[1], losses[1])
        assert np.array_equal(x.grad, [8.0])
        assert len(tapes[1]) == 2

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
