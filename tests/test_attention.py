"""Attention flow: composition oracles, symmetry, gating dataflow, heads.

Every forward takes batches; a test of one instance runs it as a batch of
one. ``np_attention`` (conftest) is the one numpy reference for
``tensor.attention``.
"""

import math

import numpy as np
import pytest
from conftest import np_attention
from hypothesis import given, settings
from hypothesis import strategies as st

from dfaf import attention as A
from dfaf import model as M
from dfaf import tensor as T
from dfaf.tensor import GradTape, ShapeError, Tensor, backward


# ---------------------------------------------------------------------------
# independent numpy oracles (no module forward code reused)


def np_linear(layer, x):
    return x @ layer.weight.data + layer.bias.data


def np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def np_qkv(p, x):
    return np_linear(p.query, x), np_linear(p.key, x), np_linear(p.value, x)


def inter_oracle(r, e, p, heads, order):
    rq, rk, rv = np_qkv(p.region_qkv, r)
    eq, ek, ev = np_qkv(p.word_qkv, e)

    def upd_r(keys, values):
        return np_linear(
            p.region_out, np.concatenate([r, np_attention(rq, keys, values, heads)[0]], -1)
        )

    def upd_e(keys, values):
        return np_linear(
            p.word_out, np.concatenate([e, np_attention(eq, keys, values, heads)[0]], -1)
        )

    if order == "parallel":
        return upd_r(ek, ev), upd_e(rk, rv)
    if order == "r_then_e":
        e_new = upd_e(rk, rv)
        return upd_r(np_linear(p.word_qkv.key, e_new), np_linear(p.word_qkv.value, e_new)), e_new
    r_new = upd_r(ek, ev)
    return r_new, upd_e(np_linear(p.region_qkv.key, r_new), np_linear(p.region_qkv.value, r_new))


def dyintra_oracle(r, e, p, heads, dynamic):
    rq, rk, rv = np_qkv(p.region_qkv, r)
    eq, ek, ev = np_qkv(p.word_qkv, e)
    if dynamic:
        gate_r = np_sigmoid(np_linear(p.gate_from_words, e.mean(axis=1)))[:, None, :]
        gate_e = np_sigmoid(np_linear(p.gate_from_regions, r.mean(axis=1)))[:, None, :]
        rq, rk = rq * (1 + gate_r), rk * (1 + gate_r)
        eq, ek = eq * (1 + gate_e), ek * (1 + gate_e)
    r_new = np_linear(p.region_out, r + np_attention(rq, rk, rv, heads)[0])
    e_new = np_linear(p.word_out, e + np_attention(eq, ek, ev, heads)[0])
    return r_new, e_new


def rand_re(rng, mu=5, length=3, dim=8, batch=None):
    """Random regions and words for ``batch`` instances, or for one (a batch
    of one) when ``batch`` is None."""
    b = 1 if batch is None else batch
    return Tensor(rng.standard_normal((b, mu, dim))), Tensor(rng.standard_normal((b, length, dim)))


# ---------------------------------------------------------------------------


def weights_of(q, k):
    """Single-head attention weights of the first instance's queries over its
    keys (keys as values)."""
    return T.attention(q, k, k, 1)[1][0, 0]


class TestScaledDotAttention:
    def test_zero_queries_give_uniform_rows(self):
        q = Tensor(np.zeros((1, 4, 6)))
        k = Tensor(np.random.default_rng(0).standard_normal((1, 5, 6)))
        w = weights_of(q, k)
        assert np.allclose(w, 0.2)

    def test_single_key_gives_weight_one(self):
        rng = np.random.default_rng(1)
        w = weights_of(
            Tensor(rng.standard_normal((1, 7, 3))), Tensor(rng.standard_normal((1, 1, 3)))
        )
        assert np.array_equal(w, np.ones((7, 1)))

    def test_sharp_limit_dominates_diagonal(self):
        c = 50.0
        qk = Tensor(np.eye(3)[None] * c)
        w = weights_of(qk, qk)
        assert np.all(np.diag(w) > 0.999)

    def test_scaling_uses_feature_width(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((1, 3, 4))
        k = rng.standard_normal((1, 5, 4))
        w = weights_of(Tensor(q), Tensor(k))
        x = np.exp(q[0] @ k[0].T / 2.0)
        assert np.allclose(w, x / x.sum(axis=-1, keepdims=True), atol=1e-12)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            weights_of(Tensor(np.ones((1, 2, 3))), Tensor(np.ones((1, 2, 4))))

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(1, 8),
        st.integers(0, 2**31 - 1),
    )
    def test_rows_are_distributions(self, a, b, d, seed):
        rng = np.random.default_rng(seed)
        w = weights_of(
            Tensor(rng.standard_normal((1, a, d)) * 5), Tensor(rng.standard_normal((1, b, d)) * 5)
        )
        assert np.all(w >= 0)
        assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-9)


# One instance, as a batch of one, and a batch of three. The one-instance
# cases keep the name "unbatched" so that their test ids carry over.
QK_SHAPES = {"unbatched": ((1, 5, 4), (1, 6, 4)), "batched": ((3, 5, 4), (3, 6, 4))}


def identity_values(k_shape):
    """Values that make ``attention`` return its weights: one identity
    matrix per instance, as many rows as there are keys."""
    m = k_shape[-2]
    return Tensor(np.broadcast_to(np.eye(m), k_shape[:-1] + (m,)))


class TestAttentionWeightsOp:
    """The weights half of ``attention``, isolated by identity values."""

    @pytest.mark.parametrize("case", sorted(QK_SHAPES))
    def test_forward_bitwise_and_backward_match_composition(self, case):
        rng = np.random.default_rng(8)
        q_shape, k_shape = QK_SHAPES[case]
        q = Tensor(rng.standard_normal(q_shape) * 2, requires_grad=True)
        k = Tensor(rng.standard_normal(k_shape) * 2, requires_grad=True)
        g = rng.standard_normal(q_shape[:-1] + k_shape[-2:-1])
        values = identity_values(k_shape)
        with GradTape() as tape:
            out, w = T.attention(q, k, values, 1)
            loss = T.sum_all(T.mul(out, Tensor(g)))
        backward(tape, loss)
        _, s, gq, gk, _ = np_attention(q.data, k.data, values.data, 1, g)
        assert np.array_equal(out.data, s[:, 0])
        assert np.array_equal(w, s)
        assert np.max(np.abs(q.grad - gq)) < 1e-12
        assert np.max(np.abs(k.grad - gk)) < 1e-12

    @pytest.mark.parametrize("case", sorted(QK_SHAPES))
    def test_gradients_match_finite_differences(self, case):
        rng = np.random.default_rng(9)
        q_shape, k_shape = QK_SHAPES[case]
        q = Tensor(rng.standard_normal(q_shape), requires_grad=True)
        k = Tensor(rng.standard_normal(k_shape), requires_grad=True)
        c = rng.standard_normal(q_shape[:-1] + k_shape[-2:-1])
        values = identity_values(k_shape)
        with GradTape() as tape:
            out, _ = T.attention(q, k, values, 1)
            loss = T.sum_all(T.mul(out, Tensor(c)))
        backward(tape, loss)

        def f(params):
            qq, kk = (p.data for p in params)
            return float((np_attention(qq, kk, values.data, 1)[1][:, 0] * c).sum())

        fd = T.finite_diff_gradient(f, [q, k])
        assert T.relative_error(q.grad, fd[0]) < 1e-7
        assert T.relative_error(k.grad, fd[1]) < 1e-7

    def test_one_call_records_one_node(self):
        q = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        with GradTape() as tape:
            T.attention(q, q, identity_values(q.shape), 1)
        assert len(tape) == 1

    def test_batch_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="batch"):
            q, k = Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 3, 4)))
            T.attention(q, k, identity_values(k.shape), 1)


# (q shape, k and v rows, heads): heads 1, 2 and d, for one instance
# ("unbatched", as for QK_SHAPES) and a batch of three.
ATTENTION_CASES = {
    f"{name}-{heads}": (q_shape, 6, heads)
    for name, q_shape in (("unbatched", (1, 5, 4)), ("batched", (3, 5, 4)))
    for heads in (1, 2, 4)
}


def attention_inputs(case, seed):
    q_shape, m, heads = ATTENTION_CASES[case]
    rng = np.random.default_rng(seed)
    kv_shape = q_shape[:-2] + (m, q_shape[-1])
    q, k, v = (
        Tensor(rng.standard_normal(shape), requires_grad=True)
        for shape in (q_shape, kv_shape, kv_shape)
    )
    return q, k, v, rng.standard_normal(q_shape), heads


class TestAttentionOp:
    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_forward_and_backward_bitwise_match_composition(self, case):
        q, k, v, g, heads = attention_inputs(case, 10)
        with GradTape() as tape:
            out, w = T.attention(q, k, v, heads)
            loss = T.sum_all(T.mul(out, Tensor(g)))
        backward(tape, loss)
        want = np_attention(q.data, k.data, v.data, heads, g)
        for got, expect in zip((out.data, w, q.grad, k.grad, v.grad), want):
            assert got.shape == expect.shape
            assert np.array_equal(got, expect)

    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_gradients_match_finite_differences(self, case):
        q, k, v, c, heads = attention_inputs(case, 11)
        with GradTape() as tape:
            loss = T.sum_all(T.mul(T.attention(q, k, v, heads)[0], Tensor(c)))
        backward(tape, loss)

        def f(params):
            qq, kk, vv = (p.data for p in params)
            return float((np_attention(qq, kk, vv, heads)[0] * c).sum())

        fd = T.finite_diff_gradient(f, [q, k, v])
        for got, expect in zip((q.grad, k.grad, v.grad), fd):
            assert T.relative_error(got, expect) < 1e-7

    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_one_call_records_one_node(self, case):
        q, k, v, _, heads = attention_inputs(case, 12)
        with GradTape() as tape:
            T.attention(q, k, v, heads)
        assert len(tape) == 1

    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_weights_only_path_is_bitwise_and_unrecorded(self, case):
        q, k, v, _, heads = attention_inputs(case, 14)
        with GradTape() as tape:
            _, want = T.attention(q, k, v, heads)
            got = T.attention_weights(q, k, heads)
        assert len(tape) == 1
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        with pytest.raises(ShapeError, match="widths"):
            T.attention_weights(q, Tensor(np.ones(k.shape[:-1] + (k.shape[-1] + 1,))), heads)

    @pytest.mark.parametrize("constant", ["v", "qk"])
    def test_constant_inputs_get_no_gradient(self, constant):
        q, k, v, g, heads = attention_inputs("batched-2", 13)
        inputs = dict(zip("qkv", (q, k, v)))
        for name in constant:
            inputs[name].requires_grad = False
        with GradTape() as tape:
            loss = T.sum_all(T.mul(T.attention(q, k, v, heads)[0], Tensor(g)))
        backward(tape, loss)
        grads = np_attention(q.data, k.data, v.data, heads, g)[2:]
        for (name, t), expect in zip(inputs.items(), grads):
            if name in constant:
                assert t.grad is None
            else:
                assert np.array_equal(t.grad, expect)

    @pytest.mark.parametrize(
        "shapes, heads, match",
        [
            (((4,), (4,), (4,)), 1, "equal rank"),
            (((5, 4), (3, 6, 4), (3, 6, 4)), 1, "equal rank"),
            (((1, 5, 4), (1, 6, 3), (1, 6, 4)), 1, "widths"),
            (((1, 5, 4), (1, 6, 4), (1, 7, 4)), 1, "rows"),
            (((2, 5, 4), (3, 6, 4), (3, 6, 4)), 1, "batch"),
            (((1, 5, 4), (1, 6, 4), (1, 6, 4)), 3, "3 heads"),
            (((1, 5, 4), (1, 6, 4), (1, 6, 3)), 2, "2 heads"),
            (((1, 5, 4), (1, 6, 4), (1, 6, 4)), 0, "0 heads"),
            (((1, 5, 4), (1, 0, 4), (1, 0, 4)), 1, "at least one key row"),
            (((2, 5, 4), (2, 0, 4), (2, 0, 4)), 2, "at least one key row"),
        ],
    )
    def test_shape_errors(self, shapes, heads, match):
        q, k, v = (Tensor(np.ones(shape)) for shape in shapes)
        with pytest.raises(ShapeError, match=match):
            T.attention(q, k, v, heads)


class TestComputeGates:
    def test_zero_features_zero_bias_give_half(self):
        rng = np.random.default_rng(6)
        layer = T.linear_init(4, 4, rng)
        g = A.compute_gates(Tensor(np.zeros((1, 3, 4))), layer).numpy()
        assert np.allclose(g, 0.5)

    def test_duplicated_rows_leave_gates_unchanged(self):
        rng = np.random.default_rng(7)
        layer = T.linear_init(4, 4, rng)
        feats = rng.standard_normal((1, 2, 4))
        g1 = A.compute_gates(Tensor(feats), layer).numpy()
        g2 = A.compute_gates(Tensor(np.tile(feats, (1, 3, 1))), layer).numpy()
        assert np.allclose(g1, g2, atol=1e-12)

    def test_saturating_bias_drives_multiplier_to_two(self):
        layer = T.LinearLayer(
            Tensor(np.zeros((4, 4)), requires_grad=True),
            Tensor(np.full(4, 60.0), requires_grad=True),
        )
        g = A.compute_gates(Tensor(np.zeros((1, 2, 4))), layer).numpy()
        assert np.all(g > 1 - 1e-12)
        assert np.all(1 + g < 2 + 1e-12)

    def test_open_interval(self):
        rng = np.random.default_rng(8)
        layer = T.linear_init(6, 6, rng)
        g = A.compute_gates(Tensor(rng.standard_normal((1, 4, 6)) * 10), layer).numpy()
        assert np.all(g > 0) and np.all(g < 1)

    def test_empty_input_rejected(self):
        rng = np.random.default_rng(9)
        layer = T.linear_init(4, 4, rng)
        with pytest.raises(ShapeError):
            A.compute_gates(Tensor(np.zeros((1, 0, 4))), layer)


class TestInterMaf:
    @pytest.mark.parametrize("order", A.ORDERS)
    @pytest.mark.parametrize("heads", [1, 2])
    def test_matches_composition_oracle(self, order, heads):
        rng = np.random.default_rng(10)
        p = A.init_inter_maf(8, rng)
        r, e = rand_re(rng, mu=3, length=2, dim=8)
        r_new, e_new = A.inter_maf_forward(r, e, p, heads=heads, order=order)
        er, ee = inter_oracle(r.data, e.data, p, heads, order)
        assert np.max(np.abs(r_new.numpy() - er)) < 1e-10
        assert np.max(np.abs(e_new.numpy() - ee)) < 1e-10

    def test_fixed_integer_weights_oracle(self):
        # Small deterministic parameters; asserts exact composed arithmetic.
        dim = 4

        def int_layer(i, o, fill, bias=0.25):
            w = np.full((i, o), 0.0)
            w[np.arange(min(i, o)), np.arange(min(i, o))] = fill
            return T.LinearLayer(
                Tensor(w, requires_grad=True),
                Tensor(np.full(o, bias), requires_grad=True),
            )

        p = A.InterMafParams(
            region_qkv=A.QkvProjection(int_layer(4, 4, 1.0), int_layer(4, 4, 2.0), int_layer(4, 4, 0.5)),
            word_qkv=A.QkvProjection(int_layer(4, 4, -1.0), int_layer(4, 4, 1.0), int_layer(4, 4, 3.0)),
            region_out=int_layer(8, 4, 1.0),
            word_out=int_layer(8, 4, -0.5),
        )
        r = Tensor(np.arange(12.0).reshape(1, 3, 4) / 6.0)
        e = Tensor(np.array([[[1.0, 0.0, -1.0, 2.0], [0.5, 0.5, 0.5, 0.5]]]))
        r_new, e_new = A.inter_maf_forward(r, e, p, heads=1, order="parallel")
        er, ee = inter_oracle(r.data, e.data, p, 1, "parallel")
        assert np.max(np.abs(r_new.numpy() - er)) < 1e-10
        assert np.max(np.abs(e_new.numpy() - ee)) < 1e-10

    def test_single_word_attention_is_all_ones(self):
        rng = np.random.default_rng(11)
        p = A.init_inter_maf(6, rng)
        r, e = rand_re(rng, mu=4, length=1, dim=6)
        rec = A.AttentionRecord()
        A.inter_maf_forward(r, e, p, record=rec)
        assert np.array_equal(rec.inter_r_from_e, np.ones((1, 1, 4, 1)))

    def test_region_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        p = A.init_inter_maf(8, rng)
        r, e = rand_re(rng, mu=6, length=3, dim=8)
        perm = rng.permutation(6)
        r_new, e_new = A.inter_maf_forward(r, e, p, order="parallel")
        r_p, e_p = A.inter_maf_forward(Tensor(r.data[:, perm]), e, p, order="parallel")
        assert np.max(np.abs(r_p.numpy() - r_new.numpy()[:, perm])) < 1e-12
        assert np.max(np.abs(e_p.numpy() - e_new.numpy())) < 1e-12

    def test_orders_differ_generically(self):
        rng = np.random.default_rng(13)
        p = A.init_inter_maf(8, rng)
        r, e = rand_re(rng, dim=8)
        outs = {o: A.inter_maf_forward(r, e, p, order=o)[0].numpy() for o in A.ORDERS}
        assert not np.allclose(outs["parallel"], outs["r_then_e"])
        assert not np.allclose(outs["r_then_e"], outs["e_then_r"])

    def test_batched_matches_per_slice(self):
        rng = np.random.default_rng(14)
        p = A.init_inter_maf(8, rng)
        r, e = rand_re(rng, mu=4, length=3, dim=8, batch=3)
        r_new, e_new = A.inter_maf_forward(r, e, p, heads=2, order="r_then_e")
        for i in range(3):
            ri, ei = A.inter_maf_forward(
                Tensor(r.data[i : i + 1]), Tensor(e.data[i : i + 1]), p, heads=2, order="r_then_e"
            )
            assert np.max(np.abs(r_new.numpy()[i] - ri.numpy()[0])) < 1e-12
            assert np.max(np.abs(e_new.numpy()[i] - ei.numpy()[0])) < 1e-12


class TestDyIntraMaf:
    @pytest.mark.parametrize("dynamic", [True, False])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_matches_composition_oracle(self, dynamic, heads):
        rng = np.random.default_rng(15)
        p = A.init_dyintra_maf(8, rng)
        r, e = rand_re(rng, dim=8)
        r_new, e_new = A.dyintra_maf_forward(r, e, p, heads=heads, dynamic=dynamic)
        er, ee = dyintra_oracle(r.data, e.data, p, heads, dynamic)
        assert np.max(np.abs(r_new.numpy() - er)) < 1e-10
        assert np.max(np.abs(e_new.numpy() - ee)) < 1e-10

    def test_hand_set_two_by_two_oracle(self):
        ident = lambda: T.LinearLayer(
            Tensor(np.eye(2), requires_grad=True), Tensor(np.zeros(2), requires_grad=True)
        )
        p = A.DyIntraMafParams(
            region_qkv=A.QkvProjection(ident(), ident(), ident()),
            word_qkv=A.QkvProjection(ident(), ident(), ident()),
            gate_from_regions=ident(),
            gate_from_words=ident(),
            region_out=ident(),
            word_out=ident(),
        )
        r = Tensor(np.array([[[1.0, 0.0], [0.0, 1.0]]]))
        e = Tensor(np.array([[[2.0, -1.0]]]))
        r_new, e_new = A.dyintra_maf_forward(r, e, p, dynamic=True)
        er, ee = dyintra_oracle(r.data, e.data, p, 1, True)
        assert np.max(np.abs(r_new.numpy() - er)) < 1e-10
        assert np.max(np.abs(e_new.numpy() - ee)) < 1e-10

    def test_word_perturbation_changes_dynamic_region_attention(self):
        rng = np.random.default_rng(16)
        p = A.init_dyintra_maf(8, rng)
        r, e = rand_re(rng, dim=8)
        rec1, rec2 = A.AttentionRecord(), A.AttentionRecord()
        A.dyintra_maf_forward(r, e, p, dynamic=True, record=rec1)
        e2 = Tensor(e.data + rng.standard_normal(e.shape) * 0.1)
        A.dyintra_maf_forward(r, e2, p, dynamic=True, record=rec2)
        assert not np.array_equal(rec1.intra_r, rec2.intra_r)

    def test_naive_region_attention_ignores_words_bitwise(self):
        rng = np.random.default_rng(17)
        p = A.init_dyintra_maf(8, rng)
        r, e = rand_re(rng, dim=8)
        rec1, rec2 = A.AttentionRecord(), A.AttentionRecord()
        A.dyintra_maf_forward(r, e, p, dynamic=False, record=rec1)
        e2 = Tensor(rng.standard_normal(e.shape) * 9)
        A.dyintra_maf_forward(r, e2, p, dynamic=False, record=rec2)
        assert np.array_equal(rec1.intra_r, rec2.intra_r)
        assert rec1.gate_on_regions is None and rec1.gate_on_words is None

    def test_zero_pre_sigmoid_gates_preserve_argmax(self):
        # Gates fixed at sigmoid(0)=0.5 scale every q/k channel by 1.5: the
        # per-row attention argmax must match the ungated variant.
        rng = np.random.default_rng(18)
        p = A.init_dyintra_maf(8, rng)
        p.gate_from_words.weight.data[:] = 0.0
        p.gate_from_words.bias.data[:] = 0.0
        p.gate_from_regions.weight.data[:] = 0.0
        p.gate_from_regions.bias.data[:] = 0.0
        r, e = rand_re(rng, mu=6, length=4, dim=8)
        rec_d, rec_n = A.AttentionRecord(), A.AttentionRecord()
        A.dyintra_maf_forward(r, e, p, dynamic=True, record=rec_d)
        A.dyintra_maf_forward(r, e, p, dynamic=False, record=rec_n)
        assert np.array_equal(rec_d.intra_r.argmax(axis=-1), rec_n.intra_r.argmax(axis=-1))
        assert np.array_equal(rec_d.intra_e.argmax(axis=-1), rec_n.intra_e.argmax(axis=-1))
        assert np.allclose(rec_d.gate_on_regions, 0.5)

    def test_values_are_not_gated(self):
        # With q/k projections zeroed, attention is uniform regardless of the
        # gates, so dynamic and naive variants agree exactly: any difference
        # would have to enter through gated values, which must not exist.
        rng = np.random.default_rng(19)
        p = A.init_dyintra_maf(8, rng)
        for qkv in (p.region_qkv, p.word_qkv):
            qkv.query.weight.data[:] = 0.0
            qkv.query.bias.data[:] = 0.0
            qkv.key.weight.data[:] = 0.0
            qkv.key.bias.data[:] = 0.0
        r, e = rand_re(rng, dim=8)
        r_dyn, e_dyn = A.dyintra_maf_forward(r, e, p, dynamic=True)
        r_nv, e_nv = A.dyintra_maf_forward(r, e, p, dynamic=False)
        assert np.array_equal(r_dyn.numpy(), r_nv.numpy())
        assert np.array_equal(e_dyn.numpy(), e_nv.numpy())

    def test_batched_matches_per_slice(self):
        rng = np.random.default_rng(20)
        p = A.init_dyintra_maf(8, rng)
        r, e = rand_re(rng, mu=4, length=3, dim=8, batch=2)
        r_new, e_new = A.dyintra_maf_forward(r, e, p, heads=2, dynamic=True)
        for i in range(2):
            ri, ei = A.dyintra_maf_forward(
                Tensor(r.data[i : i + 1]), Tensor(e.data[i : i + 1]), p, heads=2, dynamic=True
            )
            assert np.max(np.abs(r_new.numpy()[i] - ri.numpy()[0])) < 1e-12
            assert np.max(np.abs(e_new.numpy()[i] - ei.numpy()[0])) < 1e-12


def full_block_forward(r, e, block, heads, **kw):
    """A full block's forward with the model's default order."""
    return A.dfaf_block_forward(r, e, block, heads, "r_then_e", True, **kw)


class TestDfafBlock:
    def test_region_permutation_equivariance(self):
        rng = np.random.default_rng(22)
        block = A.init_dfaf_block(8, "full", rng)
        r, e = rand_re(rng, mu=7, length=4, dim=8)
        perm = rng.permutation(7)
        r_new, e_new = full_block_forward(r, e, block, 2)
        r_p, e_p = full_block_forward(Tensor(r.data[:, perm]), e, block, 2)
        assert np.max(np.abs(r_p.numpy() - r_new.numpy()[:, perm])) < 1e-12
        assert np.max(np.abs(e_p.numpy() - e_new.numpy())) < 1e-12

    def test_word_permutation_equivariance(self):
        rng = np.random.default_rng(23)
        block = A.init_dfaf_block(8, "full", rng)
        r, e = rand_re(rng, mu=4, length=5, dim=8)
        perm = rng.permutation(5)
        r_new, e_new = full_block_forward(r, e, block, 2)
        r_p, e_p = full_block_forward(r, Tensor(e.data[:, perm]), block, 2)
        assert np.max(np.abs(e_p.numpy() - e_new.numpy()[:, perm])) < 1e-12
        assert np.max(np.abs(r_p.numpy() - r_new.numpy())) < 1e-12

    @pytest.mark.parametrize("attention_type", A.ATTENTION_TYPES)
    def test_every_parameter_gradient_matches_finite_differences(self, attention_type):
        rng = np.random.default_rng(24)
        block = A.init_dfaf_block(8, attention_type, rng)
        dynamic = A.VARIANTS[attention_type].dynamic
        r, e = rand_re(rng, mu=3, length=2, dim=8)
        weights = rng.standard_normal((1, 3, 8)), rng.standard_normal((1, 2, 8))

        with GradTape() as tape:
            r_new, e_new = A.dfaf_block_forward(r, e, block, 2, "r_then_e", dynamic)
            loss = T.add(
                T.sum_all(T.mul(r_new, Tensor(weights[0]))),
                T.sum_all(T.mul(e_new, Tensor(weights[1]))),
            )
        backward(tape, loss)

        names = [n for n, _ in block.named_parameters()]
        params = [p for _, p in block.named_parameters()]

        def f(ps):
            rn, en = A.dfaf_block_forward(r, e, block, 2, "r_then_e", dynamic)
            return float((rn.data * weights[0]).sum() + (en.data * weights[1]).sum())

        fd = T.finite_diff_gradient(f, params)
        for name, p, g in zip(names, params, fd):
            analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
            err = T.relative_error(analytic, g)
            assert err < 1e-4, f"{attention_type}:{name} rel err {err:.2e}"

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(25)
        block = A.init_dfaf_block(8, "full", rng)
        with pytest.raises(ShapeError, match="width 8"):
            full_block_forward(Tensor(np.ones((1, 3, 6))), Tensor(np.ones((1, 2, 8))), block, 2)

    def test_attention_type_roundtrip(self):
        # Each type has its own table row, so the row names the type, and
        # the block built for it has exactly the halves the row says.
        rng = np.random.default_rng(26)
        by_variant = {v: kind for kind, v in A.VARIANTS.items()}
        for kind in A.ATTENTION_TYPES:
            assert by_variant[A.VARIANTS[kind]] == kind
            block = A.init_dfaf_block(8, kind, rng)
            halves = (block.inter is not None, block.intra is not None)
            assert halves == (A.VARIANTS[kind].inter, A.VARIANTS[kind].intra)

    def test_train_mode_dropout_changes_outputs_eval_does_not(self):
        rng = np.random.default_rng(27)
        block = A.init_dfaf_block(8, "full", rng)
        r, e = rand_re(rng, dim=8)
        ctx = A.ForwardContext(0.5, np.random.default_rng(0))
        r_tr, _ = full_block_forward(r, e, block, 1, ctx=ctx)
        r_ev1, _ = full_block_forward(r, e, block, 1)
        r_ev2, _ = full_block_forward(r, e, block, 1)
        assert not np.allclose(r_tr.numpy(), r_ev1.numpy())
        assert np.array_equal(r_ev1.numpy(), r_ev2.numpy())


# The forward's own attention weights in a record, without the gate-disabled
# contrast.
WEIGHT_FIELDS = ("inter_r_from_e", "inter_e_from_r", "intra_r", "intra_e")


def stack_model(rng, heads, n_blocks, attention_type="full"):
    """A width-8 model whose embeddings are identities, so its blocks see
    the raw inputs bit for bit."""
    config = M.ModelConfig(
        dim=8, heads=heads, n_blocks=n_blocks, hidden=16, d_v=8, d_w=8,
        attention_type=attention_type,
    )
    model = M.build_model(config, rng)
    for layer in (model.region_embed, model.word_embed):
        layer.weight.data = np.eye(8)
        layer.bias.data[:] = 0.0
    return model


class TestDfafStack:
    """The model's walk over its blocks, one record per block."""

    def test_single_block_stack_equals_block(self):
        rng = np.random.default_rng(28)
        model = stack_model(rng, 2, 1)
        raw_r, raw_e = rand_re(rng, dim=8)
        r, e = M.embed_inputs(raw_r, raw_e, model)
        r_b, e_b = full_block_forward(r, e, model.stack[0], 2)
        by_block = M.fuse_and_classify(r_b, e_b, model).logits
        assert np.array_equal(M.forward(raw_r, raw_e, model).logits.numpy(), by_block.numpy())

    def test_records_one_per_block_rows_normalized(self):
        rng = np.random.default_rng(29)
        model = stack_model(rng, 2, 3)
        records = M.predict(*rand_re(rng, dim=8), model, record=True).records
        assert len(records) == 3
        for rec in records:
            weights = [getattr(rec, name) for name in WEIGHT_FIELDS]
            assert all(w.shape[:2] == (1, 2) for w in weights)  # one instance, two heads
            for w in weights:
                assert np.all(w >= 0)
                assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-6)
            assert np.all((rec.gate_on_regions > 0) & (rec.gate_on_regions < 1))
            assert np.all((rec.gate_on_words > 0) & (rec.gate_on_words < 1))

    @pytest.mark.parametrize("heads", [1, 2])
    def test_batched_records_equal_unbatched_bitwise(self, heads):
        rng = np.random.default_rng(31)
        model = stack_model(rng, heads, 2)
        r, e = rand_re(rng, mu=4, length=3, dim=8, batch=3)
        batched = M.predict(r, e, model, record=True).records
        for i in range(3):
            one = slice(i, i + 1)
            single = M.predict(Tensor(r.data[one]), Tensor(e.data[one]), model, record=True).records
            for rec_b, rec_1 in zip(batched, single):
                for name in WEIGHT_FIELDS:
                    w_b, w_1 = getattr(rec_b, name), getattr(rec_1, name)
                    assert w_1.shape[:2] == (1, heads)
                    assert w_b.shape == (3, *w_1.shape[1:])
                    assert np.array_equal(w_b[i], w_1[0])

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_gates_disabled_equals_naive_module_record_bitwise(self, heads, batch):
        rng = np.random.default_rng(32)
        model = stack_model(rng, heads, 2, "dyintra_only")
        raw_r, raw_e = rand_re(rng, mu=4, length=3, dim=8, batch=batch)
        records = M.predict(raw_r, raw_e, model, record=True).records
        r, e = M.embed_inputs(raw_r, raw_e, model)
        for block, rec in zip(model.stack, records):
            naive = A.AttentionRecord()
            # the naive module sees what the dynamic one saw: the prior block's output
            A.dyintra_maf_forward(r, e, block.intra, heads, False, naive)
            r, e = A.dfaf_block_forward(r, e, block, heads, "r_then_e", True)
            for got, want in ((rec.intra_r_gates_disabled, naive.intra_r),
                              (rec.intra_e_gates_disabled, naive.intra_e)):
                assert got.shape[1] == want.shape[1] == heads
                assert np.array_equal(got, want)
            assert not np.array_equal(rec.intra_r[:, 0], naive.intra_r[:, 0])  # head 0

    @pytest.mark.parametrize("attention_type", ["intra_only", "inter_only"])
    def test_static_blocks_record_no_gates_disabled(self, attention_type):
        rng = np.random.default_rng(33)
        model = stack_model(rng, 2, 2, attention_type)
        records = M.predict(*rand_re(rng, dim=8), model, record=True).records
        assert len(records) == 2
        for rec in records:
            assert rec.intra_r_gates_disabled is None and rec.intra_e_gates_disabled is None

    def test_deep_stack_survives_sgd_steps(self):
        rng = np.random.default_rng(30)
        blocks = [A.init_dfaf_block(8, "full", rng) for _ in range(8)]
        params = [p for b in blocks for _, p in b.named_parameters()]
        r, e = rand_re(rng, mu=4, length=3, dim=8)
        for _ in range(100):
            with GradTape() as tape:
                r_new, e_new = r, e
                for block in blocks:
                    r_new, e_new = full_block_forward(r_new, e_new, block, 2)
                loss = T.add(
                    T.sum_all(T.mul(r_new, r_new)), T.sum_all(T.mul(e_new, e_new))
                )
            assert math.isfinite(loss.item())
            for p in params:
                p.zero_grad()
            backward(tape, loss)
            for p in params:
                if p.grad is not None:
                    assert np.all(np.isfinite(p.grad))
                    p.data -= 1e-3 * p.grad
        assert math.isfinite(loss.item())


class TestBuilders:
    def test_parameter_names_are_stable_and_unique(self):
        rng = np.random.default_rng(32)
        block = A.init_dfaf_block(8, "full", rng)
        names = [n for n, _ in block.named_parameters()]
        assert len(names) == len(set(names))
        assert "inter.region_qkv.query.weight" in names
        assert "intra.gate_from_words.bias" in names
        # full block: inter has 8 layers, intra has 10, two tensors each
        assert len(names) == (8 + 10) * 2

    # The switches are checked once, by the config every model is built from.

    def test_head_dim_invariant_enforced(self):
        rng = np.random.default_rng(33)
        with pytest.raises(ShapeError):
            M.build_model(M.ModelConfig(dim=8, heads=3), rng)

    def test_bad_attention_type_rejected(self):
        rng = np.random.default_rng(34)
        with pytest.raises(ValueError, match="attention_type"):
            M.build_model(M.ModelConfig(dim=8, heads=2, attention_type="extra_only"), rng)

    def test_bad_order_rejected(self):
        rng = np.random.default_rng(35)
        with pytest.raises(ValueError, match="order"):
            M.build_model(M.ModelConfig(dim=8, heads=2, order="sideways"), rng)
