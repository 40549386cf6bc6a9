"""Optimizer closed forms, schedule, clipping, and the training loop."""

import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import PACKAGE_ROOT
from hypothesis import given, settings
from hypothesis import strategies as st

from dfaf import tensor as T
from dfaf import training as TR
from dfaf.attention import ForwardContext
from dfaf.checkpoint import load_checkpoint, save_checkpoint
from dfaf.data import ToyTaskSpec, generate_feature_dataset, make_batches
from dfaf.model import ModelConfig, build_model, forward
from dfaf.tensor import GradTape, ShapeError, Tensor
from dfaf.training import (
    AdamaxState,
    DivergenceError,
    TrainConfig,
    adamax_step,
    clip_gradients,
    evaluate_accuracy,
    evaluate_by_template,
    lr_schedule,
    train,
)


def tensors(*arrays):
    return [Tensor(a, requires_grad=True) for a in arrays]


class TestAdamax:
    def test_first_step_is_signed_lr(self):
        rng = np.random.default_rng(0)
        params = tensors(rng.standard_normal((3, 4)), rng.standard_normal(5))
        before = [p.data.copy() for p in params]
        grads = [rng.standard_normal(p.shape) for p in params]
        state = AdamaxState.for_params(params)
        adamax_step(params, grads, state, lr=0.01)
        for p, b, g in zip(params, before, grads):
            # u = |g| makes m/(u+eps) = sign(g) up to eps rounding
            assert np.allclose(p.data, b - 0.01 * np.sign(g), atol=1e-8)
        assert state.t == 1

    def test_zero_gradient_zero_state_is_fixed_point(self):
        params = tensors(np.array([1.0, -2.0, 3.0]))
        before = params[0].data.copy()
        state = AdamaxState.for_params(params)
        adamax_step(params, [np.zeros(3)], state, lr=0.5)
        assert np.array_equal(params[0].data, before)

    def test_three_step_unroll_matches_scripted_recurrence(self):
        theta0 = np.array([0.7, -1.3])
        g = np.array([0.4, -0.2])
        lr = 0.05

        # independent scripted oracle
        theta, m, u = theta0.copy(), np.zeros(2), np.zeros(2)
        for t in range(1, 4):
            m = TR.BETA1 * m + (1 - TR.BETA1) * g
            u = np.maximum(TR.BETA2 * u, np.abs(g))
            theta = theta - lr / (1 - TR.BETA1**t) * m / (u + TR.EPSILON)

        params = tensors(theta0.copy())
        state = AdamaxState.for_params(params)
        for _ in range(3):
            adamax_step(params, [g], state, lr)
        assert np.max(np.abs(params[0].data - theta)) < 1e-12
        assert state.t == 3

    def test_inf_norm_recurrence_exact(self):
        rng = np.random.default_rng(1)
        params = tensors(rng.standard_normal(6))
        state = AdamaxState.for_params(params)
        u_expect = np.zeros(6)
        for _ in range(5):
            g = rng.standard_normal(6)
            u_expect = np.maximum(TR.BETA2 * u_expect, np.abs(g))
            adamax_step(params, [g], state, lr=1e-3)
            assert np.array_equal(state.inf_norms[0], u_expect)
            assert np.all(state.inf_norms[0] >= 0)

    def test_shape_mismatch_rejected(self):
        params = tensors(np.zeros((2, 2)))
        state = AdamaxState.for_params(params)
        with pytest.raises(ShapeError):
            adamax_step(params, [np.zeros(3)], state, lr=0.1)
        with pytest.raises(ShapeError):
            adamax_step(params, [np.zeros((2, 2)), np.zeros(1)], state, lr=0.1)

    def test_state_checkpoint_trailer_roundtrip(self):
        rng = np.random.default_rng(2)
        params = tensors(rng.standard_normal((2, 3)))
        state = AdamaxState.for_params(params)
        for _ in range(4):
            adamax_step(params, [rng.standard_normal((2, 3))], state, lr=0.01)
        back = AdamaxState.from_checkpoint_trailer(state.as_checkpoint_trailer())
        assert back.t == state.t
        assert np.array_equal(back.moments[0], state.moments[0])
        assert np.array_equal(back.inf_norms[0], state.inf_norms[0])


def seed_adamax(thetas, moments, inf_norms, grads, t, lr):
    """The per-tensor update written out: one full-size expression per line."""
    correction = 1.0 - TR.BETA1**t
    for theta, m, u, g in zip(thetas, moments, inf_norms, grads):
        m *= TR.BETA1
        m += (1.0 - TR.BETA1) * g
        np.maximum(TR.BETA2 * u, np.abs(g), out=u)
        theta -= (lr / correction) * m / (u + TR.EPSILON)


def snapshot(params, state):
    return (
        [p.data.tobytes() for p in params],
        [m.tobytes() for m in state.moments],
        [u.tobytes() for u in state.inf_norms],
        state.t,
    )


class TestAdamaxChunks:
    SHAPES = [(1,), (TR.CHUNK - 1,), (TR.CHUNK,), (TR.CHUNK + 1,), (3, TR.CHUNK - 7)]

    def test_chunked_steps_match_per_tensor_formula_bitwise(self):
        rng = np.random.default_rng(5)
        params = tensors(*(rng.standard_normal(s) for s in self.SHAPES))
        assert params[-1].size > 2 * TR.CHUNK
        thetas = [p.data.copy() for p in params]
        moments = [np.zeros(s) for s in self.SHAPES]
        inf_norms = [np.zeros(s) for s in self.SHAPES]
        state = AdamaxState.for_params(params)
        for t in range(1, 6):
            grads = [rng.standard_normal(s) * 10.0 ** (t - 3) for s in self.SHAPES]
            grads[0][0] = -0.0
            lr = 0.01 * t
            adamax_step(params, grads, state, lr)
            seed_adamax(thetas, moments, inf_norms, grads, t, lr)
            assert snapshot(params, state) == (
                [x.tobytes() for x in thetas],
                [m.tobytes() for m in moments],
                [u.tobytes() for u in inf_norms],
                t,
            )

    def test_trailer_roundtrip_after_chunked_steps(self, tmp_path):
        config = ModelConfig(dim=16, heads=2, hidden=8, d_v=TR.CHUNK // 16 + 3, d_w=5, n_answers=3)
        model = build_model(config, np.random.default_rng(0))
        params = model.parameters()
        assert max(p.size for p in params) > TR.CHUNK
        rng = np.random.default_rng(6)
        state = AdamaxState.for_params(params)
        for _ in range(3):
            adamax_step(params, [rng.standard_normal(p.shape) for p in params], state, 0.01)
        path = tmp_path / "chunked.ckpt"
        save_checkpoint(str(path), model, config, state.as_checkpoint_trailer())
        loaded, _, trailer = load_checkpoint(str(path))
        back = AdamaxState.from_checkpoint_trailer(trailer)
        loaded_params = loaded.parameters()
        assert snapshot(loaded_params, back) == snapshot(params, state)
        grads = [rng.standard_normal(p.shape) for p in params]
        adamax_step(params, grads, state, 0.02)
        adamax_step(loaded_params, grads, back, 0.02)
        assert snapshot(loaded_params, back) == snapshot(params, state)


class TestAdamaxRejects:
    def stepped(self):
        rng = np.random.default_rng(7)
        params = tensors(rng.standard_normal(3), rng.standard_normal((2, 2)))
        state = AdamaxState.for_params(params)
        adamax_step(params, [rng.standard_normal(p.shape) for p in params], state, 0.1)
        return params, state

    def test_bad_shape_changes_nothing(self):
        params, state = self.stepped()
        before = snapshot(params, state)
        with pytest.raises(ShapeError):
            adamax_step(params, [np.ones(3), np.ones(5)], state, lr=0.1)
        assert snapshot(params, state) == before
        state.inf_norms[1] = np.zeros(4)
        before = snapshot(params, state)
        with pytest.raises(ShapeError, match="inf-norm"):
            adamax_step(params, [np.ones(3), np.ones((2, 2))], state, lr=0.1)
        assert snapshot(params, state) == before

    def test_bad_length_changes_nothing(self):
        params, state = self.stepped()
        del state.inf_norms[1]
        before = snapshot(params, state)
        with pytest.raises(ShapeError, match="1 inf-norms"):
            adamax_step(params, [np.ones(3), np.ones((2, 2))], state, lr=0.1)
        assert snapshot(params, state) == before

    @pytest.mark.parametrize("where", ["param", "moment", "inf_norm"])
    def test_transposed_view_rejected(self, where):
        params, state = self.stepped()
        transposed = np.arange(4.0).reshape(2, 2).T
        assert not transposed.flags.c_contiguous
        if where == "param":
            params[1].data = transposed
        elif where == "moment":
            state.moments[1] = transposed
        else:
            state.inf_norms[1] = transposed
        before = snapshot(params, state)
        with pytest.raises(ValueError, match="C-contiguous"):
            adamax_step(params, [np.ones(3), np.ones((2, 2))], state, lr=0.1)
        assert snapshot(params, state) == before


class TestLrSchedule:
    def test_paper_shape_values(self):
        base = 1e-3
        assert lr_schedule(1, base) == 1e-3
        assert lr_schedule(2, base) == 1e-3
        assert lr_schedule(3, base) == 2e-3
        assert lr_schedule(5, base) == 2e-3
        assert lr_schedule(10, base) == 2e-3
        assert lr_schedule(11, base) == 5e-4
        assert lr_schedule(30, base) == 5e-4
        assert lr_schedule(1000, base) == 5e-4

    def test_epochs_are_one_based(self):
        with pytest.raises(ValueError):
            lr_schedule(0, 1e-3)


class TestClipGradients:
    def test_below_threshold_unchanged(self):
        g = [np.array([0.06, 0.08])]  # norm 0.1
        out = clip_gradients(g, 0.25)
        assert np.array_equal(out[0], [0.06, 0.08])

    def test_three_four_five_scaling(self):
        out = clip_gradients([np.array([3.0, 4.0])], 0.25)
        assert np.allclose(out[0], [0.15, 0.20], atol=1e-15)
        assert abs(np.linalg.norm(out[0]) - 0.25) < 1e-12

    def test_norm_spans_all_arrays(self):
        g = [np.array([3.0]), np.array([4.0])]
        out = clip_gradients(g, 0.25)
        total = math.sqrt(sum(float((x * x).sum()) for x in out))
        assert abs(total - 0.25) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.01, 10.0))
    def test_post_norm_bounded_and_direction_preserved(self, seed, scale):
        rng = np.random.default_rng(seed)
        g = [rng.standard_normal((3, 2)) * scale, rng.standard_normal(4) * scale]
        out = clip_gradients([x.copy() for x in g], 0.25)
        total = math.sqrt(sum(float((x * x).sum()) for x in out))
        assert total <= 0.25 + 1e-12
        flat_in = np.concatenate([x.ravel() for x in g])
        flat_out = np.concatenate([x.ravel() for x in out])
        cos = flat_in @ flat_out / (np.linalg.norm(flat_in) * np.linalg.norm(flat_out))
        assert abs(cos - 1.0) < 1e-12
        for a, b in zip(g, out):
            assert np.all(np.abs(b) <= np.abs(a) + 1e-15)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_norm_raises_divergence(self, bad):
        g = [np.array([0.1, 0.2]), np.array([[0.0, bad]])]
        with pytest.raises(DivergenceError, match=f"gradient norm is {bad}"):
            clip_gradients(g, 0.25)

    def test_invalid_arguments(self):
        # A NaN threshold fails every comparison, so it must be refused by
        # name: clipping to it would make every gradient NaN.
        for threshold in (0.0, -1.0, float("nan")):
            grads = [np.full(3, 10.0)]
            with pytest.raises(ValueError, match="clip threshold"):
                clip_gradients(grads, threshold)
            assert np.array_equal(grads[0], np.full(3, 10.0))

    def test_scales_in_place_and_returns_new_objects_only_on_rescale(self):
        g = [np.array([3.0]), np.array([[4.0, 0.0]])]  # norm 5, factor 1/2
        out = clip_gradients(g, 2.5)
        assert np.array_equal(g[0], [1.5]) and np.array_equal(g[1], [[2.0, 0.0]])
        for r, x in zip(out, g):
            assert r is not x and r.base is x and np.array_equal(r, x)

        small = [np.array([0.06]), np.array([[0.08, 0.0]])]
        kept = clip_gradients(small, 0.25)
        assert all(r is x for r, x in zip(kept, small))
        assert np.array_equal(small[0], [0.06]) and np.array_equal(small[1], [[0.08, 0.0]])

    def test_norm_at_the_threshold_is_left_alone(self):
        g = [np.array([3.0]), np.array([[4.0]])]  # norm exactly 5
        out = clip_gradients(g, 5.0)
        assert all(r is x for r, x in zip(out, g))
        assert np.array_equal(g[0], [3.0]) and np.array_equal(g[1], [[4.0]])

    def test_divergence_scales_nothing(self):
        g = [np.array([30.0, 40.0]), np.array([np.inf])]
        with pytest.raises(DivergenceError):
            clip_gradients(g, 0.25)
        assert np.array_equal(g[0], [30.0, 40.0])


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            *((f, v) for f in ("clip", "base_lr") for v in (float("nan"), float("inf"), -1.0)),
            ("clip", 0.0),
        ],
    )
    def test_rejects_clip_and_base_lr_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=f"{field}.*must be finite"):
            TrainConfig(**{field: value})
        TrainConfig(base_lr=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [("eval_batch_size", float("nan")), ("batch_size", 2.5), ("epochs", 1.5), ("seed", -1)],
    )
    def test_rejects_int_field_of_wrong_type_or_range_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainConfig(**{field: value})


def tiny_setup(seed=0, n=96, templates=("attribute",), dim=16, heads=2, **train_kw):
    spec = ToyTaskSpec(templates=tuple(templates), seed=seed)
    ds = generate_feature_dataset(spec, n)
    cfg = ModelConfig(
        dim=dim,
        heads=heads,
        n_blocks=1,
        hidden=32,
        d_v=spec.d_v,
        d_w=spec.d_w,
        n_answers=ds.n_answers,
    )
    model = build_model(cfg, np.random.default_rng(seed))
    base = dict(base_lr=1e-3, epochs=2, batch_size=16, seed=seed)
    base.update(train_kw)
    return model, cfg, ds, TrainConfig(**base)


def default_setup():
    """The default model, untrained, and 32 instances of the default task."""
    spec = ToyTaskSpec()
    ds = generate_feature_dataset(spec, 32)
    cfg = ModelConfig(d_v=spec.d_v, d_w=spec.d_w, n_answers=ds.n_answers)
    return build_model(cfg, np.random.default_rng(0)), ds


class TestTrainLoop:
    def test_metric_rows_have_exact_fields(self):
        model, _, ds, tcfg = tiny_setup()
        metrics, state = train(model, ds, tcfg)
        assert len(metrics) == tcfg.epochs
        for i, row in enumerate(metrics):
            assert set(row) == {"epoch", "lr", "train_loss", "eval_acc", "wall_ms"}
            assert row["epoch"] == i + 1
            assert row["lr"] == lr_schedule(i + 1, tcfg.base_lr)
            assert math.isfinite(row["train_loss"])
            assert 0.0 <= row["eval_acc"] <= 1.0
            assert row["wall_ms"] >= 0.0
        assert state.t == sum(1 for _ in range(tcfg.epochs)) * math.ceil(len(ds) / tcfg.batch_size)

    def test_identical_seeds_identical_traces_and_checkpoints(self, tmp_path):
        rows = []
        blobs = []
        for run in range(2):
            model, mcfg, ds, tcfg = tiny_setup(seed=7)
            metrics, state = train(model, ds, tcfg)
            rows.append(
                [{k: v for k, v in m.items() if k != "wall_ms"} for m in metrics]
            )
            path = str(tmp_path / f"run{run}.ckpt")
            save_checkpoint(path, model, mcfg, optimizer_state=state.as_checkpoint_trailer())
            blobs.append(Path(path).read_bytes())
        assert rows[0] == rows[1]
        assert blobs[0] == blobs[1]

    def test_zero_lr_zero_dropout_freezes_metrics(self):
        model, _, ds, tcfg = tiny_setup(base_lr=0.0, dropout=0.0, epochs=3)
        before = [p.data.copy() for p in model.parameters()]
        metrics, _ = train(model, ds, tcfg)
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p.data, b)
        losses = [m["train_loss"] for m in metrics]
        accs = [m["eval_acc"] for m in metrics]
        assert max(losses) - min(losses) < 1e-12
        assert max(accs) - min(accs) == 0.0

    def test_loss_drops_and_accuracy_beats_chance_quickly(self):
        model, _, ds, tcfg = tiny_setup(
            n=2048, dim=32, seed=3, epochs=8, base_lr=3e-3, batch_size=32
        )
        eval_ds = generate_feature_dataset(
            ToyTaskSpec(templates=("attribute",), seed=100), 256
        )
        metrics, _ = train(model, ds, tcfg, eval_dataset=eval_ds)
        assert metrics[-1]["train_loss"] < metrics[0]["train_loss"]
        assert metrics[-1]["eval_acc"] > 0.35  # chance is 0.25

    def test_divergence_guard_raises_with_diagnostic(self):
        model, _, ds, tcfg = tiny_setup()
        model.mlp_out.weight.data[0, 0] = float("nan")
        with pytest.raises(DivergenceError, match="epoch 1"):
            train(model, ds, tcfg)

    def test_nan_feature_stops_before_its_update(self):
        # ReLU passes the NaN on, so the loss of the first batch is NaN and
        # no step is taken.
        model, _, ds, tcfg = tiny_setup()
        before = [p.data.copy() for p in model.parameters()]
        ds.regions[5, 0, 0] = float("nan")
        with pytest.raises(
            DivergenceError, match="non-finite loss nan at epoch 1 after 0 optimizer steps"
        ):
            train(model, ds, tcfg)
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p.data, b)
            assert p.grad is None

    def test_non_finite_gradient_with_finite_loss_stops_before_its_update(self, monkeypatch):
        model, _, ds, tcfg = tiny_setup()
        before = [p.data.copy() for p in model.parameters()]
        taped_backward = TR.backward

        def poisoned_backward(tape, loss):
            taped_backward(tape, loss)
            model.mlp_out.bias.grad[0] = float("inf")

        monkeypatch.setattr(TR, "backward", poisoned_backward)
        with pytest.raises(DivergenceError, match="gradient norm is inf"):
            train(model, ds, tcfg)
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p.data, b)
            # The raise releases the step's gradients.
            assert p.grad is None

    def test_answer_space_mismatch_rejected(self):
        model, _, ds, tcfg = tiny_setup()
        bad = generate_feature_dataset(
            ToyTaskSpec(templates=("existence",), seed=1), 32
        )
        with pytest.raises(ShapeError, match="answers"):
            train(model, bad, tcfg)

    def test_default_config_step_records_45_tape_nodes(self, monkeypatch):
        # Pins the tape size of one train step at the default model, data and
        # train config: 22 linear layers, each with its dropout, and 4
        # attentions are one node each. Inter flow records 12, intra 24,
        # embedding 2, and pooling, fusion, classifier and loss 7.
        model, ds = default_setup()
        counts = []
        taped_backward = TR.backward

        def counting_backward(tape, loss):
            counts.append(len(tape))
            taped_backward(tape, loss)

        monkeypatch.setattr(TR, "backward", counting_backward)
        train(model, ds, TrainConfig(epochs=1))
        assert counts == [45]

    def test_default_train_forward_draws_82944_generator_words(self):
        # 18 of the 22 linear layers drop out: 9 on (32, 12, 64) region rows
        # and 9 on (32, 6, 64) word rows, 331,776 elements of 16 bits each,
        # four to a generator word. The gates and the classifier draw none.
        model, ds = default_setup()
        batch = next(make_batches(ds, 32))
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        with GradTape():
            forward(Tensor(batch.regions), Tensor(batch.tokens), model,
                    ForwardContext(TrainConfig().dropout, rng))
        twin.bit_generator.advance(82_944)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_default_train_forward_tape_holds_under_6_5_mb(self):
        # The bytes a default-size train-mode forward leaves live on its tape:
        # node outputs, and what the closures keep. It measured 5.67 MB with
        # numpy 2.4.6, against 10.66 MB when each dropout kept a float mask
        # and an output of its own.
        model, ds = default_setup()
        batch = next(make_batches(ds, 32))
        regions, tokens = Tensor(batch.regions), Tensor(batch.tokens)
        ctx = ForwardContext(TrainConfig().dropout, np.random.default_rng(1))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with GradTape() as tape:
                pred = forward(regions, tokens, model, ctx)
                del pred
            live = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert live < 6.5e6
        assert len(tape) == 44

    def test_default_train_backward_leaves_only_the_gradients(self):
        # Backward consumes the tape: once it returns, the forward's arrays
        # are freed and the bytes still live are the gradients, plus a few
        # small objects. It measured 0.81 MB live against 0.79 MB of
        # gradients with numpy 2.4.6, against 6.48 MB when backward kept
        # every node.
        model, ds = default_setup()
        batch = next(make_batches(ds, 32))
        regions, tokens = Tensor(batch.regions), Tensor(batch.tokens)
        ctx = ForwardContext(TrainConfig().dropout, np.random.default_rng(1))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with GradTape() as tape:
                pred = forward(regions, tokens, model, ctx)
                loss = TR.cross_entropy_loss(pred, batch.answers.tolist())
            TR.backward(tape, loss)
            live = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        grad_bytes = sum(p.grad.nbytes for p in model.parameters() if p.grad is not None)
        assert tape.nodes == [] and len(tape) == 45
        assert grad_bytes < live < grad_bytes + 1e5

    def test_default_train_backward_makes_no_tensor(self, monkeypatch):
        # Adjoints are keyed by id(tensor), and outputs die during the sweep.
        # That is safe only while the sweep makes no Tensor that could take
        # a freed output's id.
        model, ds = default_setup()
        made = []
        taped_backward, init, make = TR.backward, Tensor.__init__, T._make

        def counting_init(self, *args, **kwargs):
            made.append("init")
            init(self, *args, **kwargs)

        def counting_make(*args):
            made.append("make")
            return make(*args)

        def counting_backward(tape, loss):
            made.append("backward")
            with monkeypatch.context() as m:
                m.setattr(Tensor, "__init__", counting_init)
                m.setattr(T, "_make", counting_make)
                taped_backward(tape, loss)

        monkeypatch.setattr(TR, "backward", counting_backward)
        train(model, ds, TrainConfig(epochs=1))
        assert made == ["backward"]

    def test_default_train_step_window_peaks_under_3_5_mb(self, monkeypatch):
        # The tracemalloc peak from each step's forward to the next, for the
        # default model at batch 4: the Adamax state that train makes, one
        # step's tape, and its gradients. It measured 3.17 MB with numpy
        # 2.4.6, against 3.80 MB when backward kept every node until the
        # next step, and 4.60 MB when the clip also returned scaled copies and
        # each step's clipped gradients lived on into the next step's backward.
        model, ds = default_setup()
        peaks = []
        forward_ = TR.forward

        def window_forward(*args):
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return forward_(*args)

        monkeypatch.setattr(TR, "forward", window_forward)
        tracemalloc.start()
        try:
            train(model, ds, TrainConfig(epochs=1, batch_size=4))
        finally:
            tracemalloc.stop()
        assert len(peaks) == 8
        assert max(peaks) < 3.5e6

    def test_parameter_grads_are_none_in_eval_on_epoch_and_on_return(self, monkeypatch):
        model, _, ds, tcfg = tiny_setup()
        params = model.parameters()
        seen = []
        evaluate = TR.evaluate_accuracy

        def released():
            return all(p.grad is None for p in params)

        def checking_evaluate(*args):
            seen.append(("eval", released()))
            return evaluate(*args)

        def on_epoch(row):
            seen.append(("on_epoch", released()))

        monkeypatch.setattr(TR, "evaluate_accuracy", checking_evaluate)
        train(model, ds, tcfg, on_epoch=on_epoch)
        assert seen == [("eval", True), ("on_epoch", True)] * tcfg.epochs
        assert released()

    @pytest.mark.parametrize("attention_type", ["full", "intra_only"])
    def test_step_gradients_are_freed_before_the_next_forward(self, monkeypatch, attention_type):
        # Every array a step hands Adamax, and the .grad it views after a
        # rescale, is dead when the next step's forward starts, so a step
        # holds one gradient set, and none of them is all zeros.
        spec = ToyTaskSpec(templates=("attribute",))
        ds = generate_feature_dataset(spec, 48)
        cfg = ModelConfig(
            dim=16, heads=2, n_blocks=1, hidden=32, d_v=spec.d_v, d_w=spec.d_w,
            n_answers=ds.n_answers, attention_type=attention_type,
        )
        model = build_model(cfg, np.random.default_rng(0))
        refs, zeros, alive = [], [], []
        step, forward_ = TR.adamax_step, TR.forward

        def recording_step(params, grads, state, lr):
            refs.append([weakref.ref(a) for g in grads for a in (g, g.base) if a is not None])
            zeros.append([not g.any() for g in grads])
            step(params, grads, state, lr)

        def checking_forward(*args):
            if refs:
                alive.append(sum(r() is not None for r in refs[-1]))
            return forward_(*args)

        monkeypatch.setattr(TR, "adamax_step", recording_step)
        monkeypatch.setattr(TR, "forward", checking_forward)
        train(model, ds, TrainConfig(epochs=2, batch_size=16))
        assert len(refs) == 6 and alive == [0] * 5
        assert all(r() is None for r in refs[-1])
        assert zeros == [[False] * len(model.parameters())] * 6

    def test_resume_continues_step_counter(self):
        model, _, ds, tcfg = tiny_setup(epochs=1)
        _, state = train(model, ds, tcfg)
        steps_one_epoch = state.t
        _, state2 = train(model, ds, tcfg, state=state)
        assert state2.t == 2 * steps_one_epoch


class TestEvaluate:
    def test_hardwired_one_hot_model_scores_one(self):
        model, _, ds, _ = tiny_setup(n=64)
        target = int(ds.answers[0])
        ds.answers[:] = target
        model.mlp_out.weight.data[:] = 0.0
        model.mlp_out.bias.data[:] = 0.0
        model.mlp_out.bias.data[target] = 10.0
        assert evaluate_accuracy(model, ds) == 1.0

    def test_constant_logits_score_chance_on_balanced_answers(self):
        model, _, ds, _ = tiny_setup(n=600, templates=("relational",), seed=9)
        model.mlp_out.weight.data[:] = 0.0
        model.mlp_out.bias.data[:] = 0.0
        acc = evaluate_accuracy(model, ds)
        k = ds.n_answers
        assert abs(acc - 1.0 / k) < 0.08

    def test_non_finite_logit_row_scores_as_miss(self):
        # The hard-wired model would answer every instance; instance 3's NaN
        # feature reaches its logits, and that row must not count as a hit.
        model, _, ds, _ = tiny_setup(n=64)
        target = int(ds.answers[0])
        ds.answers[:] = target
        model.mlp_out.weight.data[:] = 0.0
        model.mlp_out.bias.data[:] = 0.0
        model.mlp_out.bias.data[target] = 10.0
        ds.regions[3, 0, 0] = float("nan")
        report = evaluate_by_template(model, ds)
        assert report["overall"] == 63 / 64
        assert report["n"] == 64
        assert report["per_template"]["attribute"] == {"n": 64, "accuracy": 63 / 64}

    def test_accuracy_invariant_to_batch_size(self):
        model, _, ds, _ = tiny_setup(n=130)
        accs = {evaluate_accuracy(model, ds, batch_size=b) for b in (7, 32, 999)}
        assert len(accs) == 1

    def test_empty_dataset_rejected(self):
        model, _, ds, _ = tiny_setup()
        ds.regions = ds.regions[:0]
        ds.tokens = ds.tokens[:0]
        ds.answers = ds.answers[:0]
        ds.template_ids = ds.template_ids[:0]
        with pytest.raises(ValueError, match="empty"):
            evaluate_accuracy(model, ds)

    def test_per_template_weighted_mean_is_overall(self):
        spec = ToyTaskSpec(seed=17)
        ds = generate_feature_dataset(spec, 120)
        cfg = ModelConfig(
            dim=16, heads=2, n_blocks=1, hidden=32,
            d_v=spec.d_v, d_w=spec.d_w, n_answers=ds.n_answers,
        )
        model = build_model(cfg, np.random.default_rng(18))
        report = evaluate_by_template(model, ds)
        weighted = sum(
            row["accuracy"] * row["n"] for row in report["per_template"].values()
        )
        assert abs(weighted / report["n"] - report["overall"]) < 1e-12
        assert report["n"] == 120


# One train step of two instances, printing the parameters' SHA-256, for each
# (task, model) by keyword arguments. "width-64": a size where OpenBLAS splits
# work by thread count, one head of width 64 over 100 regions and a 256 x 64
# region embedding above the ~10k elements at which its dot splits. "paper":
# the train-paper workload's task and model in perfbench/run.py.
THREAD_PROBE = """
import hashlib
import numpy as np
from dfaf.data import ToyTaskSpec, generate_feature_dataset
from dfaf.model import ModelConfig, build_model
from dfaf.training import TrainConfig, train
spec = ToyTaskSpec({task})
data = generate_feature_dataset(spec, 2)
config = ModelConfig({model}, n_answers=data.n_answers)
model = build_model(config, np.random.default_rng(0))
train(model, data, TrainConfig(epochs=1, batch_size=2, dropout=0.0))
print(hashlib.sha256(b"".join(p.data.tobytes() for p in model.parameters())).hexdigest())
"""
THREAD_PROBE_SIZES = {
    "width-64": (
        "grid_rows=10, grid_cols=10, templates=('attribute',), d_v=256, seed=1",
        "dim=64, heads=1, d_v=256",
    ),
    "paper": (
        "grid_rows=10, grid_cols=10, n_colors=26, n_shapes=4, token_len=14, d_v=2048, d_w=300",
        "dim=512, heads=8, d_v=2048, d_w=300",
    ),
}


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class TestThreadCountBytes:
    @pytest.mark.skipif(
        _cpus() < 2,
        reason="one CPU: OpenBLAS caps its threads at the CPU count, so both runs use one",
    )
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 16(b): the attention backward's strided product and the "
        "clip norm's np.vdot round differently with 2 BLAS threads",
    )
    @pytest.mark.parametrize("size", sorted(THREAD_PROBE_SIZES))
    def test_trained_bytes_do_not_depend_on_blas_thread_count(self, size):
        task, model = THREAD_PROBE_SIZES[size]
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=PACKAGE_ROOT)
            proc = subprocess.run(
                [sys.executable, "-c", THREAD_PROBE.format(task=task, model=model)],
                env=env, capture_output=True, text=True, timeout=300, check=True,
            )
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]
