"""Optimizer closed forms, schedule, clipping, and the training loop."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfaf import training as TR
from dfaf.checkpoint import load_checkpoint, save_checkpoint
from dfaf.data import ToyTaskSpec, generate_feature_dataset
from dfaf.model import ModelConfig, build_model
from dfaf.tensor import ShapeError, Tensor
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
        assert np.array_equal(out[0], g[0])

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
        out = clip_gradients(g, 0.25)
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
        with pytest.raises(ValueError):
            clip_gradients([np.ones(2)], 0.0)


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

    def test_answer_space_mismatch_rejected(self):
        model, _, ds, tcfg = tiny_setup()
        bad = generate_feature_dataset(
            ToyTaskSpec(templates=("existence",), seed=1), 32
        )
        with pytest.raises(ShapeError, match="answers"):
            train(model, bad, tcfg)

    def test_default_config_step_records_63_tape_nodes(self, monkeypatch):
        # Pins the tape size of one train step at the default model, data and
        # train config: 22 linear layers and 4 attentions are one node each.
        spec = ToyTaskSpec()
        ds = generate_feature_dataset(spec, 32)
        cfg = ModelConfig(d_v=spec.d_v, d_w=spec.d_w, n_answers=ds.n_answers)
        model = build_model(cfg, np.random.default_rng(0))
        counts = []
        taped_backward = TR.backward

        def counting_backward(tape, loss):
            counts.append(len(tape))
            taped_backward(tape, loss)

        monkeypatch.setattr(TR, "backward", counting_backward)
        train(model, ds, TrainConfig(epochs=1))
        assert counts == [63]

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
