"""End-to-end model: embedding, fusion head, loss, predict, checkpoints."""

import dataclasses
import math
import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfaf import model as M
from dfaf import tensor as T
from dfaf.checkpoint import (
    INT_FIELDS,
    STR_FIELDS,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from dfaf.attention import VARIANTS
from dfaf.model import ModelConfig, Prediction, build_model
from dfaf.tensor import GradTape, ShapeError, Tensor, backward
from dfaf.training import AdamaxState


def small_config(**kw) -> ModelConfig:
    base = dict(dim=8, heads=2, n_blocks=2, hidden=16, d_v=10, d_w=6, n_answers=4)
    base.update(kw)
    return ModelConfig(**base)


def rand_inputs(rng, cfg, mu=5, length=3, batch=None):
    """Random raw features for ``batch`` instances, or for one (a batch of
    one) when ``batch`` is None."""
    b = 1 if batch is None else batch
    rs, es = (b, mu, cfg.d_v), (b, length, cfg.d_w)
    return Tensor(rng.standard_normal(rs)), Tensor(rng.standard_normal(es))


class TestEmbedInputs:
    def test_identity_embed_is_passthrough(self):
        cfg = small_config(d_v=8, d_w=8, attention_type="full")
        rng = np.random.default_rng(0)
        p = build_model(cfg, rng)
        p.region_embed.weight.data = np.eye(8)
        p.region_embed.bias.data[:] = 0.0
        r = Tensor(rng.standard_normal((1, 4, 8)))
        e = Tensor(rng.standard_normal((1, 3, 8)))
        r0, _ = M.embed_inputs(r, e, p)
        assert np.allclose(r0.numpy(), r.numpy(), atol=1e-12)

    def test_paper_scale_projection_shape(self):
        cfg = ModelConfig(
            dim=512, heads=8, n_blocks=1, hidden=32, d_v=2048, d_w=1280, n_answers=4
        )
        rng = np.random.default_rng(1)
        p = build_model(cfg, rng)
        r0, e0 = M.embed_inputs(
            Tensor(rng.standard_normal((1, 100, 2048))),
            Tensor(rng.standard_normal((1, 14, 1280))),
            p,
        )
        assert r0.shape == (1, 100, 512)
        assert e0.shape == (1, 14, 512)

    def test_width_errors_name_the_modality(self):
        # The embedding layer reports the width it expects: d_v for regions,
        # d_w for words (10 and 6 here).
        cfg = small_config()
        p = build_model(cfg, np.random.default_rng(2))
        good_e = Tensor(np.ones((1, 3, cfg.d_w)))
        with pytest.raises(ShapeError, match=r"expects width 10, input has shape \(1, 4, 11\)"):
            M.embed_inputs(Tensor(np.ones((1, 4, cfg.d_v + 1))), good_e, p)
        with pytest.raises(ShapeError, match=r"expects width 6, input has shape \(1, 3, 99\)"):
            M.embed_inputs(Tensor(np.ones((1, 4, cfg.d_v))), Tensor(np.ones((1, 3, 99))), p)

    def test_gradient_reaches_both_embeddings(self):
        cfg = small_config()
        rng = np.random.default_rng(3)
        p = build_model(cfg, rng)
        raw_r, raw_e = rand_inputs(rng, cfg)
        with GradTape() as tape:
            pred = M.forward(raw_r, raw_e, p)
            loss = M.cross_entropy_loss(pred, [1])
        backward(tape, loss)
        assert p.region_embed.weight.grad is not None
        assert np.linalg.norm(p.region_embed.weight.grad) > 0
        assert p.word_embed.weight.grad is not None
        assert np.linalg.norm(p.word_embed.weight.grad) > 0


class TestFuseAndClassify:
    def test_neutral_fusions_classify_pooled_regions_alone(self):
        cfg = small_config(dim=8, heads=1, n_blocks=1)
        rng = np.random.default_rng(4)
        p = build_model(cfg, rng)
        r = Tensor(rng.standard_normal((1, 5, 8)))
        v = r.data.mean(axis=1)
        mul_pred = M.fuse_and_classify(r, Tensor(np.ones((1, 2, 8))), p)
        p_add = dataclasses.replace(p, config=dataclasses.replace(cfg, fusion="add"))
        add_pred = M.fuse_and_classify(r, Tensor(np.zeros((1, 2, 8))), p_add)
        alone = np.maximum(v @ p.mlp_hidden.weight.data + p.mlp_hidden.bias.data, 0)
        alone = alone @ p.mlp_out.weight.data + p.mlp_out.bias.data
        assert np.allclose(mul_pred.logits.numpy(), alone, atol=1e-12)
        assert np.allclose(add_pred.logits.numpy(), alone, atol=1e-12)

    def test_concat_fusion_matches_composition_oracle(self):
        cfg = small_config(fusion="concat")
        rng = np.random.default_rng(6)
        p = build_model(cfg, rng)
        r = rng.standard_normal((1, 6, 8))
        e = rng.standard_normal((1, 4, 8))
        pred = M.fuse_and_classify(Tensor(r), Tensor(e), p)
        fused = np.concatenate([r.mean(axis=1), e.mean(axis=1)], axis=-1)
        h = np.maximum(fused @ p.mlp_hidden.weight.data + p.mlp_hidden.bias.data, 0)
        logits = h @ p.mlp_out.weight.data + p.mlp_out.bias.data
        assert np.max(np.abs(pred.logits.numpy() - logits)) < 1e-10

    def test_empty_modality_rejected(self):
        cfg = small_config()
        p = build_model(cfg, np.random.default_rng(7))
        with pytest.raises(ShapeError, match="empty"):
            M.fuse_and_classify(Tensor(np.ones((1, 0, 8))), Tensor(np.ones((1, 2, 8))), p)


class TestCrossEntropyLoss:
    def test_uniform_logits_closed_form(self):
        pred = Prediction(logits=Tensor(np.zeros((1, 4))))
        assert abs(M.cross_entropy_loss(pred, [2]).item() - math.log(4)) < 1e-12

    def test_dominant_target_saturates_to_zero(self):
        logits = np.zeros((1, 5))
        logits[0, 3] = 50.0
        pred = Prediction(logits=Tensor(logits))
        assert M.cross_entropy_loss(pred, [3]).item() < 1e-20

    def test_gradient_identity_probabilities_minus_onehot(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((1, 6))
        logits = Tensor(z, requires_grad=True)
        with GradTape() as tape:
            loss = M.cross_entropy_loss(Prediction(logits=logits), [4])
        backward(tape, loss)
        expect = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
        expect[0, 4] -= 1.0
        assert np.max(np.abs(logits.grad - expect)) < 1e-10

    def test_out_of_range_target_rejected(self):
        pred = Prediction(logits=Tensor(np.zeros((1, 4))))
        with pytest.raises(IndexError):
            M.cross_entropy_loss(pred, [4])
        with pytest.raises(IndexError):
            M.cross_entropy_loss(pred, [-1])

    def test_batch_loss_is_mean_of_rows(self):
        rng = np.random.default_rng(10)
        z = rng.standard_normal((3, 5))
        batch_pred = Prediction(logits=Tensor(z))
        batch = M.cross_entropy_loss(batch_pred, [0, 2, 4]).item()
        singles = [
            M.cross_entropy_loss(Prediction(logits=Tensor(z[i : i + 1])), [t]).item()
            for i, t in enumerate([0, 2, 4])
        ]
        assert abs(batch - np.mean(singles)) < 1e-12


class TestPredict:
    def test_deterministic_bitwise(self):
        cfg = small_config()
        rng = np.random.default_rng(11)
        p = build_model(cfg, rng)
        raw_r, raw_e = rand_inputs(rng, cfg)
        a = M.predict(raw_r, raw_e, p)
        b = M.predict(raw_r, raw_e, p)
        assert np.array_equal(a.logits.numpy(), b.logits.numpy())

    def test_region_permutation_leaves_logits_fixed(self):
        cfg = small_config()
        rng = np.random.default_rng(12)
        p = build_model(cfg, rng)
        raw_r, raw_e = rand_inputs(rng, cfg, mu=7)
        base = M.predict(raw_r, raw_e, p).logits.numpy()
        for _ in range(10):
            perm = rng.permutation(7)
            got = M.predict(Tensor(raw_r.data[:, perm]), raw_e, p).logits.numpy()
            assert np.max(np.abs(got - base)) <= 1e-12

    def test_records_one_per_block(self):
        cfg = small_config(n_blocks=3)
        rng = np.random.default_rng(13)
        p = build_model(cfg, rng)
        raw_r, raw_e = rand_inputs(rng, cfg)
        pred = M.predict(raw_r, raw_e, p, record=True)
        assert pred.records is not None and len(pred.records) == 3
        assert M.predict(raw_r, raw_e, p).records is None

    def test_batched_forward_matches_per_instance(self):
        cfg = small_config()
        rng = np.random.default_rng(14)
        p = build_model(cfg, rng)
        raw_r, raw_e = rand_inputs(rng, cfg, batch=4)
        batch_logits = M.predict(raw_r, raw_e, p).logits.numpy()
        assert batch_logits.shape == (4, cfg.n_answers)
        for i in range(4):
            one = M.predict(Tensor(raw_r.data[i : i + 1]), Tensor(raw_e.data[i : i + 1]), p)
            assert np.max(np.abs(batch_logits[i] - one.logits.numpy()[0])) < 1e-12

    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("empty", ["regions", "words"])
    @pytest.mark.parametrize("kind", sorted(VARIANTS))
    def test_empty_modality_is_shape_error(self, kind, empty, batch):
        # A modality with no rows leaves nothing to attend over or pool.
        cfg = small_config(attention_type=kind)
        rng = np.random.default_rng(16)
        p = build_model(cfg, rng)
        mu, length = (0, 3) if empty == "regions" else (5, 0)
        raw_r, raw_e = rand_inputs(rng, cfg, mu=mu, length=length, batch=batch)
        for record in (False, True):
            with pytest.raises(ShapeError, match="at least one key row|empty input"):
                M.predict(raw_r, raw_e, p, record=record)

    def test_loss_decreases_on_separable_batch(self):
        cfg = small_config(n_blocks=1, n_answers=2)
        rng = np.random.default_rng(15)
        p = build_model(cfg, rng)
        params = p.parameters()
        raw_r = rng.standard_normal((8, 5, cfg.d_v)) * 0.1
        targets = [i % 2 for i in range(8)]
        for i, t in enumerate(targets):
            raw_r[i] += (1.0 if t else -1.0)
        raw_e = rng.standard_normal((8, 3, cfg.d_w)) * 0.1
        r_t, e_t = Tensor(raw_r), Tensor(raw_e)

        losses = []
        for _ in range(50):
            for q in params:
                q.zero_grad()
            with GradTape() as tape:
                pred = M.forward(r_t, e_t, p)
                loss = M.cross_entropy_loss(pred, targets)
            backward(tape, loss)
            losses.append(loss.item())
            for q in params:
                if q.grad is not None:
                    q.data -= 0.05 * q.grad
        assert losses[-1] < losses[0]
        assert all(math.isfinite(v) for v in losses)


class TestBatchContract:
    """Every row op and forward takes a batch; an instance without its
    batch axis is a ShapeError that names the shape, never numpy's own
    error or a result."""

    @pytest.mark.parametrize(
        "op",
        ["attention", "attention_weights", "avg_pool_rows", "mul_row",
         "cross_entropy_rows", "predict"],
    )
    def test_unbatched_input_is_shape_error_naming_it(self, op):
        rows, vector = Tensor(np.ones((5, 4))), Tensor(np.ones(4))
        model = build_model(ModelConfig(dim=4, heads=2, d_v=6, d_w=6), None)
        calls = {
            "attention": lambda: T.attention(rows, rows, rows, 1),
            "attention_weights": lambda: T.attention_weights(rows, rows, 1),
            "avg_pool_rows": lambda: T.avg_pool_rows(rows),
            "mul_row": lambda: T.mul_row(rows, vector),
            "cross_entropy_rows": lambda: T.cross_entropy_rows(vector, [0]),
            "predict": lambda: M.predict(Tensor(np.ones((5, 6))), Tensor(np.ones((3, 6))), model),
        }
        named = r"\(4,\)" if op == "cross_entropy_rows" else r"\(5, 4\)"
        with pytest.raises(ShapeError, match=named):
            calls[op]()


class TestModelConfigValidation:
    def test_head_divisibility(self):
        with pytest.raises(ShapeError):
            small_config(dim=10, heads=4)

    def test_bad_choice_fields(self):
        with pytest.raises(ValueError, match="fusion"):
            small_config(fusion="mean")
        with pytest.raises(ValueError, match="order"):
            small_config(order="both")
        with pytest.raises(ValueError, match="attention_type"):
            small_config(attention_type="none")

    def test_positive_sizes(self):
        with pytest.raises(ValueError, match="n_answers"):
            small_config(n_answers=0)

    def test_checkpoint_header_holds_every_field(self):
        # A field in neither tuple would be dropped on save and come back
        # as its default on load.
        names = [f.name for f in fields(ModelConfig)]
        assert sorted(INT_FIELDS + STR_FIELDS) == sorted(names)
        for name in INT_FIELDS:
            with pytest.raises(ValueError, match=name):
                small_config(**{name: 0})

    def test_concat_fusion_widens_classifier(self):
        cfg = small_config(fusion="concat")
        p = build_model(cfg, np.random.default_rng(16))
        assert p.mlp_hidden.in_dim == 2 * cfg.dim

    @pytest.mark.parametrize("kind", ["full", "inter_only", "intra_only", "dyintra_only"])
    @pytest.mark.parametrize("fusion", ["multiply", "concat"])
    def test_n_parameters_matches_built_model(self, kind, fusion):
        cfg = small_config(attention_type=kind, fusion=fusion, n_blocks=3)
        assert cfg.n_parameters() == build_model(cfg, np.random.default_rng(0)).n_parameters()

    def test_config_roundtrip_through_model(self):
        for kind in ("full", "inter_only", "intra_only", "dyintra_only"):
            cfg = small_config(attention_type=kind, fusion="concat", order="e_then_r")
            p = build_model(cfg, np.random.default_rng(17))
            assert M.config_of(p) == cfg


class TestCheckpoint:
    def roundtrip(self, tmp_path, cfg, opt=None):
        rng = np.random.default_rng(18)
        p = build_model(cfg, rng)
        path = os.path.join(tmp_path, "model.ckpt")
        save_checkpoint(path, p, cfg, optimizer_state=opt)
        return p, path, load_checkpoint(path)

    def test_roundtrip_bit_exact(self, tmp_path):
        cfg = small_config(n_blocks=2, attention_type="full")
        p, _, (loaded, cfg2, opt) = self.roundtrip(str(tmp_path), cfg)
        assert cfg2 == cfg
        assert opt is None
        for (n1, t1), (n2, t2) in zip(p.named_parameters(), loaded.named_parameters()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data)

    def test_named_parameters_hold_weights_only(self):
        # The same names, in the same order, as the checkpoint layout has
        # always had; the config rides along without a tensor entry.
        def linear(name):
            return [f"{name}.weight", f"{name}.bias"]

        def qkv(name):
            return [n for part in ("query", "key", "value") for n in linear(f"{name}.{part}")]

        expected = linear("region_embed") + linear("word_embed")
        for i in range(2):
            inter, intra = f"stack.{i}.inter", f"stack.{i}.intra"
            expected += qkv(f"{inter}.region_qkv") + qkv(f"{inter}.word_qkv")
            expected += linear(f"{inter}.region_out") + linear(f"{inter}.word_out")
            expected += qkv(f"{intra}.region_qkv") + qkv(f"{intra}.word_qkv")
            for layer in ("gate_from_regions", "gate_from_words", "region_out", "word_out"):
                expected += linear(f"{intra}.{layer}")
        expected += linear("mlp_hidden") + linear("mlp_out")
        p = build_model(small_config(n_blocks=2, attention_type="full"), None)
        names = [n for n, _ in p.named_parameters()]
        assert names == expected
        assert len(names) == 80
        assert not any("config" in n for n in names)

    def test_loaded_model_carries_the_loaded_config(self, tmp_path):
        cfg = small_config(fusion="add", order="parallel", attention_type="intra_only")
        _, _, (loaded, cfg2, _) = self.roundtrip(str(tmp_path), cfg)
        assert loaded.config == cfg2 == cfg

    def test_save_rejects_config_of_other_architecture(self, tmp_path):
        cfg = small_config(order="parallel", fusion="add")
        p = build_model(cfg, np.random.default_rng(20))
        path = tmp_path / "other.ckpt"
        other = dataclasses.replace(cfg, order="r_then_e", fusion="multiply")
        with pytest.raises(CheckpointError, match="parameters"):
            save_checkpoint(str(path), p, other)
        assert not path.exists()

    def test_load_draws_no_random_model(self, tmp_path, monkeypatch):
        cfg = small_config()
        p, path, _ = self.roundtrip(str(tmp_path), cfg)

        def no_generator(*args):
            raise AssertionError("load_checkpoint drew a random initialisation")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        loaded, _, _ = load_checkpoint(path)
        for t1, t2 in zip(p.parameters(), loaded.parameters()):
            assert np.array_equal(t1.data, t2.data) and t2.requires_grad

    def test_build_without_generator_is_zero(self):
        p = build_model(small_config(), None)
        assert all(not t.data.any() for t in p.parameters())
        assert p.n_parameters() == small_config().n_parameters()

    @pytest.mark.parametrize("kind", ["inter_only", "intra_only", "dyintra_only"])
    def test_ablation_architectures_roundtrip(self, tmp_path, kind):
        cfg = small_config(attention_type=kind)
        p, _, (loaded, cfg2, _) = self.roundtrip(str(tmp_path), cfg)
        assert cfg2.attention_type == kind
        assert loaded.config.attention_type == kind
        variant = VARIANTS[kind]
        for block in loaded.stack:
            assert (block.inter is not None, block.intra is not None) == variant[:2]

    def test_optimizer_state_roundtrip(self, tmp_path):
        cfg = small_config()
        rng = np.random.default_rng(19)
        p = build_model(cfg, rng)
        names = [n for n, _ in p.named_parameters()]
        moments = [rng.standard_normal(t.shape) for _, t in p.named_parameters()]
        norms = [np.abs(rng.standard_normal(t.shape)) for _, t in p.named_parameters()]
        path = str(tmp_path / "opt.ckpt")
        save_checkpoint(path, p, cfg, optimizer_state=(42, moments, norms))
        _, _, opt = load_checkpoint(path)
        assert opt is not None
        step, m2, u2 = opt
        assert step == 42
        assert len(m2) == len(names)
        for a, b in zip(moments, m2):
            assert np.array_equal(a, b)
        for a, b in zip(norms, u2):
            assert np.array_equal(a, b)

    def test_trailer_is_read_only_views_that_adamax_state_copies(self, tmp_path):
        cfg = small_config()
        rng = np.random.default_rng(31)
        p = build_model(cfg, rng)
        moments = [rng.standard_normal(t.shape) for t in p.parameters()]
        norms = [np.abs(rng.standard_normal(t.shape)) for t in p.parameters()]
        path = str(tmp_path / "views.ckpt")
        save_checkpoint(path, p, cfg, optimizer_state=(5, moments, norms))
        _, _, trailer = load_checkpoint(path)
        _, m2, u2 = trailer
        for saved, loaded in zip(moments + norms, m2 + u2):
            assert loaded.tobytes() == saved.tobytes()
            assert not loaded.flags.writeable
            with pytest.raises(ValueError):
                loaded[...] = 0.0
        state = AdamaxState.from_checkpoint_trailer(trailer)
        assert state.t == 5
        for saved, copied in zip(moments + norms, state.moments + state.inf_norms):
            assert copied.dtype == np.float64 and copied.dtype.isnative
            assert copied.flags.writeable and copied.flags.c_contiguous and copied.flags.aligned
            assert copied.tobytes() == saved.tobytes()

    def optimizer_state(self, p):
        return 2, [t.data + 1.0 for t in p.parameters()], [t.data + 2.0 for t in p.parameters()]

    @pytest.mark.parametrize("drop", ["count", "shape"])
    def test_rejected_save_leaves_the_earlier_file(self, tmp_path, drop):
        cfg = small_config()
        p = build_model(cfg, np.random.default_rng(32))
        path = tmp_path / "keep.ckpt"
        save_checkpoint(str(path), p, cfg)
        before = path.read_bytes()
        step, moments, norms = self.optimizer_state(p)
        if drop == "count":
            norms = norms[:-1]
        else:
            norms[3] = norms[3][..., :-1]
        with pytest.raises(CheckpointError, match="optimizer"):
            save_checkpoint(str(path), p, cfg, optimizer_state=(step, moments, norms))
        assert path.read_bytes() == before
        with pytest.raises(CheckpointError, match="optimizer"):
            save_checkpoint(str(tmp_path / "new.ckpt"), p, cfg, (step, moments, norms))
        assert not (tmp_path / "new.ckpt").exists()

    def test_trailing_byte_after_trailer_rejected(self, tmp_path):
        cfg = small_config()
        p = build_model(cfg, np.random.default_rng(33))
        path = str(tmp_path / "gt.ckpt")
        save_checkpoint(path, p, cfg, optimizer_state=self.optimizer_state(p))
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_writes_are_byte_deterministic(self, tmp_path):
        cfg = small_config()
        p = build_model(cfg, np.random.default_rng(20))
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(p1, p, cfg)
        save_checkpoint(p2, p, cfg)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_bad_magic_is_distinct_clean_error(self, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        cfg = small_config()
        p = build_model(cfg, np.random.default_rng(21))
        path = str(tmp_path / "v.ckpt")
        save_checkpoint(path, p, cfg)
        raw = bytearray(open(path, "rb").read())
        raw[4:8] = (99).to_bytes(4, "little")
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        cfg = small_config()
        p = build_model(cfg, np.random.default_rng(22))
        path = str(tmp_path / "t.ckpt")
        save_checkpoint(path, p, cfg)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        cfg = small_config()
        p = build_model(cfg, np.random.default_rng(23))
        path = str(tmp_path / "g.ckpt")
        save_checkpoint(path, p, cfg)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_forged_rank_rejected_before_reading_shape(self, tmp_path):
        cfg = small_config()
        p = build_model(cfg, np.random.default_rng(25))
        path = tmp_path / "r.ckpt"
        save_checkpoint(str(path), p, cfg)
        raw = bytearray(path.read_bytes())
        first = next(p.named_parameters())[0].encode()
        at = raw.index(first) + len(first)
        raw[at : at + 4] = (0xFFFFFFFF).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="rank"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "offset, value", [(8, 2**20), (20, 2**30), (16, 0xFFFFFFF0)]
    )  # dim, hidden, n_blocks: 8 TiB, 64 GiB, and minutes of block building
    def test_forged_config_size_rejected_before_building(self, tmp_path, offset, value):
        cfg = small_config()
        path = tmp_path / "s.ckpt"
        save_checkpoint(str(path), build_model(cfg, np.random.default_rng(27)), cfg)
        raw = bytearray(path.read_bytes())
        raw[offset : offset + 4] = value.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="config needs .* bytes of parameters"):
            load_checkpoint(str(path))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 8 * 99 - 1), min_size=1, max_size=3))
    def test_header_bit_flips_load_or_raise_checkpoint_error(self, tmp_path_factory, bits):
        # the 99 bytes before the first float: magic, version, config, the
        # three names, the tensor count and the first tensor's name and shape
        path = tmp_path_factory.mktemp("flip") / "f.ckpt"
        cfg = small_config()
        save_checkpoint(str(path), build_model(cfg, np.random.default_rng(28)), cfg)
        raw = bytearray(path.read_bytes())
        for bit in bits:
            raw[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(raw))
        try:
            load_checkpoint(str(path))
        except CheckpointError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_truncation_raises_checkpoint_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("cut") / "c.ckpt"
        cfg = small_config(dim=2, heads=1, n_blocks=1, hidden=2, d_v=2, d_w=2, n_answers=2)
        p = build_model(cfg, np.random.default_rng(29))
        named = list(p.named_parameters())
        trailer = (3, [t.data + 1.0 for _, t in named], [t.data + 2.0 for _, t in named])
        save_checkpoint(str(path), p, cfg, optimizer_state=trailer)
        raw = path.read_bytes()
        path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameter_rejected_by_name(self, tmp_path, value):
        cfg = small_config()
        p = build_model(cfg, np.random.default_rng(30))
        p.mlp_out.bias.data[0] = value
        p.mlp_hidden.weight.data[1, 1] = value
        path = str(tmp_path / "n.ckpt")
        save_checkpoint(path, p, cfg)
        with pytest.raises(CheckpointError, match=r"^mlp_hidden\.weight holds a non-finite"):
            load_checkpoint(path)

    def test_name_not_utf8_rejected(self, tmp_path):
        cfg = small_config()
        p = build_model(cfg, np.random.default_rng(26))
        path = tmp_path / "u.ckpt"
        save_checkpoint(str(path), p, cfg)
        raw = bytearray(path.read_bytes())
        raw[38] = 0xFF  # first byte of the fusion string
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="fusion is not valid utf-8"):
            load_checkpoint(str(path))

    def test_loaded_model_predicts_identically(self, tmp_path):
        cfg = small_config()
        rng = np.random.default_rng(24)
        p = build_model(cfg, rng)
        raw_r, raw_e = rand_inputs(rng, cfg)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, p, cfg)
        loaded, _, _ = load_checkpoint(path)
        a = M.predict(raw_r, raw_e, p).logits.numpy()
        b = M.predict(raw_r, raw_e, loaded).logits.numpy()
        assert np.array_equal(a, b)
