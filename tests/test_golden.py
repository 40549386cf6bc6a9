"""Golden bytes: the DFFT and DFAF file formats and the task generator,
pinned by SHA-256.

The two format files are built from ``np.arange`` values, with no random
draws, so their digests depend only on the on-disk layout. A change to either
writer that alters one byte fails here. The checkpoint is pinned once per
attention type, which pins each ablation's tensor names and order. The
generated files pin the generator's draws as well: a small default dataset,
one on a non-default grid and two noisy ones must come out byte for byte the
same.

Two trained checkpoints pin a whole train run: the default run config for
2 epochs (dropout 0.1), saved with its Adamax trailer, once per clip mode.
Float arithmetic makes those digests specific to the numpy and OpenBLAS
build they were computed with (numpy 2.4.6, scipy-openblas 0.3.31): they pin
that build's training bytes, and another build of either library may move
them without a fault in the code.
"""

import hashlib

import numpy as np

from dfaf.checkpoint import load_checkpoint, save_checkpoint
from dfaf.config import RunConfig, sub_config
from dfaf.data import (
    FeatureDataset,
    ToyTaskSpec,
    generate_feature_dataset,
    read_feature_file,
    write_feature_file,
)
from dfaf.model import ModelConfig, build_model
from dfaf.training import TrainConfig, train

FEATURE_SHA256 = "1970e1ae1763c2b3c1227f9fc9369445d88e2951ebdf1e0972cb6423c44832dc"
CHECKPOINT_SHA256 = "46b1d4de6b547697711aad085cb775cc308ae6043de7f26ad9e59c8da261875a"
# Default ToyTaskSpec (seed 0), 64 instances.
GENERATED_SHA256 = "21e00ab1dab62ef2281d633943860edc3141bc126bbf92b0da0ffdfb1e7a47c1"
# The golden model per attention type: (n_blocks, digest).
CHECKPOINT_CASES = {
    "full": (1, CHECKPOINT_SHA256),
    "inter_only": (2, "00ab6ae9d41ca84ca6ffc82fcd987e8d486b531bc45e0dc145beccba9791353f"),
    "intra_only": (2, "628f745dbd7e7ff03ec9fad8dafc7dab57e50ffd8d8cc4ae9b75620656148b6d"),
    "dyintra_only": (2, "14bd4645971afb4e33666a741cf7c1a2dcd8020ec9c62396751504ac301eb338"),
}
# 64 instances (seed 0) of each spec: the default, a 2x6 grid with
# 5 colors, 3 shapes and d_v 100, and two noisy specs, which pin the
# per-instance noise draws interleaved with the scene draws.
GENERATED_CASES = [
    (ToyTaskSpec(), GENERATED_SHA256),
    (
        ToyTaskSpec(grid_rows=2, grid_cols=6, n_colors=5, n_shapes=3, d_v=100),
        "003f78c90ad7baf94f5268c4a2f744f111a308d17d03fad40fcbe460c9ed5412",
    ),
    (
        ToyTaskSpec(noise_std=0.1),
        "645f0e094df7e002e757975cdce1a1147a6faf692814e1f31843e0b3f9645e3f",
    ),
    (
        ToyTaskSpec(
            templates=("relational",), relational_direct_fraction=1.0, noise_std=0.1
        ),
        "415c5b73bab46aef7ddec108d6fe5763f6fd26c06163a41b6925cd096f3dc524",
    ),
]

# The default run config trained for 2 epochs, per clip mode.
TRAINED_CASES = {
    "global_norm": "89c19a5e20513d0e7dc95ac63a392e6143e011bb7c3ebbd8a0761a558b1f6bcd",
    "per_value": "168ba4d81838992c114ac034942553731879fca77e90b5d7de59627cd92051bc",
}


def sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def golden_dataset() -> FeatureDataset:
    n, mu, d_v, length, d_w = 3, 4, 5, 2, 3
    return FeatureDataset(
        regions=np.arange(n * mu * d_v, dtype=np.float64).reshape(n, mu, d_v) / 8.0,
        tokens=-np.arange(n * length * d_w, dtype=np.float64).reshape(n, length, d_w) / 4.0,
        answers=np.array([2, 0, 1], dtype=np.intp),
        template_ids=np.array([1, 0, 1], dtype=np.intp),
        template_names=["attribute", "counting"],
        answer_names=["no", "yes", "count_é"],
    )


def golden_model(attention_type="full", n_blocks=1):
    config = ModelConfig(
        dim=4, heads=2, n_blocks=n_blocks, hidden=3, d_v=5, d_w=3, n_answers=3,
        fusion="concat", order="e_then_r", attention_type=attention_type,
    )
    params = build_model(config, np.random.default_rng(0))
    named = list(params.named_parameters())
    for i, (_, tensor) in enumerate(named):
        tensor.data = np.arange(tensor.size, dtype=np.float64).reshape(tensor.shape) / 16.0 + i
    moments = [np.full(t.shape, 0.5 * i) for i, (_, t) in enumerate(named)]
    inf_norms = [np.arange(t.size, dtype=np.float64).reshape(t.shape) for _, t in named]
    return params, config, (7, moments, inf_norms)


def test_feature_file_bytes_are_pinned(tmp_path):
    path = tmp_path / "golden.dft"
    ds = golden_dataset()
    write_feature_file(str(path), ds)
    assert sha256_of(path) == FEATURE_SHA256
    back = read_feature_file(str(path))
    assert np.array_equal(back.regions, ds.regions)
    assert np.array_equal(back.tokens, ds.tokens)
    assert back.answers.tolist() == [2, 0, 1]
    assert back.template_ids.tolist() == [1, 0, 1]
    assert back.answer_names == ds.answer_names


def test_checkpoint_bytes_are_pinned(tmp_path):
    for kind, (n_blocks, digest) in CHECKPOINT_CASES.items():
        path = tmp_path / f"{kind}.ckpt"
        params, config, trailer = golden_model(kind, n_blocks)
        save_checkpoint(str(path), params, config, trailer)
        assert sha256_of(path) == digest, kind
        loaded, loaded_config, loaded_trailer = load_checkpoint(str(path))
        assert loaded_config == config
        assert loaded_trailer[0] == 7
        for (a_name, a), (b_name, b) in zip(
            loaded.named_parameters(), params.named_parameters(), strict=True
        ):
            assert a_name == b_name
            assert np.array_equal(a.data, b.data)


def test_generated_dataset_bytes_are_pinned(tmp_path):
    path = tmp_path / "generated.dft"
    for spec, digest in GENERATED_CASES:
        write_feature_file(str(path), generate_feature_dataset(spec, 64))
        assert sha256_of(path) == digest, spec


def test_trained_checkpoint_bytes_are_pinned(tmp_path):
    for clip_mode, digest in TRAINED_CASES.items():
        cfg = RunConfig(epochs=2, clip_mode=clip_mode)
        assert cfg.dropout == 0.1
        dataset = generate_feature_dataset(sub_config(cfg, ToyTaskSpec), cfg.n_instances)
        config = sub_config(cfg, ModelConfig, n_answers=dataset.n_answers)
        params = build_model(config, np.random.default_rng(cfg.seed))
        _, state = train(params, dataset, sub_config(cfg, TrainConfig))
        path = tmp_path / f"{clip_mode}.ckpt"
        save_checkpoint(str(path), params, config, state.as_checkpoint_trailer())
        assert sha256_of(path) == digest, clip_mode
