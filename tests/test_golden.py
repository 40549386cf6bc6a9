"""Golden bytes: the DFFT and DFAF file formats and the task generator,
pinned by SHA-256.

The two format files are built from ``np.arange`` values, with no random
draws, so their digests depend only on the on-disk layout. A change to either
writer that alters one byte fails here. The checkpoint is pinned once per
attention type, which pins each ablation's tensor names and order. The
generated files pin the generator's draws as well: a small default dataset,
one on a non-default grid and two noisy ones must come out byte for byte the
same.

Eval logits are pinned for every attention type, order and fusion: a
2-block model per combination, from a seeded build, scores
``golden_dataset()`` as one batch and as batches of one. They pin
which switch each forward reads, as the checkpoint pins cannot.

A trained checkpoint pins a whole train run: the default run config for
2 epochs (dropout 0.1), saved with its Adamax trailer. Float arithmetic
makes that digest and the logits digests specific to the numpy and
OpenBLAS build they were computed with (numpy 2.4.6, scipy-openblas
0.3.31): they pin that build's bytes, and another build of either library
may move them without a fault in the code.

The ``dfaf inspect`` dump of one instance is pinned for the golden
``full`` checkpoint, whose softmaxes and gates all saturate to 0 or 1, and
for two seeded models that do not saturate: ``full``, and ``dyintra_only``
for its own gates and gate-disabled matrices. It is float output too.

The ``dfaf gradcheck`` report is pinned at the 4-wide settings for every
order and for one corrupted block, less its config echo: the digest covers
the key order, every error and norm, and which blocks fail. It is float
output too, so it is tied to the same build.
"""

import hashlib
import itertools
import json

import numpy as np

from dfaf.attention import ATTENTION_TYPES, ORDERS
from dfaf.checkpoint import load_checkpoint, save_checkpoint
from dfaf.cli import main
from dfaf.config import RunConfig, sub_config
from dfaf.data import (
    FeatureDataset,
    ToyTaskSpec,
    generate_feature_dataset,
    read_feature_file,
    write_feature_file,
)
from dfaf.model import FUSIONS, ModelConfig, build_model, predict
from dfaf.tensor import Tensor
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

# The default run config trained for 2 epochs.
TRAINED_SHA256 = "89c19a5e20513d0e7dc95ac63a392e6143e011bb7c3ebbd8a0761a558b1f6bcd"

# Eval logits per (attention_type, order, fusion); see logits_digest.
LOGITS_CASES = {
    ('full', 'parallel', 'multiply'): "b65a4c5c224a0697835630186b8a8c0c8e707ab2640a463d4217dc81b6d8b40a",
    ('full', 'parallel', 'add'): "386a17df23fb5522a45e47d0c34d0c21896a95313659aec96a53662b623fe345",
    ('full', 'parallel', 'concat'): "f0976abc845a835d7839f119a8ed7aac3b873c15a7385c6f8f9d70fef7e4caca",
    ('full', 'r_then_e', 'multiply'): "35f50fbcc8e40d1b5e2550bf1635bc1b20d316d2dce243ec188c4e093618cb87",
    ('full', 'r_then_e', 'add'): "98c908ed71c85443a79124e43f30d72645efc4405ee3eb3615e4840db44764d2",
    ('full', 'r_then_e', 'concat'): "874c5661d5969442fd605f49b865079b970637773da371ecb43f5d8cd2f9c6f3",
    ('full', 'e_then_r', 'multiply'): "ec616503ce69748dd7320ed5fd0f1344487939dad81436d40bbb2e85aee25f4f",
    ('full', 'e_then_r', 'add'): "bd9fcb29b81f5cc52ae863ded4dbd991fb622b2cf01fcc38dfa908d953e327a0",
    ('full', 'e_then_r', 'concat'): "93a49679c1c8d4acbb3e794924da171ce9b3be3ce5143c9c6802d31f6943a1b3",
    ('inter_only', 'parallel', 'multiply'): "ed6cdd4f9df252f8942cf427ca39cd9ef048010548b881e745e73c887e3b59f1",
    ('inter_only', 'parallel', 'add'): "145c811da66e6053790cb3f9675cd32afa9b2ab8bdc799524a7b0587fda0589e",
    ('inter_only', 'parallel', 'concat'): "9493ad0a32be3de2d471c6eaedea2764f23b5080b1a9e7bb6886027156c4e830",
    ('inter_only', 'r_then_e', 'multiply'): "701f1f6e44f6d97ae2c97c0bb945185182d524e9e45ceca45edbc990f39c619d",
    ('inter_only', 'r_then_e', 'add'): "7e531c9f75f7dea6b346296f8c6689b5a8f299b7d28b3ce0be9d554fce449a0c",
    ('inter_only', 'r_then_e', 'concat'): "6902dee9e9547ef716fd7d9da707cc9324a4d0b517c24193ad15e469273e968c",
    ('inter_only', 'e_then_r', 'multiply'): "82061d2ea16b219195050b91316647f96d3d944eb00a59d3148d19d3b0b706cb",
    ('inter_only', 'e_then_r', 'add'): "2d3e449848b9c6f75786590cb693bd687cc947a927da9f6f8a4de27bbfd1a009",
    ('inter_only', 'e_then_r', 'concat'): "c5febb35d8b397357f5102affd52e1ad1e04936b17b404a81919fe30bb7914ab",
    ('intra_only', 'parallel', 'multiply'): "e2a501327bbd5d67588409327e04fca60781b9d7da815c8768762ea2d37c0d7a",
    ('intra_only', 'parallel', 'add'): "aaaf8ba06e066dd7cb8348114fd21ec0dd04456b970c3db2c7d156a92999ebc7",
    ('intra_only', 'parallel', 'concat'): "28399e072217848068f71854ef01218b5f597354a9c4f9243817291d208df714",
    ('intra_only', 'r_then_e', 'multiply'): "e2a501327bbd5d67588409327e04fca60781b9d7da815c8768762ea2d37c0d7a",
    ('intra_only', 'r_then_e', 'add'): "aaaf8ba06e066dd7cb8348114fd21ec0dd04456b970c3db2c7d156a92999ebc7",
    ('intra_only', 'r_then_e', 'concat'): "28399e072217848068f71854ef01218b5f597354a9c4f9243817291d208df714",
    ('intra_only', 'e_then_r', 'multiply'): "e2a501327bbd5d67588409327e04fca60781b9d7da815c8768762ea2d37c0d7a",
    ('intra_only', 'e_then_r', 'add'): "aaaf8ba06e066dd7cb8348114fd21ec0dd04456b970c3db2c7d156a92999ebc7",
    ('intra_only', 'e_then_r', 'concat'): "28399e072217848068f71854ef01218b5f597354a9c4f9243817291d208df714",
    ('dyintra_only', 'parallel', 'multiply'): "3e27905d38af9b498412050805fee5a175f14489e26ea016d19918d984bf440f",
    ('dyintra_only', 'parallel', 'add'): "d809a3705053892a99d170bad9465952613c95e9a828dac014afc9d81c79eb8f",
    ('dyintra_only', 'parallel', 'concat'): "fe446d7ac60221cc7c51d9054fca37f7fedbe7cdedbf6a95949a2d17937af916",
    ('dyintra_only', 'r_then_e', 'multiply'): "3e27905d38af9b498412050805fee5a175f14489e26ea016d19918d984bf440f",
    ('dyintra_only', 'r_then_e', 'add'): "d809a3705053892a99d170bad9465952613c95e9a828dac014afc9d81c79eb8f",
    ('dyintra_only', 'r_then_e', 'concat'): "fe446d7ac60221cc7c51d9054fca37f7fedbe7cdedbf6a95949a2d17937af916",
    ('dyintra_only', 'e_then_r', 'multiply'): "3e27905d38af9b498412050805fee5a175f14489e26ea016d19918d984bf440f",
    ('dyintra_only', 'e_then_r', 'add'): "d809a3705053892a99d170bad9465952613c95e9a828dac014afc9d81c79eb8f",
    ('dyintra_only', 'e_then_r', 'concat'): "fe446d7ac60221cc7c51d9054fca37f7fedbe7cdedbf6a95949a2d17937af916",
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


def seeded_model(attention_type: str, order: str, fusion: str):
    """A 2-block model from a seeded build, sized for golden_dataset()."""
    config = ModelConfig(
        dim=4, heads=2, n_blocks=2, hidden=3, d_v=5, d_w=3, n_answers=3,
        fusion=fusion, order=order, attention_type=attention_type,
    )
    return build_model(config, np.random.default_rng(0))


def logits_digest(attention_type: str, order: str, fusion: str) -> str:
    """SHA-256 of a seeded 2-block model's eval logits on golden_dataset(),
    as one batch, then one batch of one per instance (BLAS may round the two
    differently)."""
    params = seeded_model(attention_type, order, fusion)
    ds = golden_dataset()
    batched = predict(Tensor(ds.regions), Tensor(ds.tokens), params).logits.data
    single = np.concatenate([
        predict(Tensor(ds.regions[i : i + 1]), Tensor(ds.tokens[i : i + 1]), params).logits.data
        for i in range(len(ds))
    ])
    return hashlib.sha256(batched.tobytes() + single.tobytes()).hexdigest()


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
    cfg = RunConfig(epochs=2)
    assert cfg.dropout == 0.1
    dataset = generate_feature_dataset(sub_config(cfg, ToyTaskSpec), cfg.n_instances)
    config = sub_config(cfg, ModelConfig, n_answers=dataset.n_answers)
    params = build_model(config, np.random.default_rng(cfg.seed))
    _, state = train(params, dataset, sub_config(cfg, TrainConfig))
    path = tmp_path / "trained.ckpt"
    save_checkpoint(str(path), params, config, state.as_checkpoint_trailer())
    assert sha256_of(path) == TRAINED_SHA256


def test_eval_logits_are_pinned_for_every_switch():
    cases = list(itertools.product(ATTENTION_TYPES, ORDERS, FUSIONS))
    assert sorted(LOGITS_CASES) == sorted(cases)
    for case in cases:
        assert logits_digest(*case) == LOGITS_CASES[case], case



# The gradcheck report at the 4-wide settings, less its config echo, per
# extra ``--set`` pair; the corrupt run fails.
GRADCHECK_ARGS = ["--set", "dim=4", "--set", "heads=2", "--set", "n_blocks=1",
                  "--set", "gradcheck_regions=3", "--set", "gradcheck_words=2"]
GRADCHECK_CASES = {
    "order=parallel": "f5990298bc30c24f5671e6442820029e6f3c2f4a810c6ce1942f1b52c2a9f648",
    "order=r_then_e": "702bf75d7d95bdff622d761392a73d9eb09aad899287d2cc3b3758ce7b782fdb",
    "order=e_then_r": "d55774ede197476f54d8257382e02e086eb3a27e06b0a2c88a602c1bd5ab9120",
    "gradcheck_corrupt=dfaf_block/intra.region_out.weight":
        "73780dc530cdb1e11e372015a00c829020cad0d554da47a74c4692eeb1aac1cf",
}


def test_gradcheck_report_is_pinned(capsys, monkeypatch):
    monkeypatch.delenv("DFAF_SEED", raising=False)
    for pair, digest in GRADCHECK_CASES.items():
        code = main(["gradcheck", *GRADCHECK_ARGS, "--set", pair])
        assert code == (1 if pair.startswith("gradcheck_corrupt") else 0), pair
        (line,) = capsys.readouterr().out.splitlines()
        report = json.loads(line)
        del report["config"]
        assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == digest, pair


# The ``dfaf inspect`` dump of instance 1 of golden_dataset(), per model.
INSPECT_CASES = {
    "golden full": "6e617aafefc2b406d04593b09cc13ffee061567b3059f085598f47d195fa6e38",
    "seeded full": "4f12d475564cbd8278b6c141c7722beacec97807c2b2af0be05893b3f41da794",
    "seeded dyintra_only": "b45b00f81f968f28e742a37297de39beea5c41d66b46984c33c91682d1e06506",
}


def test_inspect_dump_is_pinned(tmp_path, monkeypatch):
    monkeypatch.delenv("DFAF_SEED", raising=False)
    models = {
        "golden full": golden_model("full")[0],
        "seeded full": seeded_model("full", "e_then_r", "concat"),
        "seeded dyintra_only": seeded_model("dyintra_only", "e_then_r", "concat"),
    }
    data, ckpt, out = (str(tmp_path / name) for name in ("g.dfft", "m.ckpt", "dump.json"))
    write_feature_file(data, golden_dataset())
    for case, digest in INSPECT_CASES.items():
        save_checkpoint(ckpt, models[case], models[case].config)
        assert main(["inspect", ckpt, data, "1", out]) == 0, case
        assert sha256_of(out) == digest, case
