"""Acceptance suite: one test per shipping criterion.

Run with ``PYTHONPATH=src python -m pytest -v tests/test_acceptance.py`` to
get exactly one pass/fail line per criterion.  Eight criteria are here: 1-5
and 8-10.  Criteria 6 (the ablation ordering intra_only < dyintra_only <= full
on the relational task) and 7 (trainability on the attribute task) are not in
the suite yet; they keep their numbers.  No test carries the ``slow`` marker
today; every criterion here finishes in seconds to a couple of minutes.
"""
import json
import math
import time

import numpy as np
from conftest import run_cli

from dfaf.attention import (
    ATTENTION_TYPES,
    ORDERS,
    VARIANTS,
    AttentionRecord,
    dfaf_block_forward,
    dyintra_maf_forward,
    init_dfaf_block,
    init_dyintra_maf,
)
from dfaf.model import ModelConfig, build_model, predict
from dfaf.tensor import Tensor, attention
from dfaf.training import (
    BETA1,
    EPSILON,
    AdamaxState,
    adamax_step,
    clip_gradients,
)


def random_stack_inputs(rng):
    """A random architecture + inputs, small enough to run a thousand times."""
    heads = int(rng.choice([1, 2, 4]))
    dim = heads * int(rng.choice([2, 4, 8]))
    mu = int(rng.integers(1, 7))
    length = int(rng.integers(1, 7))
    n_blocks = int(rng.integers(1, 3))
    order = str(rng.choice(ORDERS))
    attention_type = str(rng.choice(ATTENTION_TYPES))
    scale = 10.0 ** float(rng.uniform(-2, 2))
    blocks = [init_dfaf_block(dim, attention_type, rng) for _ in range(n_blocks)]
    r = Tensor(scale * rng.standard_normal((1, mu, dim)))
    e = Tensor(scale * rng.standard_normal((1, length, dim)))
    return (blocks, heads, order, VARIANTS[attention_type].dynamic), r, e


def stack_forward(r, e, stack, records=None):
    """Run ``stack`` (blocks and their switches) the way the model walks its
    blocks, appending one record per block when ``records`` is a list."""
    blocks, heads, order, dynamic = stack
    for block in blocks:
        record = None if records is None else AttentionRecord()
        r, e = dfaf_block_forward(r, e, block, heads, order, dynamic, record)
        if records is not None:
            records.append(record)
    return r, e


# --------------------------------------------------------------------------
# 1. Gradient correctness


def test_criterion_01_gradient_correctness(tmp_path):
    started = time.perf_counter()
    proc = run_cli(
        [
            "gradcheck",
            "--set", "dim=8",
            "--set", "heads=2",
            "--set", "n_blocks=2",
            "--set", "gradcheck_regions=5",
            "--set", "gradcheck_words=4",
        ],
        tmp_path,
        timeout=3600,
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stderr
    (report,) = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    assert report["passed"] is True
    assert report["max_rel_err"] < 1e-5  # a decade inside the 1e-4 threshold
    assert report["settings"]["dim"] == 8
    assert report["settings"]["n_blocks"] == 2
    for unit in report["units"]:
        for block in unit["blocks"]:
            assert block["passed"], f"{unit['unit']}/{block['name']}"
    assert elapsed < 120.0


# --------------------------------------------------------------------------
# 2. Attention normalization


def test_criterion_02_attention_rows_normalized():
    rng = np.random.default_rng(2)
    checked = 0
    for _ in range(1000):
        stack, r, e = random_stack_inputs(rng)
        records: list[AttentionRecord] = []
        stack_forward(r, e, stack, records)
        for record in records:
            for name in ("inter_r_from_e", "inter_e_from_r", "intra_r", "intra_e"):
                weights = getattr(record, name)  # (1, heads, n, m), or None
                if weights is None:
                    continue
                for head, matrix in enumerate(weights[0]):
                    assert np.all(matrix >= 0.0), (name, head)
                    assert np.max(np.abs(matrix.sum(axis=-1) - 1.0)) <= 1e-6, (name, head)
                    checked += 1
    assert checked >= 1000


# --------------------------------------------------------------------------
# 3. Permutation symmetry


def test_criterion_03_region_permutation_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(200):
        # End-to-end: logits must not move when region rows are shuffled.
        heads = int(rng.choice([1, 2]))
        dim = heads * int(rng.choice([4, 8]))
        config = ModelConfig(
            dim=dim,
            heads=heads,
            n_blocks=int(rng.integers(1, 3)),
            hidden=16,
            d_v=int(rng.integers(6, 12)),
            d_w=int(rng.integers(4, 10)),
            n_answers=4,
            fusion=str(rng.choice(["multiply", "add", "concat"])),
            order=str(rng.choice(ORDERS)),
            attention_type=str(rng.choice(ATTENTION_TYPES)),
        )
        model = build_model(config, rng)
        mu = int(rng.integers(2, 8))
        raw_r = Tensor(rng.standard_normal((1, mu, config.d_v)))
        raw_e = Tensor(rng.standard_normal((1, 5, config.d_w)))
        perm = rng.permutation(mu)
        base = predict(raw_r, raw_e, model).logits.data
        shuffled = predict(Tensor(raw_r.data[:, perm]), raw_e, model).logits.data
        assert np.max(np.abs(base - shuffled)) <= 1e-12

        # Per-module: outputs permute with the rows, words untouched.
        stack, r, e = random_stack_inputs(rng)
        r2, e2 = stack_forward(r, e, stack)
        perm = rng.permutation(r.shape[1])
        r2p, e2p = stack_forward(Tensor(r.data[:, perm]), e, stack)
        assert np.max(np.abs(r2p.data - r2.data[:, perm])) <= 1e-12
        assert np.max(np.abs(e2p.data - e2.data)) <= 1e-12


# --------------------------------------------------------------------------
# 4. Dynamic-gating dataflow


def test_criterion_04_dynamic_gating_dataflow():
    rng = np.random.default_rng(4)
    dynamic_changed = 0
    naive_identical = 0
    trials = 100
    for _ in range(trials):
        heads = int(rng.choice([1, 2, 4]))
        dim = heads * int(rng.choice([2, 4, 8]))
        mu = int(rng.integers(2, 8))
        length = int(rng.integers(2, 8))
        r = Tensor(rng.standard_normal((1, mu, dim)))
        e = Tensor(rng.standard_normal((1, length, dim)))
        e_other = Tensor(rng.standard_normal((1, length, dim)))

        def region_attention(params, dynamic):
            record = AttentionRecord()
            dyintra_maf_forward(r, e, params, heads, dynamic, record)
            record2 = AttentionRecord()
            dyintra_maf_forward(r, e_other, params, heads, dynamic, record2)
            return record.intra_r, record2.intra_r  # every head at once

        if not np.array_equal(*region_attention(init_dyintra_maf(dim, rng), True)):
            dynamic_changed += 1

        if np.array_equal(*region_attention(init_dyintra_maf(dim, rng), False)):
            naive_identical += 1

    assert dynamic_changed >= 99, f"only {dynamic_changed}/100 changed"
    assert naive_identical == trials, f"only {naive_identical}/100 identical"


# --------------------------------------------------------------------------
# 5. Multi-head consistency


def test_criterion_05_multi_head_consistency():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dim = int(rng.choice([8, 16, 32]))
        n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        q = Tensor(rng.standard_normal((1, n, dim)))
        k = Tensor(rng.standard_normal((1, m, dim)))
        v = Tensor(rng.standard_normal((1, m, dim)))

        # h=1 must be bit-exact against the unsplit computation.
        merged, weights = attention(q, k, v, 1)
        logits = q.data[0] @ np.ascontiguousarray(k.data[0].T) * (1.0 / math.sqrt(dim))
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        direct_w = e / e.sum(axis=-1, keepdims=True)
        assert np.array_equal(weights[0, 0], direct_w)
        assert np.array_equal(merged.data[0], direct_w @ v.data[0])

        # h=2 must equal two independent half-width runs, concatenated.
        half = dim // 2
        merged2, weights2 = attention(q, k, v, 2)
        parts = []
        for lo, hi, w2 in ((0, half, weights2[0, 0]), (half, dim, weights2[0, 1])):
            qh = Tensor(q.data[..., lo:hi])
            kh = Tensor(k.data[..., lo:hi])
            wh = attention(qh, kh, kh, 1)[1][0, 0]
            assert np.max(np.abs(wh - w2)) <= 1e-10
            parts.append(wh @ v.data[0, :, lo:hi])
        assert np.max(np.abs(merged2.data[0] - np.concatenate(parts, axis=1))) <= 1e-10


# --------------------------------------------------------------------------
# 8. Optimizer unit truth


def test_criterion_08_optimizer_unit_truth():
    rng = np.random.default_rng(8)

    # First step: exact closed form -lr * g / (|g| + eps), i.e. the sign of g.
    params = [Tensor(rng.standard_normal((4, 3)), requires_grad=True)]
    g = rng.standard_normal((4, 3)) + np.sign(rng.standard_normal((4, 3)))
    g[np.abs(g) < 0.1] = 0.5  # keep gradients well away from zero
    before = params[0].data.copy()
    state = AdamaxState.for_params(params)
    adamax_step(params, [g], state, lr=1e-3)
    step = params[0].data - before
    closed = -1e-3 * g / (np.abs(g) + EPSILON)
    assert np.max(np.abs(step - closed)) <= 1e-12
    assert np.array_equal(np.sign(step), -np.sign(g))

    # Three steps against an independently scripted recurrence.
    theta = rng.standard_normal(6)
    params = [Tensor(theta.copy(), requires_grad=True)]
    state = AdamaxState.for_params(params)
    grads = [rng.standard_normal(6) for _ in range(3)]
    m = np.zeros(6)
    u = np.zeros(6)
    ref = theta.copy()
    for t, g in enumerate(grads, start=1):
        adamax_step(params, [g], state, lr=2e-3)
        m = BETA1 * m + (1 - BETA1) * g
        u = np.maximum(0.999 * u, np.abs(g))
        ref = ref - 2e-3 / (1 - BETA1**t) * m / (u + EPSILON)
        assert np.max(np.abs(params[0].data - ref)) <= 1e-12

    # Clipping: post-clip global norm never exceeds the threshold.
    for _ in range(50):
        grads = [rng.standard_normal(s) * 10 for s in ((3, 4), (7,), (2, 2, 2))]
        clipped = clip_gradients(grads, 0.25)
        total = float(np.sqrt(sum(float((g ** 2).sum()) for g in clipped)))
        assert total <= 0.25 + 1e-12


# --------------------------------------------------------------------------
# 9. Reproducibility


def test_criterion_09_reproducibility(tmp_path):
    args = [
        "--set", "templates=attribute",
        "--set", "n_instances=128",
        "--set", "dim=16",
        "--set", "heads=2",
        "--set", "hidden=32",
        "--set", "epochs=3",
        "--set", "batch_size=32",
    ]
    assert (
        run_cli(["gen-data", *args, "data.bin"], tmp_path, timeout=3600).returncode
        == 0
    )

    streams = []
    for run in ("one", "two"):
        rundir = tmp_path / run
        rundir.mkdir()
        proc = run_cli(
            ["train", *args, str(tmp_path / "data.bin"), "ckpt.bin"],
            rundir,
            timeout=3600,
        )
        assert proc.returncode == 0, proc.stderr
        rows = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
        for row in rows:
            row.pop("wall_ms", None)  # wall clock is the one nondeterministic field
        streams.append(json.dumps(rows, sort_keys=True))

    assert streams[0] == streams[1]
    assert (tmp_path / "one" / "ckpt.bin").read_bytes() == (
        tmp_path / "two" / "ckpt.bin"
    ).read_bytes()


# --------------------------------------------------------------------------
# 10. Full-width shape conformance


def test_criterion_10_full_width_shape_conformance():
    rng = np.random.default_rng(10)
    config = ModelConfig(
        dim=512, heads=8, n_blocks=1, hidden=512, d_v=2048, d_w=1280, n_answers=10
    )
    model = build_model(config, rng)
    assert model.config.dim // model.config.heads == 64

    mu, length = 100, 14
    raw_r = Tensor(rng.standard_normal((1, mu, 2048)))
    raw_e = Tensor(rng.standard_normal((1, length, 1280)))
    pred = predict(raw_r, raw_e, model, record=True)
    assert pred.logits.shape == (1, 10)

    (record,) = pred.records
    assert record.inter_r_from_e.shape == (1, 8, mu, length)
    assert record.inter_e_from_r.shape == (1, 8, length, mu)
    assert record.intra_r.shape == (1, 8, mu, mu)
    assert record.intra_e.shape == (1, 8, length, length)
    assert record.gate_on_regions.shape == (1, 512)
    assert record.gate_on_words.shape == (1, 512)

    from dfaf.model import embed_inputs

    r, e = embed_inputs(raw_r, raw_e, model)
    r2, e2 = stack_forward(r, e, (model.stack, 8, config.order, True))
    assert r2.shape == (1, mu, 512)
    assert e2.shape == (1, length, 512)
