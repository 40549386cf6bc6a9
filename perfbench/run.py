#!/usr/bin/env python3
"""Benchmark of dfaf: gen-data, train and eval, timed from outside the program.

    python3 perfbench/run.py --workload train-small --seed 0 --seconds 40 --trace 0

Each workload is one process running a closed loop with one caller: the next
call starts only when the previous one has returned. The run generates its
inputs from ``--seed`` with ``data.generate_feature_dataset`` and
``data.write_feature_file``, then:

* setup: read the train and held-out files and build the model; the built
  model is saved once, as the checkpoint the io loop loads;
* train: one ``training.train`` call with the held-out file as
  ``eval_dataset``, as ``dfaf train`` runs it;
* between its epochs, a share of the further setup repetitions and of the io
  loop: generate and write a fresh file (``dfaf gen-data``), then read it,
  load the checkpoint and ``evaluate_by_template`` (``dfaf eval``);
* throughout, a probe kernel that does not touch dfaf measures the host's
  speed, and the gated timings are rescaled by it.

With ``--trace 0`` the only wrappers installed stamp the start of a train
step (the call into ``training.forward``) and its end (the return of
``adamax_step``). With ``--trace 1`` every layer boundary is wrapped, the
train phase is also run untraced on the same seed, and the two must end with
byte-identical parameters. The last line of stdout is one JSON object.
See README.md for the metrics.
"""

import os

# Pinned before numpy is first imported, so BLAS starts single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np

from spans import Tracer, by_trace, children_of, patched, percentiles, self_ms

try:
    from dfaf import attention, checkpoint, data, model, tensor, training
except ImportError as exc:
    sys.exit(f"perfbench: cannot import dfaf from src/: {exc}")


@dataclass(frozen=True)
class Workload:
    name: str
    task: dict  # ToyTaskSpec fields other than the seed
    model: dict  # ModelConfig fields other than n_answers
    batch_size: int
    n_train: int
    n_heldout: int
    n_io: int  # instances per io-loop iteration
    epochs_per_10s: float  # work per 10 s of --seconds, fixed per run
    io_iters_per_10s: float

    def epochs(self, seconds: int) -> int:
        return max(1, round(self.epochs_per_10s * seconds / 10))

    def io_iters(self, seconds: int) -> int:
        return max(1, round(self.io_iters_per_10s * seconds / 10))


PAPER_TASK = dict(
    grid_rows=10, grid_cols=10, n_colors=26, n_shapes=4, token_len=14, d_v=2048, d_w=300
)
PAPER_MODEL = dict(dim=512, heads=8, d_v=2048, d_w=300)

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-small", {}, {}, batch_size=32, n_train=1000, n_heldout=500, n_io=500,
            epochs_per_10s=6, io_iters_per_10s=20,
        ),
        Workload(
            "train-paper", PAPER_TASK, PAPER_MODEL, batch_size=8, n_train=32, n_heldout=8, n_io=8,
            epochs_per_10s=1.25, io_iters_per_10s=4,
        ),
    )
}

# name: (unit, better). BENCHMARK.json lists the same names, units and directions.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_samples_per_s": ("inst/s", "higher"),
    "step_ms_mean": ("ms", "lower"),
    "eval_instances_per_s": ("inst/s", "higher"),
    "gen_instances_per_s": ("inst/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "mean_train_loss": ("nats", "lower"),
}
# Printed with every untraced result but not gated: see README.md.
REPORTED = {
    "host_slowdown": ("ratio", "lower"),
    "step_ms_p10": ("ms", "lower"),
    "step_ms_p50": ("ms", "lower"),
    "step_ms_p90": ("ms", "lower"),
    "final_train_loss": ("nats", "lower"),
    "heldout_acc": ("ratio", "higher"),
}
PER_LAYER = {
    "tensor.tape_nodes": ("count", "lower"),
    "tensor.tape_mb": ("MB", "lower"),
    "tensor.backward_ms": ("ms", "lower"),
    "attention.inter_nodes": ("count", "lower"),
    "attention.intra_nodes": ("count", "lower"),
    "attention.inter_ms": ("ms", "lower"),
    "attention.intra_ms": ("ms", "lower"),
    "attention.eval_inter_ms": ("ms", "lower"),
    "attention.eval_intra_ms": ("ms", "lower"),
    "model.embed_nodes": ("count", "lower"),
    "model.classify_nodes": ("count", "lower"),
    "model.embed_ms": ("ms", "lower"),
    "model.classify_ms": ("ms", "lower"),
    "model.forward_self_ms": ("ms", "lower"),
    "training.step_ms": ("ms", "lower"),
    "training.step_self_ms": ("ms", "lower"),
    "training.clip_ms": ("ms", "lower"),
    "training.adamax_ms": ("ms", "lower"),
    "training.clip_rate": ("ratio", "lower"),
    "training.batch_ms": ("ms", "lower"),
    "training.eval_ms": ("ms", "lower"),
    "training.eval_template_ms": ("ms", "lower"),
    "data.gen_ms": ("ms/kinst", "lower"),
    "data.write_ms": ("ms/kinst", "lower"),
    "data.read_ms": ("ms/kinst", "lower"),
    "data.file_mb": ("MB/kinst", "lower"),
    "checkpoint.load_ms": ("ms", "lower"),
    "checkpoint.save_ms": ("ms", "lower"),
    "checkpoint.file_mb": ("MB", "lower"),
    "trace_overhead": ("ratio", "lower"),
}

SETUP_REPS = 7  # one before training, the rest spread over the epochs
PROBE_EVERY_S = 0.25
PROBE_NOMINAL_S = 0.008  # the probe kernel's time on the reference host, unloaded
EVAL_BATCH = 256
CHECK_ROWS = 32  # instances whose logits are compared after each checkpoint load
ROLE_TRAIN, ROLE_HELDOUT, ROLE_MODEL, ROLE_IO = 0, 1, 2, 3


def derive_seed(seed: int, role: int) -> int:
    """Seed of one input stream (train file, held-out file, model, io file i)."""
    return int(np.random.SeedSequence([seed, role]).generate_state(1)[0])


def tape_len() -> int:
    tape = tensor.active_tape()
    return len(tape) if tape is not None else 0


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class HostProbe:
    """Times a fixed kernel, independent of dfaf, at most every PROBE_EVERY_S
    through the run. The host this benchmark runs on changes speed by up to
    40% for stretches of seconds to minutes; the probe slows with it, so
    ``slowdown`` (mean probe time over PROBE_NOMINAL_S) rescales the run's
    timings to the reference host speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((32, 12, 64))
        self.w = rng.standard_normal((64, 64)) * 0.1
        self.a = rng.standard_normal((192, 1024))
        self.b = rng.standard_normal((1024, 256))
        self.times: list[float] = []
        self.last = -math.inf

    def kernel(self):
        # Many small numpy calls, like a default-size step, and one BLAS
        # product, like a paper-size one.
        x, kept = self.x, []
        for _ in range(24):
            y = np.exp(x @ self.w)
            x = y / y.sum(axis=-1, keepdims=True)
            kept.append(x)
        return self.a @ self.b

    def maybe(self) -> None:
        started = time.perf_counter()
        if started - self.last < PROBE_EVERY_S:
            return
        self.kernel()
        self.last = time.perf_counter()
        self.times.append(self.last - started)

    @property
    def slowdown(self) -> float:
        return statistics.fmean(self.times) / PROBE_NOMINAL_S


# ---------------------------------------------------------------------------
# wrappers


def _backward_attrs(args, result) -> dict:
    tape = args[0]
    return {"tape_nodes": len(tape), "tape_bytes": sum(n.output.data.nbytes for n in tape.nodes)}


def _clip_attrs(args, result) -> dict:
    return {"rescaled": any(r is not g for r, g in zip(result, args[0]))}


def _write_attrs(args, result) -> dict:
    return {"n": len(args[1]), "bytes": os.path.getsize(args[0])}


def _result_count(args, result) -> dict:
    return {"n": len(result)}


def _save_attrs(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def wrappers(tracer: Tracer, layers: bool) -> list:
    """Replacements for module globals, patched where each name is looked up:
    ``training`` imports forward, backward, clip_gradients, adamax_step,
    make_batches and predict by name, and ``dfaf_block_forward`` finds
    inter_maf_forward and dyintra_maf_forward in ``attention``'s globals.
    Without ``layers`` only the two step stamps are installed."""
    t = tracer.timed if layers else (lambda name, fn, attrs=None: fn)
    reps = [
        (training, "forward", tracer.opens_step(t("model.forward", training.forward))),
        (training, "adamax_step", tracer.closes_step(t("training.adamax_step", training.adamax_step))),
    ]
    if not layers:
        return reps
    return reps + [
        (training, "cross_entropy_loss", t("model.cross_entropy_loss", training.cross_entropy_loss)),
        (training, "backward", t("tensor.backward", training.backward, _backward_attrs)),
        (training, "clip_gradients", t("training.clip_gradients", training.clip_gradients, _clip_attrs)),
        (training, "make_batches", tracer.timed_iter("training.make_batches", training.make_batches)),
        (training, "predict", t("model.predict", training.predict)),
        (training, "evaluate_accuracy", t("training.evaluate_accuracy", training.evaluate_accuracy)),
        (training, "evaluate_by_template", t("training.evaluate_by_template", training.evaluate_by_template)),
        (model, "embed_inputs", t("model.embed_inputs", model.embed_inputs)),
        (model, "fuse_and_classify", t("model.fuse_and_classify", model.fuse_and_classify)),
        (attention, "inter_maf_forward", t("attention.inter_maf_forward", attention.inter_maf_forward)),
        (attention, "dyintra_maf_forward", t("attention.dyintra_maf_forward", attention.dyintra_maf_forward)),
        (data, "generate_feature_dataset", t("data.generate_feature_dataset", data.generate_feature_dataset, _result_count)),
        (data, "write_feature_file", t("data.write_feature_file", data.write_feature_file, _write_attrs)),
        (data, "read_feature_file", t("data.read_feature_file", data.read_feature_file, _result_count)),
        (checkpoint, "save_checkpoint", t("checkpoint.save_checkpoint", checkpoint.save_checkpoint, _save_attrs)),
        (checkpoint, "load_checkpoint", t("checkpoint.load_checkpoint", checkpoint.load_checkpoint)),
    ]


# ---------------------------------------------------------------------------
# checks and counts


class Ops:
    """Operations attempted and failed, by kind; a failed check fails its op."""

    def __init__(self):
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.errors: list[str] = []

    def add(self, kind: str, n: int = 1) -> None:
        self.attempted[kind] += n

    def check(self, kind: str, ok: bool, what: str) -> None:
        if not ok:
            self.failed[kind] += 1
            self.errors.append(f"{kind}: {what}")


def same_dataset(a, b) -> bool:
    return (
        np.array_equal(a.regions, b.regions)
        and np.array_equal(a.tokens, b.tokens)
        and np.array_equal(a.answers, b.answers)
        and np.array_equal(a.template_ids, b.template_ids)
        and a.template_names == b.template_names
        and a.answer_names == b.answer_names
    )


def head(ds, n: int):
    return data.FeatureDataset(
        ds.regions[:n], ds.tokens[:n], ds.answers[:n], ds.template_ids[:n],
        ds.template_names, ds.answer_names,
    )


def logits_bytes(m, ds) -> bytes:
    pred = model.predict(tensor.Tensor(ds.regions), tensor.Tensor(ds.tokens), m)
    return pred.logits.data.tobytes()


def param_bytes(m) -> list[bytes]:
    return [p.data.tobytes() for p in m.parameters()]


def weighted_accuracy_ok(report: dict) -> bool:
    groups = [g for g in report["per_template"].values() if g["n"]]
    weighted = sum(g["n"] * g["accuracy"] for g in groups) / sum(g["n"] for g in groups)
    return abs(weighted - report["overall"]) <= 1e-12


# ---------------------------------------------------------------------------
# the session


@dataclass
class TrainRun:
    model: object
    rows: list
    wall_s: float  # training.train, less the time spent in on_epoch
    step_ms: list


@dataclass
class Record:
    """What the session measured, before it is turned into metrics."""

    epochs: int
    setup_s: list = field(default_factory=list)
    gen: list = field(default_factory=list)  # (instances, seconds) of each gen + write
    evals: list = field(default_factory=list)  # (instances, seconds) of each read + load + eval
    probe: HostProbe = field(default_factory=HostProbe)
    train: TrainRun | None = None
    ref_step_ms: list | None = None  # untraced steps of the same train phase, rescaled


def train_once(w, mcfg, train_ds, held_ds, epochs, seed, tracer, layers, ops, probe=None, on_epoch=None) -> TrainRun:
    """``training.train`` from a freshly built model, with the step stamps (and,
    with ``layers``, every layer wrapper) installed for the call; ``probe``
    runs after steps, outside them and outside the train time."""
    mdl = model.build_model(mcfg, np.random.default_rng(derive_seed(seed, ROLE_MODEL)))
    cfg = training.TrainConfig(
        epochs=epochs, batch_size=w.batch_size, seed=derive_seed(seed, ROLE_MODEL),
        eval_batch_size=EVAL_BATCH,
    )
    steps = epochs * math.ceil(len(train_ds) / w.batch_size)
    ops.add("step", steps)
    ops.add("eval", epochs)
    first = len(tracer.spans)
    aside = 0.0  # seconds spent in on_epoch and in probes, taken out of the train time

    def set_aside(fn):
        def wrapper(*args, **kwargs):
            nonlocal aside
            paused = time.perf_counter()
            result = fn(*args, **kwargs)
            aside += time.perf_counter() - paused
            return result

        return wrapper

    def probed(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            set_aside(probe.maybe)()
            return result

        return wrapper

    replacements = [
        (module, attr, probed(fn) if probe is not None and attr == "adamax_step" else fn)
        for module, attr, fn in wrappers(tracer, layers)
    ]
    with patched(replacements):
        started = time.perf_counter()
        rows, state = training.train(
            mdl, train_ds, cfg, eval_dataset=held_ds, on_epoch=set_aside(on_epoch or (lambda row: None))
        )
        wall = time.perf_counter() - started - aside
    step_ms = [s.ms for s in tracer.spans[first:] if s.name == Tracer.STEP]
    ops.check("step", len(step_ms) == steps == state.t, f"{len(step_ms)} steps stamped, {state.t} taken, {steps} expected")
    ops.check("eval", len(rows) == epochs, f"{len(rows)} eval rows for {epochs} epochs")
    return TrainRun(mdl, rows, wall, step_ms)


def check_identity(ops: Ops, plain: TrainRun, traced: TrainRun) -> None:
    ops.check(
        "step",
        param_bytes(plain.model) == param_bytes(traced.model)
        and plain.rows[-1]["train_loss"] == traced.rows[-1]["train_loss"],
        "traced and untraced runs on the same seed end with different parameters or loss",
    )


def session(w: Workload, seed: int, seconds: int, tracer: Tracer | None, workdir: Path, ops: Ops) -> Record:
    """One run of the workload; ``tracer`` None is the untraced run.

    Setup repetitions and io iterations run between training epochs, so that
    every timed quantity is sampled across the whole run rather than in one
    stretch of it.
    """
    traced = tracer is not None
    tracer = tracer or Tracer()
    rec = Record(epochs=w.epochs(seconds))
    io_iters = w.io_iters(seconds)

    def instrument():
        return patched(wrappers(tracer, True) if traced else [])

    def gen_write(role: int, n: int, path: Path):
        ops.add("gen")
        ops.add("write")
        with instrument():
            started = time.perf_counter()
            ds = data.generate_feature_dataset(data.ToyTaskSpec(seed=derive_seed(seed, role), **w.task), n)
            data.write_feature_file(str(path), ds)
            elapsed = time.perf_counter() - started
        return ds, (n, elapsed)

    train_path, held_path, io_path, ckpt_path = (
        workdir / name for name in ("train.dfft", "heldout.dfft", "io.dfft", "model.ckpt")
    )
    train_ds, _ = gen_write(ROLE_TRAIN, w.n_train, train_path)
    held_ds, _ = gen_write(ROLE_HELDOUT, w.n_heldout, held_path)
    mcfg = model.ModelConfig(n_answers=train_ds.n_answers, **w.model)

    def setup():
        ops.add("read", 2)
        with instrument():
            started = time.perf_counter()
            train_read = data.read_feature_file(str(train_path))
            held_read = data.read_feature_file(str(held_path))
            built = model.build_model(mcfg, np.random.default_rng(derive_seed(seed, ROLE_MODEL)))
            rec.setup_s.append(time.perf_counter() - started)
        ops.check("read", same_dataset(train_read, train_ds), "train file read back differs")
        ops.check("read", same_dataset(held_read, held_ds), "held-out file read back differs")
        rec.probe.maybe()
        return built

    # The checkpoint the io loop loads: the built model with a fresh Adamax
    # trailer, the same layout `dfaf train` writes.
    saved = setup()
    ops.add("save")
    with instrument():
        fresh = training.AdamaxState.for_params(saved.parameters())
        checkpoint.save_checkpoint(str(ckpt_path), saved, mcfg, fresh.as_checkpoint_trailer())
    del fresh

    def io_iteration(i: int) -> None:
        ops.add("read")
        ops.add("load")
        ops.add("eval")
        generated, timing = gen_write(ROLE_IO + i, w.n_io, io_path)
        rec.gen.append(timing)
        with instrument():
            started = time.perf_counter()
            ds = data.read_feature_file(str(io_path))
            loaded, _, _ = checkpoint.load_checkpoint(str(ckpt_path))
            report = training.evaluate_by_template(loaded, ds, EVAL_BATCH)
            rec.evals.append((len(ds), time.perf_counter() - started))
        ops.check("read", same_dataset(ds, generated), f"io file {i} read back differs")
        sample = head(ds, CHECK_ROWS)
        ops.check("load", logits_bytes(loaded, sample) == logits_bytes(saved, sample),
                  f"reloaded checkpoint gives other logits (io {i})")
        ops.check("eval", report["n"] == len(ds) and weighted_accuracy_ok(report),
                  f"per-template accuracy does not add up to overall (io {i})")
        rec.probe.maybe()

    done = {"io": 0, "setup": 1}

    def between_epochs(row: dict) -> None:
        share = row["epoch"] / rec.epochs
        while done["setup"] < round(SETUP_REPS * share):
            setup()
            done["setup"] += 1
        while done["io"] < round(io_iters * share):
            io_iteration(done["io"])
            done["io"] += 1

    if traced:
        ref_probe = HostProbe()
        plain = train_once(w, mcfg, train_ds, held_ds, rec.epochs, seed, Tracer(), False, ops, ref_probe)
        rec.ref_step_ms = [ms / ref_probe.slowdown for ms in plain.step_ms]
        rec.train = train_once(w, mcfg, train_ds, held_ds, rec.epochs, seed, tracer, True, ops, rec.probe, between_epochs)
        check_identity(ops, plain, rec.train)
        del plain
    else:
        rec.train = train_once(w, mcfg, train_ds, held_ds, rec.epochs, seed, tracer, False, ops, rec.probe, between_epochs)
        # The wrappers must not perturb the program: one step each way.
        small, small_held = head(train_ds, w.batch_size), head(held_ds, w.batch_size)
        plain = train_once(w, mcfg, small, small_held, 1, seed, Tracer(), False, ops)
        check_identity(ops, plain, train_once(w, mcfg, small, small_held, 1, seed, Tracer(tape_len), True, ops))
    return rec


# ---------------------------------------------------------------------------
# metrics


def _per_s(timings: list, slowdown: float) -> tuple:
    """Instances per second over all (instances, seconds) pairs, rescaled."""
    n = sum(k for k, _ in timings)
    return n / sum(t for _, t in timings) * slowdown, n


def end_to_end(w: Workload, rec: Record) -> dict:
    """name -> (value, sample count), for END_TO_END and REPORTED.

    Gated timings are totals over the run rescaled by the probe's slowdown
    (times divided, rates multiplied), so they read as on the reference host;
    the step-time percentiles are printed as measured."""
    t = rec.train
    slow = rec.probe.slowdown
    steps = percentiles(t.step_ms)
    trained = w.n_train * rec.epochs
    return {
        "setup_s": (statistics.median(rec.setup_s) / slow, len(rec.setup_s)),
        "train_samples_per_s": (trained / t.wall_s * slow, trained),
        "step_ms_mean": (statistics.fmean(t.step_ms) / slow, steps["n"]),
        "eval_instances_per_s": _per_s(rec.evals, slow),
        "gen_instances_per_s": _per_s(rec.gen, slow),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "mean_train_loss": (statistics.fmean(r["train_loss"] for r in t.rows), trained),
        "host_slowdown": (slow, len(rec.probe.times)),
        "step_ms_p10": (steps["p10"], steps["n"]),
        "step_ms_p50": (steps["p50"], steps["n"]),
        "step_ms_p90": (steps["p90"], steps["n"]),
        "final_train_loss": (t.rows[-1]["train_loss"], w.n_train),
        "heldout_acc": (t.rows[-1]["eval_acc"], w.n_heldout),
    }


def _roots(spans) -> dict:
    out: dict[str, list] = {}
    for s in spans:
        if s.parent is None:
            out.setdefault(s.name, []).append(s)
    return out


def step_rows(spans) -> list[dict]:
    """Per train step: each layer's time and tape growth within the step.
    A layer's node count is the tape growth during its calls."""
    kids = children_of(spans)
    traces = by_trace(spans)
    rows = []
    for step in _roots(spans).get(Tracer.STEP, []):
        members = traces[step.id]

        def within(*names):
            return [s for s in members if s.name in names]

        (bwd,) = within("tensor.backward")
        (fwd,) = within("model.forward")
        (clip,) = within("training.clip_gradients")
        (adamax,) = within("training.adamax_step")
        classify = within("model.fuse_and_classify", "model.cross_entropy_loss")
        inter = within("attention.inter_maf_forward")
        intra = within("attention.dyintra_maf_forward")
        embed = within("model.embed_inputs")
        rows.append({
            "tensor.tape_nodes": bwd.attrs["tape_nodes"],
            "tensor.tape_mb": bwd.attrs["tape_bytes"] / 1e6,
            "tensor.backward_ms": bwd.ms,
            "attention.inter_nodes": sum(s.nodes for s in inter),
            "attention.intra_nodes": sum(s.nodes for s in intra),
            "attention.inter_ms": sum(s.ms for s in inter),
            "attention.intra_ms": sum(s.ms for s in intra),
            "model.embed_nodes": sum(s.nodes for s in embed),
            "model.classify_nodes": sum(s.nodes for s in classify),
            "model.embed_ms": sum(s.ms for s in embed),
            "model.classify_ms": sum(s.ms for s in classify),
            "model.forward_self_ms": self_ms(fwd, kids.get(fwd.id, [])),
            "training.step_ms": step.ms,
            "training.step_self_ms": self_ms(step, kids.get(step.id, [])),
            "training.clip_ms": clip.ms,
            "training.adamax_ms": adamax.ms,
            "training.clip_rate": float(clip.attrs["rescaled"]),
        })
    return rows


def layer_metrics(spans, ref_step_ms, slowdown) -> dict:
    """name -> (value, sample count), from the traced run's spans. Step
    metrics are medians over train steps; clip_rate is a share of steps.
    ``trace_overhead`` compares mean step times, each rescaled by the host
    probe of its own run."""
    traces = by_trace(spans)
    roots = _roots(spans)

    def within(root, *names):
        return [s for s in traces[root.id] if s.name in names]

    rows = step_rows(spans)
    n_steps = len(rows)
    out = {k: (statistics.median(r[k] for r in rows), n_steps) for k in rows[0]}
    out["training.clip_rate"] = (statistics.fmean(r["training.clip_rate"] for r in rows), n_steps)

    evals = roots["training.evaluate_by_template"]
    for name, layer in (("attention.eval_inter_ms", "attention.inter_maf_forward"),
                        ("attention.eval_intra_ms", "attention.dyintra_maf_forward")):
        out[name] = (statistics.median(sum(s.ms for s in within(e, layer)) for e in evals), len(evals))
    for name, root in (("training.eval_template_ms", "training.evaluate_by_template"),
                       ("training.eval_ms", "training.evaluate_accuracy"),
                       ("training.batch_ms", "training.make_batches"),
                       ("checkpoint.load_ms", "checkpoint.load_checkpoint"),
                       ("checkpoint.save_ms", "checkpoint.save_checkpoint")):
        out[name] = (statistics.median(s.ms for s in roots[root]), len(roots[root]))

    def per_kinst(name: str, value) -> tuple:
        calls = [s for s in spans if s.name == name]
        n = sum(s.attrs["n"] for s in calls)
        return 1000 * sum(value(s) for s in calls) / n, n

    out["data.gen_ms"] = per_kinst("data.generate_feature_dataset", lambda s: s.ms)
    out["data.write_ms"] = per_kinst("data.write_feature_file", lambda s: s.ms)
    out["data.read_ms"] = per_kinst("data.read_feature_file", lambda s: s.ms)
    out["data.file_mb"] = per_kinst("data.write_feature_file", lambda s: s.attrs["bytes"] / 1e6)
    saves = roots["checkpoint.save_checkpoint"]
    out["checkpoint.file_mb"] = (saves[0].attrs["bytes"] / 1e6, len(saves))
    traced_mean = statistics.fmean(r["training.step_ms"] for r in rows) / slowdown
    out["trace_overhead"] = (traced_mean / statistics.fmean(ref_step_ms), len(ref_step_ms))
    return out


# ---------------------------------------------------------------------------
# entry point


def report(specs: dict, values: dict, note: str = "") -> dict:
    for name, (unit, better) in specs.items():
        value, n = values[name]
        print(f"  {name:<28} {value:>14.6g} {unit:<9} n={n:<7} ({better} is better{note})")
    return {name: {"value": values[name][0], "unit": specs[name][0]} for name in specs}


def run_one(args) -> int:
    w = WORKLOADS[args.workload]
    env = environment()
    print(f"# perfbench {w.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# env {json.dumps(env)}")
    ops = Ops()
    tracer = Tracer(tape_len) if args.trace else None
    (HERE / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=HERE / "work"))
    try:
        rec = session(w, args.seed, args.seconds, tracer, workdir, ops)
        values = layer_metrics(tracer.spans, rec.ref_step_ms, rec.probe.slowdown) if args.trace else end_to_end(w, rec)
    except Exception:  # the run reports the failure instead of a result
        traceback.print_exc()
        ops.add("session")
        ops.check("session", False, "session raised")
        rec = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = sum(ops.attempted.values()), sum(ops.failed.values())
    print(f"  ops attempted {dict(ops.attempted)} failed {dict(ops.failed)}")
    print(f"  error_rate {failed / attempted:.6g} ({failed}/{attempted})")
    for line in ops.errors:
        print(f"  FAILED {line}")
    if rec is None:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    metrics = report(PER_LAYER if args.trace else END_TO_END, values)
    if not args.trace:
        report(REPORTED, values, ", not gated")
    else:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{w.name}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": w.name, "seed": args.seed, "seconds": args.seconds, "env": env,
            "metrics": metrics,
            "spans": [s.as_dict() for s in tracer.spans],
        }))
        print(f"  spans written to {path.relative_to(HERE.parent)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, each in its own process so peak memory is its own."""
    results = {}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        results[name] = json.loads(lines[-1]) if lines else None
    ok = all(r is not None and r["correct"] for r in results.values())
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "metrics": {f"{name}/{k}": v for name, r in results.items() if r for k, v in r["metrics"].items()},
    }))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
