"""Tests of the benchmark itself: span arithmetic, wrappers and reporting.

    python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import pytest

import run
from run import attention, checkpoint, data, model, training
from spans import Span, Tracer, covered_ns, patched, percentiles, self_ms

TINY = run.Workload(
    "tiny", {}, {}, batch_size=8, n_train=16, n_heldout=8, n_io=8,
    epochs_per_10s=20, io_iters_per_10s=20,
)


def span(start, end, parent=0):
    return Span(id=-1, name="child", parent=parent, trace=0, start_ns=start, end_ns=end)


def test_self_time_subtracts_union_of_overlapping_and_nested_children():
    parent = Span(0, "parent", None, 0, 0, 100_000_000)
    children = [
        span(10_000_000, 30_000_000),
        span(20_000_000, 40_000_000),  # overlaps the first
        span(25_000_000, 35_000_000),  # nested inside both
        span(60_000_000, 70_000_000),
        span(95_000_000, 120_000_000),  # runs past the parent's end
    ]
    assert covered_ns(0, 100_000_000, children) == 30_000_000 + 10_000_000 + 5_000_000
    assert self_ms(parent, children) == pytest.approx(55.0)
    assert self_ms(parent, []) == pytest.approx(100.0)


def test_spans_record_parent_and_trace_ids():
    tracer = Tracer()

    def inner():
        return "x"

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_inner = tracer.timed("inner", inner)
    wrapped_outer = tracer.timed("outer", outer)
    assert wrapped_outer() == "xx"
    assert wrapped_outer() == "xx"
    first, a, b, second, c, d = tracer.spans
    assert [s.name for s in tracer.spans] == ["outer", "inner", "inner"] * 2
    assert first.parent is None and second.parent is None
    assert a.parent == b.parent == first.id and c.parent == d.parent == second.id
    assert a.trace == b.trace == first.trace == first.id
    assert c.trace == d.trace == second.id != first.id
    assert all(s.start_ns <= s.end_ns for s in tracer.spans)
    assert first.start_ns <= a.start_ns and b.end_ns <= first.end_ns


def test_timed_iter_makes_one_span_per_item():
    tracer = Tracer()
    items = list(tracer.timed_iter("gen", lambda n: iter(range(n)))(3))
    assert items == [0, 1, 2]
    assert [s.name for s in tracer.spans] == ["gen"] * 3


def test_percentiles_report_sample_count():
    values = list(range(1, 101))
    out = percentiles(values)
    assert out["n"] == 100
    assert out["p50"] == pytest.approx(50.5)
    assert out["p90"] == pytest.approx(90.1)
    assert out["p10"] == pytest.approx(10.9)
    assert percentiles([7.0]) == {"p10": 7.0, "p50": 7.0, "p90": 7.0, "n": 1}
    with pytest.raises(ValueError):
        percentiles([])


def test_report_prints_unit_and_sample_count(capsys):
    specs = {"step_ms_p50": ("ms", "lower")}
    metrics = run.report(specs, {"step_ms_p50": (12.5, 40)})
    assert metrics == {"step_ms_p50": {"value": 12.5, "unit": "ms"}}
    line = capsys.readouterr().out
    assert "step_ms_p50" in line and "ms" in line and "n=40" in line


def test_wrappers_are_installed_then_restored():
    targets = [(module, attr) for module, attr, _ in run.wrappers(Tracer(), True)]
    originals = {(m, a): getattr(m, a) for m, a in targets}
    assert {m for m, _ in targets} == {training, model, attention, data, checkpoint}
    with patched(run.wrappers(Tracer(), True)):
        assert all(getattr(m, a) is not originals[(m, a)] for m, a in targets)
    assert all(getattr(m, a) is originals[(m, a)] for m, a in targets)

    with pytest.raises(RuntimeError):
        with patched(run.wrappers(Tracer(), True)):
            raise RuntimeError("boom")
    assert all(getattr(m, a) is originals[(m, a)] for m, a in targets)


def traced_tiny_session(tmp_path):
    ops = run.Ops()
    tracer = Tracer(run.tape_len)
    rec = run.session(TINY, 3, 1, tracer, tmp_path, ops)
    return ops, rec, tracer


def test_layer_node_counts_sum_to_tape_nodes(tmp_path):
    ops, rec, tracer = traced_tiny_session(tmp_path)
    rows = run.step_rows(tracer.spans)
    assert len(rows) == len(rec.train.step_ms) == 4
    for row in rows:
        layers = sum(row[k] for k in (
            "model.embed_nodes", "attention.inter_nodes", "attention.intra_nodes", "model.classify_nodes",
        ))
        assert row["tensor.tape_nodes"] == layers > 0


def test_traced_session_reports_every_layer_metric_and_restores_globals(tmp_path):
    targets = [(module, attr) for module, attr, _ in run.wrappers(Tracer(), True)]
    originals = [getattr(m, a) for m, a in targets]
    ops, rec, tracer = traced_tiny_session(tmp_path)
    assert [getattr(m, a) for m, a in targets] == originals
    assert sum(ops.failed.values()) == 0, ops.errors
    assert {"step", "eval", "gen", "write", "read", "save", "load"} <= set(ops.attempted)
    values = run.layer_metrics(tracer.spans, rec.ref_step_ms, rec.probe.slowdown)
    assert set(values) == set(run.PER_LAYER)
    assert values["tensor.tape_nodes"][0] == 213


def test_untraced_session_reports_every_end_to_end_metric(tmp_path):
    ops = run.Ops()
    rec = run.session(TINY, 3, 1, None, tmp_path, ops)
    assert sum(ops.failed.values()) == 0, ops.errors
    values = run.end_to_end(TINY, rec)
    assert set(values) == set(run.END_TO_END) | set(run.REPORTED)
    assert all(values[name][0] > 0 for name in run.END_TO_END)
    assert values["step_ms_mean"][1] == 4


def test_gated_timings_are_rescaled_by_the_host_probe(tmp_path):
    rec = run.session(TINY, 3, 1, None, tmp_path, run.Ops())
    assert rec.probe.times
    rec.probe.times = [2 * run.PROBE_NOMINAL_S]
    values = run.end_to_end(TINY, rec)
    assert values["host_slowdown"][0] == pytest.approx(2.0)
    assert values["step_ms_mean"][0] == pytest.approx(sum(rec.train.step_ms) / len(rec.train.step_ms) / 2)
    assert values["setup_s"][0] == pytest.approx(sorted(rec.setup_s)[len(rec.setup_s) // 2] / 2)
    n, seconds = map(sum, zip(*rec.evals))
    assert values["eval_instances_per_s"][0] == pytest.approx(2 * n / seconds)


def test_identity_check_flags_a_perturbed_model(tmp_path):
    ops = run.Ops()
    rec = run.session(TINY, 3, 1, None, tmp_path, ops)
    other = run.TrainRun(model.build_model(run.model.config_of(rec.train.model), run.np.random.default_rng(99)),
                         rec.train.rows, rec.train.wall_s, rec.train.step_ms)
    run.check_identity(ops, rec.train, other)
    assert ops.failed["step"] == 1


def test_benchmark_json_matches_the_harness():
    path = Path(run.HERE).parent / "BENCHMARK.json"
    if not path.exists():
        pytest.skip("BENCHMARK.json sits at the repository root")
    spec = json.loads(path.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
