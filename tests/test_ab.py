"""``tools/ab.py``: pair order and statistics, from a stub runner with given
numbers (no benchmark runs and no timing)."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

END_TO_END = [
    {"name": "step_ms_mean", "unit": "ms", "better": "lower", "bound": 0.15},
    {"name": "eval_instances_per_s", "unit": "inst/s", "better": "higher", "bound": 0.22},
    {"name": "mean_train_loss", "unit": "nats", "better": "lower", "bound": 0.2},
]


def result(step, evals, loss, failed=0):
    values = {"step_ms_mean": step, "eval_instances_per_s": evals, "mean_train_loss": loss}
    return {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()},
    }


def stub_pairs(base: dict, head: dict, pairs: int, seed: int = 50):
    """run_pairs over runners that read their result from a per-seed table
    and record the order they were called in."""
    calls = []

    def runner(side, table):
        def run(s):
            calls.append((side, s))
            return table[s - seed]

        return run

    runners = {"base": runner("base", base), "head": runner("head", head)}
    return ab.run_pairs(runners, pairs, seed), calls


def test_pairs_alternate_which_side_runs_first_and_share_a_seed():
    table = [result(1.0, 1.0, 1.0)] * 4
    results, calls = stub_pairs(table, table, 4)
    assert calls == [
        ("base", 50), ("head", 50),
        ("head", 51), ("base", 51),
        ("base", 52), ("head", 52),
        ("head", 53), ("base", 53),
    ]
    assert len(results) == 4 and all(set(p) == {"base", "head"} for p in results)


def test_statistics_wins_iqr_gain_and_bound():
    # Base eval rates 20..29 and head 30..39 (every pair a win); the
    # step time ties in pair 0 and is worse by 20% elsewhere.
    base = [result(100.0, 20.0 + i, 1.5) for i in range(10)]
    head = [result(100.0 if i == 0 else 120.0, 30.0 + i, 1.5 if i < 9 else 1.25) for i in range(10)]
    results, _ = stub_pairs(base, head, 10)
    step, evals, loss = ab.summarize(results, END_TO_END)

    assert evals.base_q == (22.25, 24.5, 26.75)
    assert evals.head_q == (32.25, 34.5, 36.75)
    assert evals.wins == 10
    assert evals.base_iqr == pytest.approx(4.5)
    assert evals.gap == pytest.approx(10.0)
    assert evals.change == pytest.approx(10.0 / 24.5)
    assert evals.gain and evals.within_bound

    # Lower is better: worse by 20% against a 15% bound, and the tie in
    # pair 0 counts for neither side.
    assert step.wins == 0
    assert step.change == pytest.approx(-0.2)
    assert not step.gain and not step.within_bound

    assert loss.wins == 1 and not loss.gain

    lines = ab.report(results, END_TO_END)
    assert "mean_train_loss bitwise equal in 9/10 pairs" in lines
    assert "base failed 0 of 1000 operations" in lines
    assert any("head better in 10/10 pairs" in line and "gain holds" in line for line in lines)
    assert any("within bound: NO" in line for line in lines)


def test_nine_of_ten_wins_is_enough_but_a_gap_inside_the_iqr_is_not():
    # Head is better in pairs 0-8 by 0.5 and worse in pair 9: 9 wins, but the
    # median gap (0.5) does not exceed the base IQR (4.5).
    base = [result(1.0, 20.0 + i, 1.0) for i in range(10)]
    head = [result(1.0, 20.5 + i if i < 9 else 10.0, 1.0) for i in range(10)]
    results, _ = stub_pairs(base, head, 10)
    evals = ab.summarize(results, END_TO_END)[1]
    assert evals.wins == 9
    assert evals.gap < evals.base_iqr and not evals.gain
    # With the same wins and a gap above the IQR, the gain holds.
    head = [result(1.0, 30.0 + i if i < 9 else 10.0, 1.0) for i in range(10)]
    results, _ = stub_pairs(base, head, 10)
    assert ab.summarize(results, END_TO_END)[1].gain


def test_a_base_spread_wider_than_the_bound_leaves_the_verdict_unresolved():
    # Base step times 80..125 ms: IQR 22.5 against 15% of the median 102.5.
    base = [result(80.0 + 5 * i, 1.0, 1.0) for i in range(10)]

    def step_summary(head_steps):
        head = [result(v, 1.0, 1.0) for v in head_steps]
        results, _ = stub_pairs(base, head, 10)
        return ab.summarize(results, END_TO_END)[0], ab.report(results, END_TO_END)

    # 1 ms worse in every pair: within the bound, but the spread hides it.
    step, lines = step_summary([81.0 + 5 * i for i in range(10)])
    assert step.base_iqr > 0.15 * step.base_q[1]
    assert step.within_bound and step.unresolved
    assert any(line.endswith("within bound: unresolved") for line in lines)
    # Better in every pair is not enough while the runs overlap.
    step, _ = step_summary([79.0 + 5 * i for i in range(10)])
    assert step.wins == 10 and step.unresolved
    # Every head run below every base run resolves it.
    step, lines = step_summary([70.0 - i for i in range(10)])
    assert not step.unresolved
    assert any(line.endswith("within bound: yes") for line in lines)


# A stand-in benchmark that prints its not-gated lines with perfbench/run.py's
# own ``report``, then its JSON, as run.py does.
FAKE_BENCH = """
import json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import run
seed = int(sys.argv[sys.argv.index("--seed") + 1])
values = {{name: (0.5 + seed / 100, 3) for name in run.REPORTED}}
run.report(run.REPORTED, values, ", not gated")
print(json.dumps({{"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {{"mean_train_loss": {{"value": 1.0, "unit": "nats"}}}}}}))
"""


def test_host_slowdown_is_parsed_from_the_not_gated_lines_and_reported(tmp_path):
    root = _PATH.parent.parent
    (tmp_path / "bench.py").write_text(
        FAKE_BENCH.format(perfbench=str(root / "perfbench"), src=str(root / "src"))
    )
    run = ab.bench_runner(tmp_path, [sys.executable, "bench.py"], "any", 1)
    results = ab.run_pairs({"base": run, "head": run}, 3, seed=20)
    assert [p["head"]["not_gated"]["host_slowdown"] for p in results] == [0.7, 0.71, 0.72]

    lines = ab.report(results, END_TO_END[2:])
    at = lines.index("host_slowdown (not gated)")
    assert lines[at + 1] == "  base  0.7 0.71 0.72  median 0.71 (q1 0.705, q3 0.715)"
    assert lines[at + 2].startswith("  head  0.7 0.71 0.72  median 0.71")

    del results[1]["head"]["not_gated"]["host_slowdown"]
    assert "host_slowdown (not gated): not printed in every run" in ab.report(
        results, END_TO_END[2:]
    )


def test_step_ms_p50_is_reported_unscaled_beside_host_slowdown(tmp_path):
    root = _PATH.parent.parent
    (tmp_path / "bench.py").write_text(
        FAKE_BENCH.format(perfbench=str(root / "perfbench"), src=str(root / "src"))
    )
    run = ab.bench_runner(tmp_path, [sys.executable, "bench.py"], "any", 1)
    results = ab.run_pairs({"base": run, "head": run}, 3, seed=30)
    assert [p["base"]["not_gated"]["step_ms_p50"] for p in results] == [0.8, 0.81, 0.82]

    lines = ab.report(results, END_TO_END[2:])
    slowdown, p50 = lines.index("host_slowdown (not gated)"), lines.index("step_ms_p50 (not gated)")
    assert p50 == slowdown + 3
    assert lines[p50 + 1] == "  base  0.8 0.81 0.82  median 0.81 (q1 0.805, q3 0.815)"
    assert lines[p50 + 2].startswith("  head  0.8 0.81 0.82  median 0.81")
