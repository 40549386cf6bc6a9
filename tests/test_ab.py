"""``tools/ab.py``: pair order and statistics, from a stub runner with given
numbers (no benchmark runs and no timing)."""

import importlib.util
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
