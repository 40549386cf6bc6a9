#!/usr/bin/env python3
"""A/B comparison of two revisions on one benchmark workload.

    python3 tools/ab.py BASE HEAD --workload train-paper --pairs 10 --seed 700

BASE and HEAD are git tree-ishes (a commit, a branch, or a tree from
``git write-tree``). Each is exported with ``git archive`` into a fresh
directory, as the committed files alone, and the benchmark command that
BASE's ``BENCHMARK.json`` declares runs there with ``--workload``, ``--seed``
and ``--seconds``. Pair i runs both sides on seed ``--seed`` + i, BASE first
in even pairs and HEAD first in odd ones, because the second run of a pair
reads slower.

For every end-to-end metric of BASE's ``BENCHMARK.json`` it prints the
per-pair values, each side's median and quartiles, the pairs HEAD won (ties
count for neither), the median gap against BASE's interquartile range, and
whether HEAD's median is within the metric's bound. A gain holds when HEAD
wins at least nine tenths of the pairs and the gap exceeds BASE's IQR. It
also says whether ``mean_train_loss`` was bitwise equal in every pair, and
how many operations failed on each side.
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SIDES = ("base", "head")


def export(rev: str, dest: Path) -> Path:
    """The committed files of ``rev`` in a new directory ``dest``."""
    blob = subprocess.run(
        ["git", "archive", "--format=tar", rev], check=True, capture_output=True
    ).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def bench_runner(root: Path, command: list[str], workload: str, seconds: int):
    """A runner for one checkout: seed -> the benchmark's last-line JSON."""

    def run(seed: int) -> dict:
        args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
        proc = subprocess.run([*command, *args], cwd=root, capture_output=True, text=True)
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            result = {}
        if not result.get("metrics"):
            raise RuntimeError(f"benchmark in {root} gave no metrics:\n{proc.stdout}{proc.stderr}")
        return result

    return run


def run_pairs(runners: dict[str, Callable[[int], dict]], pairs: int, seed: int,
              log: Callable[[str], None] = lambda line: None) -> list[dict[str, dict]]:
    """``pairs`` pairs of results {side: result}, alternating which side runs first."""
    out = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in order:
            pair[side] = runners[side](seed + i)
            log(f"pair {i} seed {seed + i} {side}: failed {pair[side]['failed']}")
        out.append(pair)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


@dataclass
class MetricSummary:
    name: str
    unit: str
    better: str
    bound: float
    base: list[float]
    head: list[float]

    @property
    def base_q(self) -> tuple[float, float, float]:
        return quartiles(self.base)

    @property
    def head_q(self) -> tuple[float, float, float]:
        return quartiles(self.head)

    def improves(self, base: float, head: float) -> bool:
        return head < base if self.better == "lower" else head > base

    @property
    def wins(self) -> int:
        return sum(self.improves(b, h) for b, h in zip(self.base, self.head))

    @property
    def gap(self) -> float:
        """HEAD's median minus BASE's, signed so that positive is better."""
        base, head = self.base_q[1], self.head_q[1]
        return base - head if self.better == "lower" else head - base

    @property
    def base_iqr(self) -> float:
        q1, _, q3 = self.base_q
        return q3 - q1

    @property
    def change(self) -> float:
        """Relative change of the median, signed so that positive is better."""
        return self.gap / abs(self.base_q[1])

    @property
    def within_bound(self) -> bool:
        return self.change >= -self.bound

    @property
    def gain(self) -> bool:
        return 10 * self.wins >= 9 * len(self.base) and self.gap > self.base_iqr


def summarize(results: list[dict[str, dict]], end_to_end: list[dict]) -> list[MetricSummary]:
    return [
        MetricSummary(
            spec["name"], spec["unit"], spec["better"], spec["bound"],
            *([pair[side]["metrics"][spec["name"]]["value"] for pair in results] for side in SIDES),
        )
        for spec in end_to_end
    ]


def report(results: list[dict[str, dict]], end_to_end: list[dict]) -> list[str]:
    lines = []
    fmt = lambda values: " ".join(f"{v:.6g}" for v in values)
    for m in summarize(results, end_to_end):
        lines += [
            f"{m.name} ({m.unit}, {m.better} is better, bound {m.bound:.0%})",
            f"  base  {fmt(m.base)}",
            f"  head  {fmt(m.head)}",
            f"  median base {m.base_q[1]:.6g} (q1 {m.base_q[0]:.6g}, q3 {m.base_q[2]:.6g})"
            f"  head {m.head_q[1]:.6g} (q1 {m.head_q[0]:.6g}, q3 {m.head_q[2]:.6g})"
            f"  change {m.change:+.1%} (positive is better)",
            f"  head better in {m.wins}/{len(m.base)} pairs; gap {m.gap:.6g} vs base IQR "
            f"{m.base_iqr:.6g}; gain {'holds' if m.gain else 'not shown'}; "
            f"within bound: {'yes' if m.within_bound else 'NO'}",
        ]
    losses = [tuple(pair[s]["metrics"]["mean_train_loss"]["value"] for s in SIDES) for pair in results]
    equal = sum(b == h for b, h in losses)
    lines.append(f"mean_train_loss bitwise equal in {equal}/{len(losses)} pairs")
    for side in SIDES:
        failed = sum(pair[side]["failed"] for pair in results)
        attempted = sum(pair[side]["attempted"] for pair in results)
        lines.append(f"{side} failed {failed} of {attempted} operations")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--seconds", type=int, help="run length (default: BENCHMARK.json)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    work = Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        roots = {side: export(rev, work / side) for side, rev in zip(SIDES, (args.base, args.head))}
        bench = json.loads((roots["base"] / "BENCHMARK.json").read_text())
        seconds = args.seconds or bench["run_seconds"]
        runners = {
            side: bench_runner(root, bench["command"], args.workload, seconds)
            for side, root in roots.items()
        }
        print(f"# ab {args.base} vs {args.head}: {args.workload}, {args.pairs} pairs, "
              f"seeds {args.seed}-{args.seed + args.pairs - 1}, {seconds} s per run")
        results = run_pairs(runners, args.pairs, args.seed,
                            log=lambda line: print(f"# {line}", file=sys.stderr, flush=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(report(results, bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
