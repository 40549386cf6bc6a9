"""Spans recorded from outside the program, and the arithmetic on them.

A span is one timed call: a name, a start, an end, the span that was open
when it started (its parent) and a trace id shared by every span below the
same top-level span, so all spans of one train step or one eval call carry
the same trace id. Spans are kept in memory; the caller writes them out.

Wrappers are installed by replacing module globals where the program looks
them up (``patched``), and the originals are put back when the block ends.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Sequence


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    trace: int
    start_ns: int
    end_ns: int = 0
    nodes: int | None = None  # tape nodes recorded during the call
    attrs: dict | None = None

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6

    def as_dict(self) -> dict:
        return asdict(self)


class Tracer:
    """Keeps spans in call order; ``counter`` (if given) reads a running count,
    such as the active tape's length, before and after each wrapped call."""

    STEP = "training.step"

    def __init__(self, counter: Callable[[], int] | None = None):
        self.spans: list[Span] = []
        self.counter = counter
        self._open: list[Span] = []
        self._step: Span | None = None

    def open(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        sid = len(self.spans)
        span = Span(
            sid,
            name,
            parent.id if parent is not None else None,
            parent.trace if parent is not None else sid,
            time.perf_counter_ns(),
        )
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        if not self._open or self._open[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        self._open.pop()

    def discard(self, span: Span) -> None:
        """Drop the newest span, which must be open and have no children."""
        if self.spans[-1] is not span or self._open[-1] is not span:
            raise RuntimeError(f"span {span.name} is not the newest open span")
        self.spans.pop()
        self._open.pop()

    def timed(self, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
        """Wrap ``fn`` in a span; ``attrs(args, result)`` may add fields."""

        def wrapper(*args, **kwargs):
            before = self.counter() if self.counter is not None else None
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if before is not None:
                span.nodes = self.counter() - before
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return wrapper

    def timed_iter(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator function so that each item it yields is a span."""

        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                span = self.open(name)
                try:
                    item = next(items)
                except StopIteration:
                    self.discard(span)
                    return
                self.close(span)
                yield item

        return wrapper

    def opens_step(self, fn: Callable) -> Callable:
        """The call into ``fn`` starts a train step if none is open."""

        def wrapper(*args, **kwargs):
            if self._step is None:
                self._step = self.open(self.STEP)
            return fn(*args, **kwargs)

        return wrapper

    def closes_step(self, fn: Callable) -> Callable:
        """The return from ``fn`` ends the open train step."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._step is not None:
                self.close(self._step)
                self._step = None
            return result

        return wrapper


@contextmanager
def patched(replacements: Iterable[tuple[object, str, Callable]]):
    """Set each ``module.attr`` to its replacement; restore all on exit."""
    replacements = list(replacements)
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, new in replacements:
            setattr(module, attr, new)
        yield
    finally:
        for module, attr, old in reversed(saved):
            setattr(module, attr, old)


def covered_ns(start: int, end: int, children: Iterable[Span]) -> int:
    """Length of [start, end) covered by the union of the children's
    intervals; overlapping children count once."""
    total = 0
    run_start = run_end = None
    for lo, hi in sorted((max(c.start_ns, start), min(c.end_ns, end)) for c in children):
        if hi <= lo:
            continue
        if run_end is None or lo > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = lo, hi
        else:
            run_end = max(run_end, hi)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_ms(span: Span, children: Iterable[Span]) -> float:
    """A span's duration minus the part its children cover."""
    return (span.end_ns - span.start_ns - covered_ns(span.start_ns, span.end_ns, children)) / 1e6


def children_of(spans: Sequence[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(s.parent, []).append(s)
    return out


def by_trace(spans: Sequence[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for s in spans:
        out.setdefault(s.trace, []).append(s)
    return out


def percentiles(values: Sequence[float]) -> dict:
    """10th, 50th and 90th percentiles (linear between ranks) and the count."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        v = float(values[0])
        return {"p10": v, "p50": v, "p90": v, "n": 1}
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return {"p10": deciles[0], "p50": deciles[4], "p90": deciles[-1], "n": len(values)}
