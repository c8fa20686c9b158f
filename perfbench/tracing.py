"""In-memory spans around the benchmark's calls into the package.

A span records a name, start and end (monotonic ns, comparable across
processes on one host), the span that caused it, the op it belongs to,
whether it is a probe, and whether the call raised. Probes are extra calls
made only in the traced run, on the same input as a composite call, so
that the composite's self time (its duration minus its probes) can be read
off. Spans stay in memory until the run summarises them.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    op: int
    probe: bool
    error: bool = False

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class _Open:
    __slots__ = ("span", "index")

    def __init__(self, span: Span, index: int):
        self.span = span
        self.index = index

    def __enter__(self) -> int:
        self.span.start = time.monotonic_ns()
        return self.index

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.end = time.monotonic_ns()
        self.span.error = exc_type is not None
        return False


class _Null:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL = _Null()


class Tracer:
    """Span recorder; a disabled one records nothing and costs one `with`.

    Besides spans it keeps derived durations (a layer time computed from
    several spans, in seconds) and computed counts, each a list of
    per-call values keyed by metric name.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.derived: dict[str, list[float]] = {}
        self.counts: dict[str, list[float]] = {}
        self.op = 0

    def span(self, name: str, parent: int | None = None, probe: bool = False):
        """Context manager timing one call; `with` yields the span's index."""
        if not self.enabled:
            return _NULL
        span = Span(name, 0, 0, parent, self.op, probe)
        self.spans.append(span)
        return _Open(span, len(self.spans) - 1)

    def add(self, name: str, start: int, end: int, parent: int | None = None) -> int:
        """Record a span timed elsewhere, such as inside a child process."""
        self.spans.append(Span(name, start, end, parent, self.op, False))
        return len(self.spans) - 1

    def derive(self, name: str, seconds: float) -> None:
        if self.enabled:
            self.derived.setdefault(name, []).append(seconds)

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts.setdefault(name, []).append(value)


def layer_summary(durations: list[float], errors: int = 0) -> dict:
    """busy_s, p50_ms, calls and errors of one layer, from durations in s."""
    return {
        "busy_s": float(sum(durations)),
        "p50_ms": statistics.median(durations) * 1e3 if durations else 0.0,
        "calls": len(durations),
        "errors": errors,
    }


def summarise(tracer: Tracer) -> dict[str, dict]:
    """Per-name layer summaries, plus `<name>_self` for every span with probes."""
    spans = tracer.spans
    by_name: dict[str, list[Span]] = {}
    probe_time: dict[int, float] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        if span.probe and span.parent is not None:
            probe_time[span.parent] = probe_time.get(span.parent, 0.0) + span.seconds
    out = {
        name: layer_summary([s.seconds for s in group], sum(s.error for s in group))
        for name, group in by_name.items()
    }
    selves: dict[str, list[float]] = {}
    for index, probes in probe_time.items():
        span = spans[index]
        selves.setdefault(span.name + "_self", []).append(span.seconds - probes)
    for name, durations in {**selves, **tracer.derived}.items():
        out[name] = layer_summary(durations)
    return out


def op_time_without_probes(tracer: Tracer) -> float:
    """Seconds inside the op spans, less the probe spans they contain."""
    total = sum(s.seconds for s in tracer.spans if s.name == "op")
    return total - sum(s.seconds for s in tracer.spans if s.probe)
