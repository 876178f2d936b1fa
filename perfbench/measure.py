"""Arithmetic the harness reports with: shares, span self time and child
peak RSS.  Pure functions, so the unit tests can pin them down."""

from __future__ import annotations

from dataclasses import dataclass, field


def share(part: float, whole: float) -> float:
    """part / whole, defined as 0 when the whole is 0 (nothing happened)."""
    return part / whole if whole else 0.0


def rss_mb(ru_maxrss_kib: int) -> float:
    """Peak resident set in MiB from a Linux rusage ru_maxrss, which is in KiB."""
    return ru_maxrss_kib / 1024


@dataclass
class Span:
    """One timed call: its name, interval, and the index of the enclosing span."""

    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    error: str | None = None  # exception class name when the call raised
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Spans come from one thread, so the children of a span are disjoint
    intervals inside it and the time they cover is the sum of their
    durations.  A repeated call is a separate span and subtracts separately.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out
