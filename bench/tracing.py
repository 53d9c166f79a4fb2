"""Spans and counters that the benchmark records around its own calls into rafpref.

Nothing here reaches inside the package: a span wraps one call the
benchmark makes into a public function, and comparator calls are counted
by a relation that delegates to the real one. Untraced passes use
``NullTracer``, which records nothing and hands relations through as they
are, so the timed code path is the same apart from the tracing itself.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

from rafpref import PreferenceRelation


@dataclass
class Span:
    name: str
    case: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level

    @property
    def seconds(self) -> float:
        return self.end - self.start


class CountingRelation(PreferenceRelation):
    """Delegates every comparison to ``inner`` and counts calls and time."""

    def __init__(self, inner: PreferenceRelation, tracer: "Tracer") -> None:
        self.inner = inner
        self.name = inner.name
        self.tracer = tracer

    def compare(self, a, b):
        started = time.perf_counter()
        out = self.inner.compare(a, b)
        self.tracer.compare_s += time.perf_counter() - started
        self.tracer.compare_calls += 1
        return out


class NullTracer:
    """Records nothing; used for the passes that give end-to-end numbers."""

    enabled = False
    case = ""

    def span(self, name: str):
        return contextlib.nullcontext()

    def relation(self, rel: PreferenceRelation) -> PreferenceRelation:
        return rel

    def count_checks(self, report) -> None:
        pass

    def count_verify(self, report) -> None:
        pass

    def count_output(self, nbytes: int) -> None:
        pass


@dataclass
class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    enabled = True
    case: str = ""
    spans: list[Span] = field(default_factory=list)
    compare_calls: int = 0
    compare_s: float = 0.0
    qualifying: int = 0
    examined: int = 0
    violations: int = 0
    checked: int = 0
    survivors: int = 0
    output_bytes: int = 0
    _open: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(Span(name, self.case, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def relation(self, rel: PreferenceRelation) -> PreferenceRelation:
        return CountingRelation(rel, self)

    def count_checks(self, report) -> None:
        for r in report.results:
            self.qualifying += r.qualifying
            self.examined += r.tuples_examined
            self.violations += r.violation_count

    def count_verify(self, report) -> None:
        self.checked += report.checked
        self.survivors += report.survivor_count

    def count_output(self, nbytes: int) -> None:
        self.output_bytes += nbytes

    def seconds(self, name: str, case: str | None = None) -> float:
        """Total time of the spans with this name, optionally of one case."""
        return sum(
            s.seconds
            for s in self.spans
            if s.name == name and (case is None or s.case == case)
        )
