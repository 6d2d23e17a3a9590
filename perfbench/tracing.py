"""In-memory span tracer that wraps the library's public functions.

A span is (name, start, end, parent index). Wrappers are installed only for
the traced half of a ``--trace 1`` run and removed afterwards; an untraced
run installs none.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time


class Tracer:
    """Records nested spans in call order; single-threaded by design."""

    def __init__(self):
        self.spans: list = []        # (name, start, end, parent index or -1)
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def wrap(self, fn, name=None, namer=None, counter=None):
        """Return fn wrapped in a span. namer(args, kwargs) may pick the span
        name per call; counter(args, kwargs) adds to counts[name]."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            if counter is not None:
                counts[label] = counts.get(label, 0.0) + counter(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent)

        return traced

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.spans, self.counts)


@contextlib.contextmanager
def install(tracer: Tracer, targets):
    """Wrap each target for the duration of the block.

    targets: iterable of (owner, attribute, span name, namer, counter).
    A module-level function is replaced in every ``pslstm`` module that
    binds it, so calls through ``from .x import f`` names are traced too.
    """
    patched = []
    try:
        for owner, attr, name, namer, counter in targets:
            original = getattr(owner, attr)
            wrapper = tracer.wrap(original, name, namer, counter)
            if isinstance(owner, type):
                homes = [owner]
            else:
                homes = [m for key, m in list(sys.modules.items())
                         if (key == "pslstm" or key.startswith("pslstm."))
                         and m is not None]
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is original:
                        setattr(home, key, wrapper)
                        patched.append((home, key, original))
        yield tracer
    finally:
        for home, key, original in reversed(patched):
            setattr(home, key, original)


class SpanSummary:
    """Per-name durations and self times derived from a span list."""

    def __init__(self, spans, counts):
        self.spans = spans
        self.counts = dict(counts)
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self.durations: dict[str, list[float]] = {}
        self.self_total: dict[str, float] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            self.durations.setdefault(name, []).append(dur)
            self.self_total[name] = (self.self_total.get(name, 0.0)
                                     + dur - child[i])

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total(self, *names: str) -> float:
        return sum(sum(self.durations.get(n, ())) for n in names)

    def median(self, name: str) -> float:
        durs = self.durations.get(name)
        return statistics.median(durs) if durs else 0.0

    def self_per_call(self, name: str) -> float:
        n = self.calls(name)
        return self.self_total.get(name, 0.0) / n if n else 0.0

    def calls_under(self, name: str, parents: tuple[str, ...]) -> int:
        """Spans called name whose direct parent span is one of parents."""
        spans = self.spans
        return sum(1 for s in spans
                   if s[0] == name and s[3] >= 0 and spans[s[3]][0] in parents)

    def total_under(self, name: str, parents: tuple[str, ...]) -> float:
        spans = self.spans
        return sum(s[2] - s[1] for s in spans
                   if s[0] == name and s[3] >= 0 and spans[s[3]][0] in parents)
