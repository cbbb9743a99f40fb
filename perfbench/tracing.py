"""Span tracing for the benchmark's traced runs.

Public library functions are wrapped where they are looked up (a module
global that the caller resolves at call time), not where they are defined:
`fisher` imports `build_spin_family` by name, so wrapping `spin` alone would
miss its per-point rebuild.  Spans are aggregated as they close, so a traced
run keeps a few counters per name instead of every span.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict


class Tracer:
    """Inclusive time, self time and call count per span name.

    A span's self time is its duration minus the durations of the spans
    opened inside it.  `top_level_s` sums the spans that had no enclosing
    span, i.e. the part of the caller's time the spans cover.
    """

    def __init__(self):
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.observed = defaultdict(list)
        self.top_level_s = 0.0
        self._child_s = []  # one accumulator per open span

    def wrap(self, name, fn, observe=None):
        """Return `fn` recording a span called `name` around every call.

        `observe`, when given, maps the return value to something kept in
        `observed[name]`.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                child = self._child_s.pop()
                self.total_s[name] += duration
                self.self_s[name] += duration - child
                self.calls[name] += 1
                if self._child_s:
                    self._child_s[-1] += duration
                else:
                    self.top_level_s += duration
            if observe is not None:
                self.observed[name].append(observe(result))
            return result

        return traced

    def layer_self_s(self, layer: str) -> float:
        """Self time of every span whose name starts with `layer.`."""
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Replace each (module, attribute, span name[, observe]) by a traced
    wrapper for the duration of the block, then restore the originals."""
    saved = []
    try:
        for module, attr, name, *observe in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, *observe))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
