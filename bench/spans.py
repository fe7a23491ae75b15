"""In-memory spans around the calls the benchmark makes into each layer.

A span records name, start, end, parent span and run id.  The layer of a
span is the first dotted part of its name (``ngd.run_chain`` -> ``ngd``).
Spans stay in memory and are written out once, at the end of a run.

The package's modules import each other's functions by name (``sweep`` does
``from .ngd import run_chain``), so the layer boundaries inside a sweep cell
are module attributes.  ``Tracer.wrap`` swaps such an attribute for a thin
wrapper for the life of the tracer and puts the original back on ``close``.
With recording off the wrappers still pass results to their hooks, so traced
and untraced runs execute the same code and differ only in the bookkeeping.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Span recorder; ``record=False`` keeps only the result hooks."""

    def __init__(self, run_id, record=True):
        self.run_id = run_id
        self.record = record
        self.spans = []
        self._stack = []
        self._patched = []

    @contextmanager
    def span(self, name, **attrs):
        """Time the body; yields the attribute dict so callers can add to it."""
        if not self.record:
            yield attrs
            return
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(sid, name, start, end, parent, self.run_id,
                                   attrs)

    def wrap(self, module, attr, name, describe=None):
        """Replace ``module.attr`` by a spanned wrapper.

        ``describe(args, kwargs, result)`` returns attributes for the span;
        it also runs with recording off, so it can capture results.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = original(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(args, kwargs, result) or {})
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def close(self):
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def finished(self):
        return [s for s in self.spans if s is not None]

    def write(self, path):
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.finished()], fh, indent=1)


def self_times(spans):
    """Seconds per layer spent in spans of that layer but not in their
    children (a span's duration minus the durations of its direct children)."""
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out = {}
    for s in spans:
        out[s.layer] = (out.get(s.layer, 0.0)
                        + s.duration - child_time.get(s.id, 0.0))
    return out


def total(spans, name, **match):
    """Summed duration of the spans called ``name`` whose attributes match."""
    return sum(s.duration for s in spans if s.name == name
               and all(s.attrs.get(k) == v for k, v in match.items()))


def ancestors(spans, span):
    """The spans enclosing ``span``, innermost first."""
    by_id = {s.id: s for s in spans}
    out, p = [], span.parent
    while p is not None:
        out.append(by_id[p])
        p = by_id[p].parent
    return out


def ancestor_names(spans, span):
    return {a.name for a in ancestors(spans, span)}
