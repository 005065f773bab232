"""Span recording from outside the program.

The tracer replaces public names at import boundaries (for example
``cstones.recovery.estimate_sinusoid``, the name ``recover`` looks up at call
time) with wrappers that record a span around the original call, and puts
the originals back afterwards.  Spans stay in memory; the caller writes
them out when the run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

from metrics import Span


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._job: str | None = None

    @contextmanager
    def span(self, name: str, layer: str, attrs: dict | None = None):
        """Record the enclosed block as one span; ``attrs`` may be filled in
        by the block and is stored with the span."""
        attrs = {} if attrs is None else attrs
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, parent, self._job, name, layer, start, end, attrs))

    @contextmanager
    def root(self, job: str, name: str = "job", layer: str = "bench"):
        """Root span of one job; every span recorded inside carries its id."""
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        self._job = job
        try:
            with self.span(name, layer) as attrs:
                yield attrs
        finally:
            self._job = None

    def wrap(self, fn, layer: str, attrs_fn=None):
        """A stand-in for ``fn`` that records a span per call.

        ``attrs_fn(args, kwargs, result)`` returns extra span attributes.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(fn.__name__, layer) as attrs:
                result = fn(*args, **kwargs)
            # outside the span, so reading the result is not timed as its layer
            if attrs_fn is not None:
                attrs.update(attrs_fn(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Replace each ``(owner, attr, layer, attrs_fn)`` target with a
        traced wrapper for the duration of the block."""
        originals = []
        try:
            for owner, attr, layer, attrs_fn in targets:
                fn = getattr(owner, attr)
                originals.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(fn, layer, attrs_fn))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)
