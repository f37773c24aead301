"""Spans and counters recorded from outside the meancap package.

The tracer replaces a module or class attribute with a wrapper and puts the
original back on ``close``.  A function must be wrapped at the name its
caller looks up: ``training`` imports ``encode`` with ``from .model import
encode``, so the span for the XE encoder is installed as ``training.encode``,
and patching ``model.encode`` alone would miss it.

Every span records (id, name, start, end, parent id, unit id).  The unit is
the step or image the benchmark is running, so the spans of one step share
its id.  Spans stay in memory until the run ends.
"""

import functools
import json
import time
from collections import Counter, defaultdict

ROOT = "unit"  # span the benchmark opens around each step, image or set-up


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)  # unit id -> name -> count
        self.unit = None
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- installing wrappers -------------------------------------------------

    def wrap(self, owner, attr, name, observe=None):
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``observe(args, result)`` may add counts after the call returns.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, tracer.unit))
            if observe is not None:
                observe(args, result)
            return result

        self._install(owner, attr, original, traced)

    def count_calls(self, owner, attr, name):
        """Count calls of ``owner.attr`` without a span (for hot functions)."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            tracer.counts[tracer.unit][name] += 1
            return original(*args, **kwargs)

        self._install(owner, attr, original, counted)

    def add(self, name, n=1):
        self.counts[self.unit][name] += n

    def _install(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def close(self):
        """Put every original attribute back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- units ---------------------------------------------------------------

    def run_unit(self, unit_id, fn, *args):
        """Call ``fn(*args)`` inside a root span for one unit of work."""
        if self._stack:
            raise RuntimeError("a unit cannot start inside another span")
        self.unit = unit_id
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, ROOT, start, end, None, unit_id))
            self.unit = None

    # -- analysis ------------------------------------------------------------

    def self_times(self):
        """span id -> duration minus the time covered by its child spans."""
        own = {s[0]: s[3] - s[2] for s in self.spans}
        for span_id, _name, start, end, parent, _unit in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write(self, path):
        """One JSON object per span, in the order the spans ended."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, unit in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "unit": unit}) + "\n")
