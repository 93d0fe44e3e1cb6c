"""In-memory span recorder for the traced benchmark run.

A span is one call across a layer boundary: a name, a start and an end time
(``time.perf_counter``), the thread it ran on, and the span that caused it.
Each thread keeps its own stack of open spans, so spans opened by pool
workers nest under the worker's own spans.  Work handed to another thread
can name its parent explicitly (``parent=``), which links a worker's spans
back to the span that submitted them.

Spans stay in memory while the traced call runs; ``self_times`` and
``write`` are used once it has finished.
"""

import itertools
import threading
import time
from collections import Counter

perf_counter = time.perf_counter


class SpanRecorder:
    def __init__(self):
        self.spans = []  # (span_id, parent_id, name, thread_id, start, end)
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Id of the innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, parent=None):
        """Start a span; returns the token ``close`` needs.

        The parent is the innermost open span on this thread, else ``parent``.
        """
        stack = self._stack()
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, stack[-2] if len(stack) > 1 else parent, perf_counter()

    def close(self, token, name):
        end = perf_counter()
        span_id, parent, start = token
        self._stack().pop()
        self.spans.append((span_id, parent, name, threading.get_ident(), start, end))

    def add(self, key, amount=1):
        with self._count_lock:
            self.counts[key] += amount

    def wrap(self, fn, name, on_call=None):
        """Return ``fn`` wrapped in a span.

        ``name`` is a string or a function of the call's arguments.
        ``on_call(args, kwargs, result)`` records counts from a call that
        returned.
        """
        namer = name if callable(name) else (lambda *a, **k: name)

        def traced(*args, **kwargs):
            token = self.open()
            label = namer(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(token, label)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        """Map span id -> self time: its duration minus the part of it that
        its children's intervals cover (the union, so parallel children
        running on other threads are not counted twice)."""
        children = {}
        for span_id, parent, _name, _tid, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for span_id, _parent, _name, _tid, start, end in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[span_id] = (end - start) - covered
        return out

    def summary(self):
        """Per name: calls, total seconds and self seconds."""
        selfs = self.self_times()
        out = {}
        for span_id, _parent, name, _tid, start, end in self.spans:
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += selfs[span_id]
        return out

    def write(self, path):
        """Write every span as a tab-separated line, ordered by start time."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", newline="\n") as fh:
            fh.write("span\tparent\tname\tthread\tstart_s\tend_s\n")
            for span_id, parent, name, tid, start, end in sorted(self.spans, key=lambda s: s[4]):
                fh.write(f"{span_id}\t{parent or 0}\t{name}\t{tid}\t"
                         f"{start - origin:.9f}\t{end - origin:.9f}\n")
