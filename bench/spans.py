"""In-memory span recorder that wraps library functions at their call sites.

A span is (name, start, end, parent, thread, op, counts). Wrapping replaces an
attribute of a module (or an entry of a dict) with a timing shim and puts the
original back on ``restore``; nothing under ``src/`` is edited. A span opened
on a thread whose own stack is empty (a worker of a thread pool) takes the
innermost span open on the main thread as its parent, so kernel calls made
from pool threads sit under the ``build_ks_matrix`` span that started them.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict


def patch(owner, attr, value, undo):
    """Set ``owner.attr`` (or ``owner[attr]`` for a dict), noting the old value in ``undo``."""
    if isinstance(owner, dict):
        undo.append((owner, attr, owner[attr]))
        owner[attr] = value
    else:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)


def unpatch(undo):
    """Undo ``patch`` calls, newest first."""
    while undo:
        owner, attr, original = undo.pop()
        if isinstance(owner, dict):
            owner[attr] = original
        else:
            setattr(owner, attr, original)


class SpanRecorder:
    def __init__(self):
        self.spans = []
        self.op = -1
        self.missing = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []
        self._patches = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, count=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        counts = count(args, kwargs, result) if count is not None else None
        self.spans.append((span_id, name, start, end, parent, threading.get_ident(), self.op, counts))
        return result

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) with a span shim."""
        if (attr not in owner) if isinstance(owner, dict) else not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', 'dict')}.{attr}")
            return
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)

        def shim(*args, **kwargs):
            return self.call(name, original, args, kwargs, count)

        shim.__wrapped__ = original
        patch(owner, attr, shim, self._patches)

    def restore(self):
        unpatch(self._patches)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [
                    {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4],
                     "thread": s[5], "op": s[6], "counts": s[7]}
                    for s in self.spans
                ],
                fh,
            )


def _union(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanSummary:
    """Totals over recorded spans, keyed by span name.

    ``busy`` sums durations across threads; ``wall`` is the length of the
    union of the intervals of the given names; ``self_time`` is a span's
    duration minus the union of its children's intervals, summed over spans
    of that name.
    """

    def __init__(self, spans):
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        intervals = defaultdict(list)
        children = defaultdict(list)
        for span_id, name, start, end, parent, _thread, _op, counts in spans:
            self.busy[name] += end - start
            self.calls[name] += 1
            intervals[name].append((start, end))
            if parent is not None:
                children[parent].append((start, end))
            for key, value in (counts or {}).items():
                self.counts[f"{name}.{key}"] += value
        self._intervals = intervals
        self.self_time = defaultdict(float)
        for span_id, name, start, end, *_ in spans:
            self.self_time[name] += (end - start) - _union(children.get(span_id, ()))

    def wall(self, *names):
        return _union([iv for name in names for iv in self._intervals.get(name, ())])
