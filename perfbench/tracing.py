"""Spans, counters and patched calls for the traced run.

Every span is recorded from the benchmark's own files, around calls into the
public functions of ``safepomcp``'s modules.  A span is a list
``[id, parent, trace, name, start, end]``; spans of one region build, or of
one episode step, share a trace id.  Hot functions (membership queries,
support posts, model hashes, refill draws) get counters and summed time
instead of spans, so that tracing stays cheap where calls are counted in
millions.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import ExitStack
from time import perf_counter
from unittest import mock


class Tracer:
    """Spans kept in memory, plus named counters and summed times."""

    def __init__(self):
        self.spans: list[list] = []
        self.traces: dict[int, dict] = {}
        self.stack: list[int] = []
        self.trace = 0
        self.counts: dict[str, int] = defaultdict(int)
        self.times: dict[str, float] = defaultdict(float)

    def new_trace(self, **meta) -> int:
        self.trace += 1
        self.traces[self.trace] = meta
        return self.trace

    def record(self, name: str, start: float, end: float) -> None:
        """A finished span under the innermost open one."""
        parent = self.stack[-1] if self.stack else None
        self.spans.append([len(self.spans), parent, self.trace, name, start, end])

    def spanned(self, fn, name):
        """``fn`` wrapped so that each call is a span; ``name`` may be a callable
        of the call's arguments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args) if callable(name) else name
            rec = [len(self.spans), self.stack[-1] if self.stack else None,
                   self.trace, label, perf_counter(), None]
            self.spans.append(rec)
            self.stack.append(rec[0])
            try:
                return fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                self.stack.pop()

        return wrapper

    def counted(self, fn, key):
        """``fn`` wrapped to count its calls and sum its time under ``key()``."""
        counts, times = self.counts, self.times

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = key()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times[k] += perf_counter() - t0
                counts[k] += 1

        return wrapper

    def durations(self, name: str, trace: int | None = None) -> list[float]:
        return [
            s[5] - s[4] for s in self.spans
            if s[3] == name and (trace is None or s[2] == trace)
        ]

    def write(self, path) -> None:
        """One JSON line per trace, then one per span."""
        with open(path, "w") as fh:
            for tid, meta in self.traces.items():
                fh.write(json.dumps({"trace": tid, **meta}) + "\n")
            for sid, parent, tid, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "trace": tid, "name": name,
                    "start": start, "end": end,
                }) + "\n")


def wrap(stack: ExitStack, owners, attr: str, make) -> None:
    """Replace ``attr`` on each owner by ``make(original)`` until ``stack`` closes."""
    for owner in owners:
        stack.enter_context(mock.patch.object(owner, attr, make(getattr(owner, attr))))
