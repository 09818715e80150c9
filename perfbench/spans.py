"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent span, op id).  Spans live in flat typed
arrays, so a run of a few hundred thousand spans stays a few tens of MB, and
are written out once when the run ends.  A span's self time is its duration
minus the durations of its direct children; the run is single-threaded, so
children nest inside their parent and self times sum to the root's duration.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.counts = defaultdict(Counter)  # op id -> exact counts
        self.current_op = -1
        self.current_counts = self.counts[-1]
        self._stack: list = []

    def begin_op(self, op_id: int) -> None:
        """Attribute the spans and counts that follow to op ``op_id``."""
        self.current_op = op_id
        self.current_counts = self.counts[op_id]

    def wrap(self, name: str, fn, count: str | None = None, after=None):
        """``fn`` recording one span per call; ``count`` names a per-op call
        counter and ``after(tracer, args, result)`` adds counts from a result."""
        key = self._name_ids.setdefault(name, len(self._name_ids))
        if key == len(self.names):
            self.names.append(name)
        tracer, ends, stack, clock = self, self.end, self._stack, perf_counter
        add_name, add_start, add_end = self.name.append, self.start.append, ends.append
        add_parent, add_op = self.parent.append, self.op.append

        def traced(*args, **kwargs):
            idx = len(ends)
            add_name(key)
            add_parent(stack[-1] if stack else -1)
            add_op(tracer.current_op)
            add_end(0.0)
            stack.append(idx)
            if count is not None:
                tracer.current_counts[count] += 1
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self):
        """(name id, duration, self time, parent, op) as numpy arrays."""
        name = np.array(self.name, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=np.int64)
        op = np.array(self.op, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return name, dur, dur - child, parent, op

    def summarize(self, ranges) -> list:
        """For each (lo, hi) span-index range, {span name: (calls, busy s, self s)}."""
        name, dur, self_t, _, _ = self.arrays()
        k = len(self.names)
        out = []
        for lo, hi in ranges:
            sl = slice(lo, hi)
            calls = np.bincount(name[sl], minlength=k)
            busy = np.bincount(name[sl], weights=dur[sl], minlength=k)
            own = np.bincount(name[sl], weights=self_t[sl], minlength=k)
            out.append(
                {n: (int(calls[i]), float(busy[i]), float(own[i])) for i, n in enumerate(self.names)}
            )
        return out

    def self_sums_match(self, rel: float = 1e-9) -> bool:
        """Per op, the self times of its spans sum to the duration of its roots."""
        _, dur, self_t, parent, op = self.arrays()
        if not len(dur):
            return True
        ops = op - op.min()
        self_sum = np.bincount(ops, weights=self_t)
        root = parent < 0
        root_sum = np.bincount(ops[root], weights=dur[root], minlength=len(self_sum))
        return bool(np.all(np.abs(self_sum - root_sum) <= rel * root_sum + 1e-12))

    def save(self, path) -> None:
        """Write every span as an uncompressed .npz (names, name, start, end, parent, op)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
            op=np.array(self.op, dtype=np.int64),
        )
