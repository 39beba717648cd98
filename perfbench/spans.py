"""In-memory span recording and the arithmetic the reports rest on.

A span is one timed call at a layer boundary: ``(id, name, trace, parent,
start, end)``.  ``trace`` names the run or service job the span belongs
to; ``parent`` is the span that was open when this one began (-1 for a
root).  Spans are appended to per-thread column buffers when they close,
so two worker threads never interleave half-written records, and are
written out once, by :meth:`SpanRecorder.dump`, when the run ends.

The current span and trace live in :mod:`contextvars`, so parent links
stay correct across asyncio tasks and ``asyncio.to_thread`` workers,
which copy the caller's context.

Pure helpers at the bottom (:func:`self_times`, :func:`percentile`,
:func:`ratio`) are what every reported number is computed with;
``selftest.py`` checks them.
"""

import contextvars
import itertools
import json
import math
import os
import threading
import time
from array import array

#: Nearest-rank percentiles are reported only with at least this many
#: samples beyond them (so p90 needs 100 samples, p50 needs 20).
MIN_TAIL_SAMPLES = 10


class _Columns:
    """One thread's closed spans, column-wise (30 bytes a span)."""

    __slots__ = ("sid", "name", "trace", "parent", "start", "end")

    def __init__(self):
        self.sid = array("i")
        self.name = array("H")
        self.trace = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")

    def __len__(self):
        return len(self.sid)


class SpanRecorder:
    """Records spans for one process; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []          # name id -> span name
        self.layers = []         # name id -> layer
        self._name_ids = {}
        self.traces = []         # trace id -> label
        self._ids = itertools.count()   # next() is atomic under the GIL
        self._local = threading.local()
        self._buffers = []
        self._buffers_lock = threading.Lock()
        self.current = contextvars.ContextVar("span", default=-1)
        self.trace = contextvars.ContextVar("trace", default=-1)
        #: free-form exact counters (e.g. innovative decoder rows)
        self.counts = {}
        self._counts_lock = threading.Lock()

    # ------------------------------------------------------------------
    def name_id(self, name, layer):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def new_trace(self, label):
        """Register a run or job label; returns its trace id."""
        self.traces.append(str(label))
        return len(self.traces) - 1

    def relabel_trace(self, tid, label):
        self.traces[tid] = str(label)

    def count(self, key, n=1):
        with self._counts_lock:
            self.counts[key] = self.counts.get(key, 0) + n

    def _columns(self):
        cols = getattr(self._local, "cols", None)
        if cols is None:
            cols = self._local.cols = _Columns()
            with self._buffers_lock:
                self._buffers.append(cols)
        return cols

    # ------------------------------------------------------------------
    def wrap(self, fn, name, layer):
        """``fn`` with every call recorded as a span named ``name``."""
        nid = self.name_id(name, layer)
        local = self._local
        new_columns = self._columns
        ids = self._ids
        current = self.current
        trace = self.trace
        clock = self.clock

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                current.reset(token)
                cols = getattr(local, "cols", None) or new_columns()
                cols.sid.append(sid)
                cols.name.append(nid)
                cols.trace.append(trace.get())
                cols.parent.append(parent)
                cols.start.append(t0)
                cols.end.append(t1)

        traced.__wrapped__ = fn
        return traced

    def wrap_async(self, fn, name, layer):
        """Like :meth:`wrap` for a coroutine function (spans the await)."""
        nid = self.name_id(name, layer)
        current = self.current
        clock = self.clock

        async def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = current.get()
            token = current.set(sid)
            t0 = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                t1 = clock()
                current.reset(token)
                self.record(sid, nid, parent, t0, t1)

        traced.__wrapped__ = fn
        return traced

    def record(self, sid, nid, parent, start, end):
        cols = self._columns()
        cols.sid.append(sid)
        cols.name.append(nid)
        cols.trace.append(self.trace.get())
        cols.parent.append(parent)
        cols.start.append(start)
        cols.end.append(end)

    # ------------------------------------------------------------------
    def spans(self):
        """All closed spans as one set of columns; call it once
        recording has stopped.

        With several threads' buffers they are merged into one, which
        then replaces them (no second copy stays alive)."""
        with self._buffers_lock:
            if len(self._buffers) > 1:
                merged = _Columns()
                for cols in self._buffers:
                    for field in _Columns.__slots__:
                        getattr(merged, field).extend(getattr(cols, field))
                        del getattr(cols, field)[:]
                self._buffers[:] = [merged]
            return self._buffers[0] if self._buffers else _Columns()

    def dump(self, path):
        """Write every span to ``path`` (JSON header line, then the six
        columns as raw arrays in native byte order, typecodes in the
        header); returns the span count."""
        cols = self.spans()
        header = {
            "format": "perfbench-spans-1",
            "spans": len(cols),
            "names": self.names,
            "layers": self.layers,
            "traces": self.traces,
            "counts": self.counts,
            "columns": [[f, getattr(cols, f).typecode]
                        for f in _Columns.__slots__],
        }
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field in _Columns.__slots__:
                getattr(cols, field).tofile(fh)
        return len(cols)


def load(path):
    """Read a :meth:`SpanRecorder.dump` file: ``(header, columns)``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = _Columns()
        n = header["spans"]
        for field, typecode in header["columns"]:
            column = getattr(cols, field)
            if column.typecode != typecode:
                raise ValueError(f"column {field}: typecode {typecode}")
            column.fromfile(fh, n)
    return header, cols


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def covered(start, end, intervals):
    """Length of ``[start, end]`` covered by the union of ``intervals``
    (pairs, any order, possibly overlapping or sticking out)."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
        if reach >= end:
            break
    return total


def self_times(cols):
    """Per-span self time: duration minus the part of the span that its
    direct children cover (children may nest or overlap each other).

    Span ids are handed out when spans open, so a parent's id is below
    its children's and siblings come in the order they started.  One
    pass in id order therefore merges each parent's children as a
    running union; a parent whose children arrive out of start order
    (clock reads racing between threads) is redone exactly with
    :func:`covered`."""
    n = len(cols)
    sids, parents, starts, ends = cols.sid, cols.parent, cols.start, cols.end
    top = max(sids) + 1 if n else 0
    pos = array("i", [-1]) * top        # span id -> column index
    for i in range(n):
        pos[sids[i]] = i
    cover = array("d", bytes(8 * n))    # parent index -> covered time
    reach = array("d", starts)          # end of the union so far
    last = array("d", starts)           # start of the latest child
    redo = set()
    for sid in range(top):
        i = pos[sid]
        p = parents[i] if i >= 0 else -1
        j = pos[p] if 0 <= p < top else -1
        if j < 0:
            continue
        start = starts[i]
        if start < last[j]:
            redo.add(j)
        last[j] = start
        hi = min(ends[i], ends[j])
        lo = max(start, reach[j])
        if hi > lo:
            cover[j] += hi - lo
            reach[j] = hi
    if redo:
        kids = {j: [] for j in redo}
        for i in range(n):
            p = parents[i]
            j = pos[p] if 0 <= p < top else -1
            if j in kids:
                kids[j].append((starts[i], ends[i]))
        for j, intervals in kids.items():
            cover[j] = covered(starts[j], ends[j], intervals)
    for i in range(n):
        cover[i] = ends[i] - starts[i] - cover[i]
    return cover


def percentile(values, q):
    """Nearest-rank ``q``-quantile of ``values`` with its sample count:
    ``{"value", "n"}``.  Above the median, ``value`` is None unless at
    least :data:`MIN_TAIL_SAMPLES` samples lie beyond the rank."""
    ordered = sorted(values)
    n = len(ordered)
    tail = round(n * (1.0 - q), 9)
    if n == 0 or (q > 0.5 and tail < MIN_TAIL_SAMPLES):
        return {"value": None, "n": n}
    rank = max(1, math.ceil(round(q * n, 9)))
    return {"value": ordered[rank - 1], "n": n}


def median(values):
    """Plain median (mean of the middle pair for even counts)."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of nothing")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def ratio(num, den):
    """A ratio with its base: ``{"value", "num", "den"}`` (value 0.0 when
    the base is zero, so a layer that never ran reads zero)."""
    return {"value": num / den if den else 0.0, "num": num, "den": den}
