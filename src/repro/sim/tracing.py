"""Lightweight tracing bus for simulation runs.

Components emit structured trace records (category + fields); subscribers --
metric collectors, the invariant watchdog, trace writers, tests -- receive
them synchronously.  Protocol milestones reach the metrics layer as trace
records, so protocol code never needs to know which figures are being
produced.  Per-frame counts (transmissions, decoded frames, collisions) are
read from the channel and radio counters instead, the same way energy comes
from the radios' time integrals; their records are emitted only when
something subscribes to them.

Thread-local *taps* let a harness observe simulations it does not
construct: :func:`push_tap` registers a subscriber that every
:class:`Tracer` created afterwards *in the same thread* attaches at
construction time.  The dissemination service uses this to stream
per-job progress events (and to abort cancelled jobs cooperatively: a
tap may raise, which unwinds the simulation).  With no tap installed the
hook costs one thread-local read per Tracer construction and nothing per
emit.
"""

import threading

_TAPS = threading.local()


def push_tap(fn, categories=None):
    """Attach ``fn(record)`` to every Tracer later built in this thread.

    ``categories`` limits delivery exactly like :meth:`Tracer.subscribe`.
    Taps stack; pop with :func:`pop_tap` (always, in a ``finally``).
    """
    stack = getattr(_TAPS, "stack", None)
    if stack is None:
        stack = _TAPS.stack = []
    stack.append((fn, frozenset(categories) if categories is not None
                  else None))
    return fn


def pop_tap(fn):
    """Remove the most recent tap registered for ``fn`` in this thread."""
    stack = getattr(_TAPS, "stack", None) or []
    for i in range(len(stack) - 1, -1, -1):
        if stack[i][0] is fn:
            del stack[i]
            return
    raise ValueError("tap not installed in this thread")


def current_taps():
    """The ``(fn, categories)`` taps active in this thread (a tuple)."""
    return tuple(getattr(_TAPS, "stack", ()))


class TraceRecord:
    """One trace entry: virtual time, category string, and a fields dict."""

    __slots__ = ("time", "category", "fields")

    def __init__(self, time, category, fields):
        self.time = time
        self.category = category
        self.fields = fields

    def __getattr__(self, name):
        try:
            return self.fields[name]
        except KeyError:
            raise AttributeError(name) from None

    def __repr__(self):
        parts = " ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"<{self.category} @{self.time:.1f}ms {parts}>"


class Tracer:
    """Publish/subscribe hub for :class:`TraceRecord` objects."""

    def __init__(self, sim):
        self._sim = sim
        self._subscribers = list(current_taps())
        # category -> tuple of subscriber fns, in subscription order,
        # built lazily on first emit of each category.  Unwatched
        # categories map to an empty tuple, so emitting them costs one
        # dict lookup and no record construction.
        self._index = {}

    def subscribe(self, fn, categories=None):
        """Register ``fn(record)``; ``categories`` limits delivery if given."""
        if categories is not None:
            categories = frozenset(categories)
        self._subscribers.append((fn, categories))
        self._index.clear()
        return fn

    def unsubscribe(self, fn):
        self._subscribers = [(f, c) for f, c in self._subscribers if f is not fn]
        self._index.clear()

    def _fns_for(self, category):
        fns = tuple(
            fn for fn, categories in self._subscribers
            if categories is None or category in categories
        )
        self._index[category] = fns
        return fns

    def watches(self, category):
        """True if emitting ``category`` would reach a subscriber.

        Hot emitters guard with this before building the fields dict, so
        unwatched categories cost one method call instead of a dict
        construction plus an :meth:`emit` that drops it.
        """
        fns = self._index.get(category)
        if fns is None:
            fns = self._fns_for(category)
        return bool(fns)

    def emit(self, category, **fields):
        """Publish a record stamped with the current virtual time."""
        fns = self._index.get(category)
        if fns is None:
            fns = self._fns_for(category)
        if not fns:
            return
        record = TraceRecord(self._sim.now, category, fields)
        for fn in fns:
            fn(record)
