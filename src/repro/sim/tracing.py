"""Lightweight tracing bus for simulation runs.

Components emit structured trace records (category + fields); subscribers --
the invariant watchdog, trace writers, the service's progress stream,
tests -- receive them synchronously.  The bus serves live observers only:
a run's metrics (:class:`repro.experiments.common.RunResult`) subscribe
to nothing.  Run milestones (senders, parents, got-code times) are
stamped on the nodes by the same calls that trace them, and per-frame
counts (transmissions, decoded frames, collisions) are read from the
channel and radio counters, the same way energy comes from the radios'
time integrals.  An emit that reaches no
subscriber builds no record, and the per-frame and per-state-change
records are not even emitted unless something subscribes to them.

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


class _Routes(dict):
    """category -> tuple of the subscriber fns it reaches, in subscription
    order, worked out from the ``(fn, categories)`` pairs in
    ``subscribers`` on the first lookup of each category."""

    def __init__(self, subscribers):
        super().__init__()
        self.subscribers = subscribers

    def __missing__(self, category):
        fns = self[category] = tuple(
            fn for fn, categories in self.subscribers
            if categories is None or category in categories
        )
        return fns


class Tracer:
    """Publish/subscribe hub for :class:`TraceRecord` objects.

    ``watches(category)`` returns the subscribers ``category`` reaches,
    a tuple that is empty (falsy) when none would: one C-level dict
    lookup, so hot emitters guard with it before building a fields dict.
    """

    def __init__(self, sim):
        self._sim = sim
        self._routes = _Routes(list(current_taps()))
        self.watches = self._routes.__getitem__

    def subscribe(self, fn, categories=None):
        """Register ``fn(record)``; ``categories`` limits delivery if given."""
        if categories is not None:
            categories = frozenset(categories)
        self._routes.subscribers.append((fn, categories))
        self._routes.clear()
        return fn

    def unsubscribe(self, fn):
        self._routes.subscribers = [(f, c) for f, c in self._routes.subscribers
                                    if f is not fn]
        self._routes.clear()

    def emit(self, category, **fields):
        """Publish a record stamped with the current virtual time."""
        fns = self._routes[category]
        if not fns:
            return
        record = TraceRecord(self._sim.now, category, fields)
        for fn in fns:
            fn(record)
