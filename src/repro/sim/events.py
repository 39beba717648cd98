"""Event and event-queue primitives for the simulation kernel.

Events are ordered by ``(time, seq)`` where ``seq`` is a monotonically
increasing tie-breaker, so simultaneous events execute in scheduling order
and runs are fully deterministic.
"""

import itertools
from heapq import heappop, heappush


class Event:
    """A scheduled callback.

    Events are created through :meth:`repro.sim.kernel.Simulator.schedule`;
    user code normally only keeps a reference in order to :meth:`cancel` it.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "fired")

    def __init__(self, time, seq, fn, args):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self):
        """Mark the event so the queue skips it; cancelling twice, or
        cancelling an event that has already fired, is a no-op."""
        if not self.fired:
            self.cancelled = True

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self):
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.3f} {name}{state}>"


class EventQueue:
    """A binary-heap priority queue of :class:`Event` objects.

    The heap holds ``(time, seq, event)`` tuples rather than bare events:
    ``seq`` is unique, so sift comparisons resolve on the first two
    scalar fields at C speed and never fall back to a Python-level
    ``Event.__lt__`` call -- heap maintenance is the kernel's single
    hottest loop.  Cancellation is lazy: cancelled events stay in the
    heap and are discarded on pop, which keeps both operations O(log n).
    The live count is the heap size less the cancelled entries still in
    it, so pushing or executing an event updates no counter.

    :meth:`repro.sim.kernel.Simulator.run` and
    :meth:`~repro.sim.kernel.Simulator.cancel` work on ``_heap`` and
    ``_dead`` directly, so an executed or cancelled event costs no call
    into the queue; :meth:`pop` and :meth:`notice_cancel` are the same
    two steps for a queue used on its own.
    """

    def __init__(self):
        self._heap = []  # (time, seq, Event) entries
        self._counter = itertools.count()
        self._dead = 0  # cancelled entries still in the heap

    def push(self, time, fn, args=()):
        """Insert a callback at absolute ``time``; returns the Event handle."""
        seq = next(self._counter)
        event = Event(time, seq, fn, args)
        heappush(self._heap, (time, seq, event))
        return event

    def pop(self):
        """Remove and return the earliest non-cancelled event, or None."""
        while self._heap:
            event = heappop(self._heap)[2]
            if event.cancelled:
                self._dead -= 1
                continue
            event.fired = True
            return event
        return None

    def peek_time(self):
        """Time of the earliest live event, or None if the queue is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
            self._dead -= 1
        return heap[0][0] if heap else None

    def __len__(self):
        return len(self._heap) - self._dead

    def __bool__(self):
        return len(self._heap) > self._dead

    def notice_cancel(self):
        """Account for an event cancelled with :meth:`Event.cancel`.

        Must only be called for events that were live when cancelled
        (:meth:`repro.sim.kernel.Simulator.cancel` makes the same check
        before it counts the entry itself).
        """
        self._dead += 1
