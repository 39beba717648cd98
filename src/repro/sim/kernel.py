"""The simulation kernel: virtual clock, event heap and event loop.

Time is measured in *milliseconds* as floats throughout the reproduction;
helpers :data:`SECOND` and :data:`MINUTE` keep call sites readable.

Events run in ``(time, seq)`` order, where ``seq`` is a monotonically
increasing tie-breaker, so simultaneous events execute in scheduling order
and runs are fully deterministic.  The heap entry ``[time, seq, fn, args]``
is the event's handle: :meth:`Simulator.schedule` returns it, and user
code keeps it only to hand it to :meth:`Simulator.cancel`.
"""

import itertools
import math
import random
from heapq import heappop, heappush

from repro.sim.tracing import Tracer

SECOND = 1000.0
MINUTE = 60 * SECOND
HOUR = 60 * MINUTE

_INF = math.inf


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, etc.)."""


class Simulator:
    """Discrete-event simulator with a millisecond virtual clock.

    Pending events live on a binary heap of ``[time, seq, fn, args]``
    entries, each the opaque handle of its event.  ``seq`` is unique, so
    sift comparisons resolve on the two scalar fields at C speed and
    never compare callbacks.  Firing or cancelling an entry sets its
    ``fn`` to None.  Cancellation is lazy: a cancelled entry stays on the
    heap, counted as dead, and is dropped when it reaches the top, so
    scheduling and cancelling are both O(log n) and executing an event
    updates no counter.

    Parameters
    ----------
    seed:
        Master seed for the run.  All randomness in a simulation must be
        drawn from :attr:`rng` or from streams derived from it
        (:func:`repro.sim.rng.derive_rng`) so runs are reproducible.
    """

    def __init__(self, seed=0):
        self.now = 0.0
        self.seed = seed
        self.rng = random.Random(seed)
        self.tracer = Tracer(self)
        self._heap = []  # [time, seq, fn, args] entries
        self._counter = itertools.count()
        self._dead = 0  # cancelled entries still on the heap
        self._running = False
        self.events_executed = 0

    @property
    def pending(self):
        """Number of scheduled events that have neither fired nor been
        cancelled."""
        return len(self._heap) - self._dead

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay, fn, *args):
        """Run ``fn(*args)`` after ``delay`` milliseconds of virtual time;
        returns the event's handle."""
        # Written so that NaN and infinity fail too: a NaN entry at the
        # heap top would block every later event, and an infinite one
        # never fires.
        if not 0 <= delay < _INF:
            raise SimulationError(
                f"negative or non-finite delay {delay!r}")
        entry = [self.now + delay, next(self._counter), fn, args]
        heappush(self._heap, entry)
        return entry

    def schedule_at(self, time, fn, *args):
        """Run ``fn(*args)`` at absolute virtual time ``time``; returns
        the event's handle."""
        if not self.now <= time < _INF:  # as in schedule()
            raise SimulationError(f"cannot schedule at {time} (now={self.now})")
        entry = [time, next(self._counter), fn, args]
        heappush(self._heap, entry)
        return entry

    def cancel(self, entry):
        """Cancel a previously scheduled event by its handle; idempotent.

        Cancelling an event that already fired (or was already cancelled)
        is a true no-op: :attr:`pending` only ever accounts for events
        that were actually pending.  The entry stays on the heap, counted
        as dead, and is discarded when it surfaces.
        """
        if entry is not None and entry[2] is not None:
            entry[2] = None
            self._dead += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until=None, max_events=None):
        """Execute events in order.

        Stops when the heap drains, when virtual time would pass ``until``
        (clock is then advanced exactly to ``until``), or when
        ``max_events`` have run.  Returns the number of events executed
        during this call.

        One peek at the top entry per iteration; cancelled entries are
        popped and dropped on the way.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is not None and not math.isfinite(until):
            # NaN would run nothing; infinity would move the clock there
            # once the heap drains.
            raise SimulationError(f"non-finite run horizon {until!r}")
        self._running = True
        executed = 0
        horizon = math.inf if until is None else until
        heap = self._heap
        try:
            while True:
                if max_events is not None and executed >= max_events:
                    break
                if heap:
                    entry = heap[0]
                    fn = entry[2]
                    if fn is None:
                        heappop(heap)
                        self._dead -= 1
                        continue
                    if entry[0] <= horizon:
                        heappop(heap)
                        entry[2] = None
                        self.now = entry[0]
                        fn(*entry[3])
                        executed += 1
                        continue
                # Heap drained, or the earliest live event lies beyond
                # `until`; either way the clock advances exactly to
                # `until`.
                if until is not None and self.now < until:
                    self.now = until
                break
        finally:
            self._running = False
            self.events_executed += executed
        return executed

    def run_until(self, predicate, check_every=1000.0, deadline=None):
        """Run until ``predicate()`` is true, polling every ``check_every`` ms.

        Returns True if the predicate became true, False if the simulation
        drained or the ``deadline`` (absolute ms) passed first.

        The predicate is evaluated after each executed slice, at least
        every ``check_every`` ms of virtual time.  Dead air is skipped:
        when the next event lies beyond the poll horizon, the horizon is
        advanced through the empty ``check_every`` hops with the same
        left-fold float additions the stepping loop would have performed
        -- but without polling the predicate or entering the event loop
        -- so a sparse timeline costs O(events) predicate polls and
        ``run()`` slices, while the clock visits bit-identical horizon
        values.  (Simulation state only changes when events execute, so a
        predicate over that state cannot flip during the skipped stretch;
        predicates reading ``sim.now`` directly should use ``deadline``
        for exact cutoffs.)
        """
        if deadline is not None and not math.isfinite(deadline):
            # It would never pass: only the predicate or an empty heap
            # could end the run.
            what = "NaN" if math.isnan(deadline) else "infinite"
            raise SimulationError(f"{what} deadline")
        heap = self._heap
        while True:
            if predicate():
                return True
            while heap and heap[0][2] is None:
                heappop(heap)
                self._dead -= 1
            if not heap:
                return predicate()
            horizon = self.now + check_every
            if deadline is not None:
                horizon = min(horizon, deadline)
            # Dead air: fold empty hops before the earliest live event
            # into one slice.  The repeated addition (rather than a
            # closed form) reproduces the stepping loop's horizon
            # sequence exactly, so stop times -- and therefore
            # time-integral metrics -- are bit-identical with and without
            # the fast path.
            next_time = heap[0][0]
            while horizon < next_time and \
                    (deadline is None or horizon < deadline):
                hop = horizon + check_every
                if deadline is not None:
                    hop = min(hop, deadline)
                horizon = hop
            self.run(until=horizon)
            if deadline is not None and self.now >= deadline:
                return predicate()

    def __repr__(self):
        return f"<Simulator t={self.now:.1f}ms pending={self.pending}>"
