"""The simulation kernel: virtual clock plus event loop.

Time is measured in *milliseconds* as floats throughout the reproduction;
helpers :data:`SECOND` and :data:`MINUTE` keep call sites readable.
"""

import math
import random
from heapq import heappop

from repro.sim.events import EventQueue
from repro.sim.tracing import Tracer

SECOND = 1000.0
MINUTE = 60 * SECOND
HOUR = 60 * MINUTE


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, etc.)."""


class Simulator:
    """Discrete-event simulator with a millisecond virtual clock.

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
        self.queue = EventQueue()
        self.tracer = Tracer(self)
        self._running = False
        self._stopped = False
        self.events_executed = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay, fn, *args):
        """Run ``fn(*args)`` after ``delay`` milliseconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.queue.push(self.now + delay, fn, args)

    def schedule_at(self, time, fn, *args):
        """Run ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} (now={self.now})")
        return self.queue.push(time, fn, args)

    def cancel(self, event):
        """Cancel a previously scheduled event; idempotent.

        Cancelling an event that already fired (or was already cancelled)
        is a true no-op: the queue's live count only ever accounts for
        events that were actually pending.  The event stays in the heap,
        counted as dead, and :meth:`run` discards it when it surfaces.
        """
        if event is not None and not event.cancelled and not event.fired:
            event.cancelled = True
            self.queue._dead += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until=None, max_events=None):
        """Execute events in order.

        Stops when the queue drains, when virtual time would pass ``until``
        (clock is then advanced exactly to ``until``), when ``max_events``
        have run, or when :meth:`stop` is called from inside an event.
        Returns the number of events executed during this call.

        The loop works on the queue's ``(time, seq, event)`` heap entries
        directly: one peek at the top entry per iteration, cancelled
        entries popped and dropped on the way.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        horizon = math.inf if until is None else until
        queue = self.queue
        heap = queue._heap
        try:
            while not self._stopped:
                if max_events is not None and executed >= max_events:
                    break
                if heap:
                    time, _, event = heap[0]
                    if event.cancelled:
                        heappop(heap)
                        queue._dead -= 1
                        continue
                    if time <= horizon:
                        heappop(heap)
                        event.fired = True
                        self.now = time
                        event.fn(*event.args)
                        executed += 1
                        continue
                # Queue drained, or the earliest live event lies beyond
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
        while True:
            if predicate():
                return True
            if not self.queue:
                return predicate()
            horizon = self.now + check_every
            if deadline is not None:
                horizon = min(horizon, deadline)
            next_time = self.queue.peek_time()
            if next_time is not None:
                # Dead air: fold empty hops into one slice.  The repeated
                # addition (rather than a closed form) reproduces the
                # stepping loop's horizon sequence exactly, so stop times
                # -- and therefore time-integral metrics -- are
                # bit-identical with and without the fast path.
                while horizon < next_time and \
                        (deadline is None or horizon < deadline):
                    hop = horizon + check_every
                    if deadline is not None:
                        hop = min(hop, deadline)
                    horizon = hop
            self.run(until=horizon)
            if deadline is not None and self.now >= deadline:
                return predicate()

    def stop(self):
        """Stop the event loop after the current event completes."""
        self._stopped = True

    def __repr__(self):
        return f"<Simulator t={self.now:.1f}ms pending={len(self.queue)}>"
