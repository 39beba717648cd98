"""Host-speed samples: how fast the host runs Python while a run is measured.

The benchmark shares a few cores of a host whose speed swings with its
other tenants.  On a 2-vCPU host the fixed kernel below takes from 4 to
8 ms per call; its mean over half a minute moves by a tenth or more from
one half-minute to the next, and a simulated run's wall time moves with
it.  So the measured process calls the kernel every so often *between*
pieces of its own work (never inside them), and the run's times are
scaled by ``REFERENCE_S`` over the kernel's mean time in that run.

The kernel is a small discrete-event flood written here, independent of
the package under test, so a change to the program moves the run's time
but not the kernel's and shows in full; a slow stretch of the host moves
both and drops out.  Each call is timed in thread CPU time with the
garbage collector off, so neither waiting for a core or a lock nor the
size of the program's heap counts.
"""

import gc
import heapq
import threading
import time

#: The kernel's mean time on the 2-vCPU host the benchmark was tuned on:
#: scaled times read as seconds on that host at its usual speed.
REFERENCE_S = 0.0065


class _Node:
    __slots__ = ("ident", "neighbours", "seen", "sent")

    def __init__(self, ident):
        self.ident = ident
        self.neighbours = []
        self.seen = {}
        self.sent = 0

    def receive(self, loop, now, packet):
        key = packet[0] & 63
        if self.seen.get(key, -1) >= packet[1]:
            return
        self.seen[key] = packet[1]
        if self.sent < 40:
            self.sent += 1
            loop.schedule(now + 1.0 + (self.ident * 7 + key) % 13 * 0.1,
                          self.broadcast, (key + 1, packet[1] + 1))

    def broadcast(self, loop, now, packet):
        for other in self.neighbours:
            loop.schedule(now + 0.05, other.receive, packet)


class _Loop:
    def __init__(self):
        self.queue = []
        self.seq = 0

    def schedule(self, when, fn, arg):
        self.seq += 1
        heapq.heappush(self.queue, (when, self.seq, fn, arg))

    def run(self):
        queue, pop, executed = self.queue, heapq.heappop, 0
        while queue:
            when, _, fn, arg = pop(queue)
            fn(self, when, arg)
            executed += 1
        return executed


def kernel():
    """Flood a 6 x 6 grid of nodes; returns the events run (always the
    same number: the work is fixed)."""
    side = 6
    nodes = [_Node(i) for i in range(side * side)]
    for i, node in enumerate(nodes):
        row, col = divmod(i, side)
        for r, c in ((row, col + 1), (row + 1, col), (row, col - 1),
                     (row - 1, col)):
            if 0 <= r < side and 0 <= c < side:
                node.neighbours.append(nodes[r * side + c])
    loop = _Loop()
    loop.schedule(0.0, nodes[0].broadcast, (0, 0))
    executed = loop.run()
    for node in nodes:          # no cycles left for the collector
        node.neighbours = None
    return executed


class HostSpeed:
    """Kernel times taken by :meth:`sample`; :meth:`scale` turns them
    into the factor that brings a run's times to ``REFERENCE_S``."""

    def __init__(self):
        self.times = []
        self._lock = threading.Lock()   # one sample at a time

    def sample(self):
        with self._lock:
            enabled = gc.isenabled()
            gc.disable()
            try:
                start = time.thread_time()
                kernel()
                self.times.append(time.thread_time() - start)
            finally:
                if enabled:
                    gc.enable()

    def scale(self):
        """``REFERENCE_S`` over the mean kernel time."""
        if not self.times:
            raise RuntimeError("no host-speed samples were taken")
        return REFERENCE_S * len(self.times) / sum(self.times)
