"""TDMA medium access (the §5/§6 alternative to CSMA).

The paper discusses building reprogramming on a TDMA MAC (citing the
authors' own SS-TDMA): "a node transmits messages only in its assigned
time slots, so that message collision is avoided", at the cost of
requiring a known topology and time synchronization.  Section 6 also
proposes *combining* MNP with TDMA so advertisements land when neighbors
are awake.

Two pieces:

* :func:`build_tdma_schedule` -- a distance-2 coloring of the
  connectivity graph (greedy, deterministic).  Two nodes that share a
  neighbor never share a slot, which is exactly the condition for
  collision-freedom on a broadcast channel (it excludes hidden-terminal
  pairs by construction).  On grids this reproduces the flavour of
  SS-TDMA's geometric slot assignment without assuming grid coordinates.
* :class:`TdmaMac` -- a drop-in replacement for
  :class:`repro.radio.mac.CsmaMac` (same client surface: ``send``,
  ``on_receive``, ``on_send_done``, ``reset``), transmitting at most one
  frame per owned slot.

The simulator gives all nodes a perfectly synchronized clock, which
matches the paper's premise that TDMA "requires the time synchronization
service".
"""

import math

from repro.radio.packet import BROADCAST, Frame

#: Default slot length: one maximum-size frame (64 B on air at 19.2 kbps
#: is ~27 ms) plus a guard band.
DEFAULT_SLOT_MS = 30.0
GUARD_MS = 1.0


class TdmaSchedule:
    """A slot assignment: node id -> slot index, frame = n_slots slots."""

    def __init__(self, slots, n_slots, slot_ms=DEFAULT_SLOT_MS):
        if n_slots < 1:
            raise ValueError("need at least one slot")
        if any(not 0 <= s < n_slots for s in slots.values()):
            raise ValueError("slot index out of range")
        self.slots = dict(slots)
        self.n_slots = n_slots
        self.slot_ms = slot_ms

    @property
    def frame_ms(self):
        return self.n_slots * self.slot_ms

    def slot_of(self, node_id):
        return self.slots[node_id]

    def next_slot_start(self, node_id, now):
        """Earliest start time strictly in the future of this node's
        slot."""
        offset = self.slot_of(node_id) * self.slot_ms
        cycles = math.floor((now - offset) / self.frame_ms) + 1
        start = cycles * self.frame_ms + offset
        if start <= now:
            start += self.frame_ms
        return start

    def __repr__(self):
        return f"<TdmaSchedule {len(self.slots)} nodes / {self.n_slots} slots>"


def build_tdma_schedule(topology, interference_range_ft,
                        slot_ms=DEFAULT_SLOT_MS):
    """Greedy distance-2 coloring over the given interference range.

    Any two nodes within two hops of each other (sharing a potential
    receiver) get different slots, so simultaneous transmissions can
    never collide.
    """
    # One grid-index build serves every interference query below.
    index = topology.grid_index(interference_range_ft)
    neighbors = {
        node: set(index.nodes_within(node, interference_range_ft))
        for node in topology.node_ids()
    }
    slots = {}
    n_slots = 1
    for node in topology.node_ids():  # deterministic order
        forbidden = set()
        # Distance-1 and distance-2 conflicts.
        for first in neighbors[node]:
            if first in slots:
                forbidden.add(slots[first])
            for second in neighbors[first]:
                if second != node and second in slots:
                    forbidden.add(slots[second])
        slot = 0
        while slot in forbidden:
            slot += 1
        slots[node] = slot
        n_slots = max(n_slots, slot + 1)
    return TdmaSchedule(slots, n_slots, slot_ms=slot_ms)


class TdmaMac:
    """Slotted MAC: transmit only inside owned slots; no carrier sense
    needed (the schedule guarantees exclusivity within two hops)."""

    def __init__(self, sim, radio, channel, schedule, seed=0):
        self.sim = sim
        self.radio = radio
        self.channel = channel
        self.schedule = schedule
        self._queue = []
        self._slot_event = None
        self._in_flight = None  # the frame on the air
        # Client hooks (same surface as CsmaMac).
        self.on_receive = None
        self.on_send_done = None
        # Counters
        self.frames_queued = 0
        self.slots_used = 0
        self.slots_skipped = 0  # owned slots that passed with radio off
        radio.on_frame = self._deliver

    # ------------------------------------------------------------------
    def send(self, payload, payload_bytes, dst=BROADCAST):
        if not self.radio.is_on:
            raise RuntimeError(
                f"node {self.radio.node_id}: MAC send with radio off"
            )
        frame = Frame(self.radio.node_id, payload, payload_bytes, dst)
        if frame.airtime_ms + GUARD_MS > self.schedule.slot_ms:
            raise ValueError(
                f"frame airtime {frame.airtime_ms:.1f}ms does not fit a "
                f"{self.schedule.slot_ms:.1f}ms slot"
            )
        self._queue.append(frame)
        self.frames_queued += 1
        self._arm()
        return frame

    def pending(self):
        return len(self._queue) + (self._in_flight is not None)

    def reset(self):
        self._queue.clear()
        if self._slot_event is not None:
            self.sim.cancel(self._slot_event)
            self._slot_event = None
        self._in_flight = None

    # ------------------------------------------------------------------
    def _arm(self):
        if self._slot_event is not None or not self._queue:
            return
        start = self.schedule.next_slot_start(self.radio.node_id,
                                              self.sim.now)
        self._slot_event = self.sim.schedule(start - self.sim.now,
                                             self._on_slot)

    def _on_slot(self):
        self._slot_event = None
        if not self._queue:
            return
        if not self.radio.is_on or self.radio.transmitting \
                or self._in_flight is not None:
            self.slots_skipped += 1
            self._arm()
            return
        frame = self._in_flight = self._queue.pop(0)
        self.slots_used += 1
        self.channel.transmit(self.radio, frame, on_done=self._sent)
        self._arm()  # next frame waits for the next owned slot

    def _sent(self):
        frame = self._in_flight
        self._in_flight = None
        if self.on_send_done is not None:
            self.on_send_done(frame.payload)
        self._arm()

    # ------------------------------------------------------------------
    def _deliver(self, frame):
        if frame.dst not in (BROADCAST, self.radio.node_id):
            return
        if self.on_receive is not None:
            self.on_receive(frame)
