"""CSMA medium access, modeled on the TinyOS Mica-2 stack.

Before transmitting, the MAC waits a short random *initial backoff*, then
samples the carrier; if the medium is busy it retries after a random
*congestion backoff*.  There are no RTS/CTS and no link-layer
acknowledgements -- exactly the substrate MNP was designed for, where the
only defenses against collision are protocol-level (sender selection) and
statistical (random advertisement intervals).

The MAC keeps a FIFO of outgoing frames and notifies the client when each
frame leaves the air, which protocols use to pace packet trains.
"""

from collections import deque

from repro.radio.packet import BROADCAST, Frame
from repro.sim.rng import derive_rng

#: Before its first carrier sample a frame waits a uniform draw over
#: this window (ms).
INITIAL_BACKOFF_MIN_MS = 0.5
INITIAL_BACKOFF_MAX_MS = 12.0
#: After a busy carrier sample it waits a uniform draw over this one (ms).
CONGESTION_BACKOFF_MIN_MS = 2.0
CONGESTION_BACKOFF_MAX_MS = 30.0

# Exact (11.5 and 28.0), so ``lo + span * random()`` -- random.uniform's
# own expression, without the call -- draws what uniform(lo, hi) would.
_INITIAL_SPAN_MS = INITIAL_BACKOFF_MAX_MS - INITIAL_BACKOFF_MIN_MS
_CONGESTION_SPAN_MS = CONGESTION_BACKOFF_MAX_MS - CONGESTION_BACKOFF_MIN_MS


class CsmaMac:
    """Carrier-sense MAC bound to one radio and channel."""

    def __init__(self, sim, radio, channel, seed=0):
        self.sim = sim
        self.radio = radio
        self.channel = channel
        self._rng = derive_rng(seed, "mac", radio.node_id)
        self._queue = deque()
        self._pending_event = None
        self._busy = False  # a frame is in backoff or on the air
        self._in_flight = None  # the frame on the air
        # Client hooks
        self.on_receive = None  # fn(frame)
        self.on_send_done = None  # fn(payload)
        # Counters
        self.congestion_backoffs = 0
        self.frames_queued = 0
        radio.on_frame = self._deliver

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, payload, payload_bytes, dst=BROADCAST):
        """Queue a protocol message for broadcast (or logical unicast)."""
        if not self.radio.is_on:
            raise RuntimeError(
                f"node {self.radio.node_id}: MAC send with radio off"
            )
        frame = Frame(self.radio.node_id, payload, payload_bytes, dst)
        self._queue.append(frame)
        self.frames_queued += 1
        self._pump()
        return frame

    def pending(self):
        """Number of frames not yet fully transmitted (queued, in
        backoff, or on the air)."""
        return len(self._queue) + (self._in_flight is not None)

    def reset(self):
        """Drop queued frames *and* forget any in-flight transmission.

        Call this together with ``radio.turn_off()``: the channel aborts the
        frame on the air, so the MAC must not keep waiting for its
        completion callback.
        """
        self._queue.clear()
        if self._pending_event is not None:
            self.sim.cancel(self._pending_event)
            self._pending_event = None
        self._busy = False
        self._in_flight = None

    def _pump(self):
        if self._busy or not self._queue or not self.radio.is_on:
            return
        self._busy = True
        delay = INITIAL_BACKOFF_MIN_MS + _INITIAL_SPAN_MS * self._rng.random()
        self._pending_event = self.sim.schedule(delay, self._attempt)

    def _attempt(self):
        self._pending_event = None
        radio = self.radio
        if not radio.is_on or not self._queue:
            self._busy = False
            return
        if self.channel.carrier_busy(radio.node_id):
            self.congestion_backoffs += 1
            delay = CONGESTION_BACKOFF_MIN_MS \
                + _CONGESTION_SPAN_MS * self._rng.random()
            self._pending_event = self.sim.schedule(delay, self._attempt)
            return
        frame = self._in_flight = self._queue.popleft()
        self.channel.transmit(radio, frame, on_done=self._sent)

    def _sent(self):
        frame = self._in_flight
        self._busy = False
        self._in_flight = None
        if self.on_send_done is not None:
            self.on_send_done(frame.payload)
        if self._queue:  # frames wait behind this one
            self._pump()

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _deliver(self, frame):
        dst = frame.dst
        if dst != BROADCAST and dst != self.radio.node_id:
            return
        if self.on_receive is not None:
            self.on_receive(frame)
