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


class MacConfig:
    """Backoff parameters (milliseconds)."""

    def __init__(
        self,
        initial_backoff_min=0.5,
        initial_backoff_max=12.0,
        congestion_backoff_min=2.0,
        congestion_backoff_max=30.0,
    ):
        if initial_backoff_min < 0 or initial_backoff_max < initial_backoff_min:
            raise ValueError("invalid initial backoff window")
        if congestion_backoff_min < 0 or congestion_backoff_max < congestion_backoff_min:
            raise ValueError("invalid congestion backoff window")
        self.initial_backoff_min = initial_backoff_min
        self.initial_backoff_max = initial_backoff_max
        self.congestion_backoff_min = congestion_backoff_min
        self.congestion_backoff_max = congestion_backoff_max


class CsmaMac:
    """Carrier-sense MAC bound to one radio and channel."""

    def __init__(self, sim, radio, channel, config=None, seed=0):
        self.sim = sim
        self.radio = radio
        self.channel = channel
        self.config = config or MacConfig()
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

    def cancel_pending(self):
        """Drop all queued frames (called when a node goes to sleep).

        A frame already on the air is not recalled; turning the radio off
        aborts it at the channel level.
        """
        self._queue.clear()
        if self._pending_event is not None:
            self.sim.cancel(self._pending_event)
            self._pending_event = None
            self._busy = False

    def reset(self):
        """Drop queued frames *and* forget any in-flight transmission.

        Call this together with ``radio.turn_off()``: the channel aborts the
        frame on the air, so the MAC must not keep waiting for its
        completion callback.
        """
        self.cancel_pending()
        self._busy = False
        self._in_flight = None

    def _pump(self):
        if self._busy or not self._queue or not self.radio.is_on:
            return
        self._busy = True
        # ``lo + (hi - lo) * random()`` is random.uniform's own expression:
        # the same draws, without the call.
        config = self.config
        lo = config.initial_backoff_min
        delay = lo + (config.initial_backoff_max - lo) * self._rng.random()
        self._pending_event = self.sim.schedule(delay, self._attempt)

    def _attempt(self):
        self._pending_event = None
        radio = self.radio
        if not radio.is_on or not self._queue:
            self._busy = False
            return
        if self.channel.carrier_busy(radio.node_id):
            self.congestion_backoffs += 1
            config = self.config
            lo = config.congestion_backoff_min
            delay = lo + (config.congestion_backoff_max - lo) \
                * self._rng.random()
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
        self._pump()

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _deliver(self, frame):
        if frame.dst not in (BROADCAST, self.radio.node_id):
            return
        if self.on_receive is not None:
            self.on_receive(frame)
