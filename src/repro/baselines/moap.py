"""MOAP -- Multihop Over-the-Air Programming (Stathopoulos et al., 2003).

The paper's characterization (§5): MOAP disseminates hop-by-hop -- a node
must receive the *entire* image before it starts advertising -- uses a
simple publish/subscribe interface to limit the number of senders (but no
sender *selection*), and repairs losses with unicast NAKs against a
sliding window.

Modeling choices: the sliding window is represented by per-segment missing
bitmaps (same memory envelope, same NAK semantics at our abstraction
level); a publisher that overhears another node's data stream defers its
own publishing for a random backoff, which is the extent of MOAP's sender
suppression.  The radio is always on.
"""

from repro.baselines.base import Announcement, BaselineNode
from repro.core.messages import DataPacket
from repro.experiments.common import register_protocol


class Publish(Announcement):
    """A full-image holder offers the program."""

    __slots__ = ()


class Subscribe:
    """A receiver subscribes to a publisher's stream."""

    __slots__ = ("requester_id", "dest_id")

    def __init__(self, requester_id, dest_id):
        self.requester_id = requester_id
        self.dest_id = dest_id

    def wire_bytes(self):
        return 2 + 2


class EndOfImage:
    """Publisher finished its pass over the image."""

    __slots__ = ("source_id",)

    def __init__(self, source_id):
        self.source_id = source_id

    def wire_bytes(self):
        return 2


class Nak:
    """Unicast repair request for one segment's missing packets."""

    __slots__ = ("requester_id", "dest_id", "seg_id", "missing")

    def __init__(self, requester_id, dest_id, seg_id, missing):
        self.requester_id = requester_id
        self.dest_id = dest_id
        self.seg_id = seg_id
        self.missing = missing

    def wire_bytes(self):
        return 2 + 2 + 1 + self.missing.wire_bytes()


class MoapNode(BaselineNode):
    """One MOAP node."""

    __slots__ = ("_publish_timer", "_publish_interval", "_publishes_sent",
                 "_subscribers", "_stream_seg", "_stream_pkt",
                 "_stream_timer", "_repair_queue", "_repair_timer",
                 "_subscribe_timer", "_nak_timer", "_nak_rounds_left")

    LISTEN = "listen"  # no full image yet
    PUBLISH = "publish"  # advertising the full image
    STREAM = "stream"  # sending the image
    REPAIR = "repair"  # answering NAKs

    #: MOAP's roles: one cycle, entered once the whole image is held.
    TRANSITIONS = {
        LISTEN: {PUBLISH},
        PUBLISH: {STREAM},
        STREAM: {REPAIR},
        REPAIR: {PUBLISH},
    }

    #: A publisher sends PUBLISH_ROUNDS offers about PUBLISH_INTERVAL_MS
    #: apart (ms, jittered by half either way); with no subscriber, the
    #: interval grows by PUBLISH_BACKOFF_FACTOR up to PUBLISH_INTERVAL_MAX_MS.
    PUBLISH_INTERVAL_MS = 2_000.0
    PUBLISH_ROUNDS = 4
    PUBLISH_BACKOFF_FACTOR = 2.0
    PUBLISH_INTERVAL_MAX_MS = 60_000.0
    #: A subscriber answers a publish after a uniform draw up to this long
    #: (ms); the repair and NAK windows are multiples of it.
    SUBSCRIBE_BACKOFF_MS = 400.0
    #: NAK rounds a receiver tries before it waits for the next publish.
    NAK_ROUNDS = 3
    #: How long (ms, jittered) a publisher defers after overhearing another.
    DEFER_MS = 3_000.0

    def __init__(self, mote, config=None, image=None):
        super().__init__(mote, config, image,
                         state=self.LISTEN if image is None else self.PUBLISH)
        self._publish_timer = mote.new_timer(self._on_publish_timer, "mpub")
        self._publish_interval = self.PUBLISH_INTERVAL_MS
        self._publishes_sent = 0
        self._subscribers = set()
        # Streaming
        self._stream_seg = 1
        self._stream_pkt = 0
        self._stream_timer = mote.new_timer(self._send_next_data, "mtx")
        self._repair_queue = []  # (seg, pkt) pairs to retransmit
        self._repair_timer = mote.new_timer(self._on_repair_quiet, "mrep")
        # Receiving
        self._subscribe_timer = mote.new_timer(self._send_subscribe, "msub")
        self._nak_timer = mote.new_timer(self._on_nak_timer, "mnak")
        self._nak_rounds_left = 0

    # ------------------------------------------------------------------
    def start(self):
        self.mote.wake_radio()
        if self.state == self.PUBLISH:
            self._schedule_publish()

    # ------------------------------------------------------------------
    # Publisher side
    # ------------------------------------------------------------------
    def _schedule_publish(self, defer=False):
        base = self.DEFER_MS if defer else self._publish_interval
        self._publish_timer.start(base * self.mote.rng.uniform(0.5, 1.5))

    def _on_publish_timer(self):
        if self.state != self.PUBLISH:
            return
        if self._publishes_sent >= self.PUBLISH_ROUNDS:
            if self._subscribers:
                self._begin_stream()
                return
            self._publish_interval = min(
                self._publish_interval * self.PUBLISH_BACKOFF_FACTOR,
                self.PUBLISH_INTERVAL_MAX_MS,
            )
            self._publishes_sent = 0
        self.send(Publish.of_node(self))
        self._publishes_sent += 1
        self._schedule_publish()

    def _begin_stream(self):
        self._set_state(self.STREAM)
        self._publish_timer.stop()
        self._stream_seg = 1
        self._stream_pkt = 0
        self._report_sender(1, len(self._subscribers))
        self._send_next_data()

    def _send_next_data(self):
        if self.state == self.REPAIR:
            self._send_next_repair()
            return
        if self.state != self.STREAM:
            return
        if self._stream_seg > self.program.n_segments:
            self.send(EndOfImage(self.node_id))
            self._set_state(self.REPAIR)
            self._repair_timer.start(4 * self.SUBSCRIBE_BACKOFF_MS
                                     + 20 * self._per_packet_ms())
            return
        packet = DataPacket(
            self.node_id, self._stream_seg, self._stream_pkt,
            self._packet_payload(self._stream_seg, self._stream_pkt),
        )
        self._stream_pkt += 1
        if self._stream_pkt >= self.program.n_packets(self._stream_seg):
            self._stream_seg += 1
            self._stream_pkt = 0
        self.send(packet)

    def _send_next_repair(self):
        if not self._repair_queue:
            self._repair_timer.start(4 * self.SUBSCRIBE_BACKOFF_MS
                                     + 20 * self._per_packet_ms())
            return
        seg_id, packet_id = self._repair_queue.pop(0)
        packet = DataPacket(
            self.node_id, seg_id, packet_id,
            self._packet_payload(seg_id, packet_id),
        )
        self.send(packet)

    def _on_repair_quiet(self):
        if self.state != self.REPAIR:
            return
        # Quiet: pass complete.  Go back to (slow) publishing.
        self._set_state(self.PUBLISH)
        self._subscribers.clear()
        self._publishes_sent = 0
        self._schedule_publish()

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def _handle_publish(self, pub):
        self._adopt_version(pub)
        if self.state == self.LISTEN and not self.has_full_image:
            self.parent = pub.source_id
            if not self._subscribe_timer.running:
                self._subscribe_timer.start(
                    self.mote.rng.uniform(0, self.SUBSCRIBE_BACKOFF_MS)
                )
        elif self.state == self.PUBLISH and pub.source_id != self.node_id:
            # Another publisher nearby: defer (MOAP's sender suppression).
            self._schedule_publish(defer=True)

    def _send_subscribe(self):
        if self.state != self.LISTEN or self.parent is None:
            return
        self.send(Subscribe(self.node_id, self.parent))
        self._report_parent()

    def _handle_subscribe(self, sub):
        if sub.dest_id != self.node_id:
            return
        if self.state in (self.PUBLISH, self.STREAM):
            self._subscribers.add(sub.requester_id)
            if self.state == self.PUBLISH and \
                    self._publishes_sent >= self.PUBLISH_ROUNDS:
                self._begin_stream()

    def _handle_data(self, msg):
        if self.program is None:
            return
        if self.state == self.PUBLISH:
            # Overhearing someone else's stream: defer our publishing.
            self._schedule_publish(defer=True)
            return
        if self.state != self.LISTEN or self.has_full_image:
            return
        if msg.seg_id > self.program.n_segments:
            return
        self.store_packet(msg.seg_id, msg.packet_id, msg.payload)
        self.advance_progress()
        if self.has_full_image:
            self._become_publisher()

    def _handle_end_of_image(self, msg):
        if self.state != self.LISTEN or self.program is None \
                or self.has_full_image or msg.source_id != self.parent:
            return
        self._nak_rounds_left = self.NAK_ROUNDS
        self._send_nak()

    def _first_incomplete_segment(self):
        for seg_id in range(1, self.program.n_segments + 1):
            if not self.segment_complete(seg_id):
                return seg_id
        return None

    def _send_nak(self):
        seg_id = self._first_incomplete_segment()
        if seg_id is None:
            return
        nak = Nak(self.node_id, self.parent, seg_id,
                  self._missing_for(seg_id).copy())
        self.send(nak)
        self._nak_timer.start(2 * self.SUBSCRIBE_BACKOFF_MS
                              + 40 * self._per_packet_ms())

    def _on_nak_timer(self):
        if self.state != self.LISTEN or self.has_full_image:
            return
        self._nak_rounds_left -= 1
        if self._nak_rounds_left > 0:
            self._send_nak()
        # else: give up; the next Publish round restarts the handshake.

    def _handle_nak(self, nak):
        if nak.dest_id != self.node_id or self.state != self.REPAIR:
            return
        if not 1 <= nak.seg_id <= self.rvd_seg:
            return  # corrupted header, or a segment we cannot serve
        if nak.missing.n != self.program.n_packets(nak.seg_id):
            return  # corrupted header: vector does not fit the segment
        idle = not self._repair_queue
        self._repair_timer.stop()
        for packet_id in nak.missing.iter_set():
            if (nak.seg_id, packet_id) not in self._repair_queue:
                self._repair_queue.append((nak.seg_id, packet_id))
        if idle and self._repair_queue:
            self._send_next_repair()

    def _stop_sending_old_version(self):
        if self.state != self.LISTEN:
            # Publishing, streaming or repairing the old version's image:
            # drop it and listen for the new one.
            self._drop_image_pass(self.LISTEN)

    def _drop_image_pass(self, state):
        """Stop publishing, streaming or repairing -- their timers, the
        subscribers and the repair queue go -- and jump to ``state``."""
        for timer in (self._publish_timer, self._stream_timer,
                      self._repair_timer):
            timer.stop()
        self._repair_queue.clear()
        self._subscribers.clear()
        self._reset_state(state)

    def power_cycle(self):
        # Timers, subscribers, the repair queue and the publish round
        # live in RAM and die with the MCU, and STREAM and REPAIR move on
        # only from a timer: a node that holds the image publishes it
        # again, any other listens.
        self._subscribe_timer.stop()
        self._nak_timer.stop()
        self._publishes_sent = 0
        self._publish_interval = self.PUBLISH_INTERVAL_MS
        self._drop_image_pass(
            self.PUBLISH if self.has_full_image else self.LISTEN)
        super().power_cycle()

    def _become_publisher(self):
        self._set_state(self.PUBLISH)
        self._nak_timer.stop()
        self._subscribe_timer.stop()
        self._publishes_sent = 0
        self._publish_interval = self.PUBLISH_INTERVAL_MS
        self._subscribers.clear()
        self._schedule_publish()

    # ------------------------------------------------------------------
    def _on_send_done(self, payload):
        if isinstance(payload, DataPacket) and \
                self.state in (self.STREAM, self.REPAIR):
            self._stream_timer.start(self.data_gap_ms)

    def _on_frame(self, frame):
        msg = frame.payload
        if isinstance(msg, Publish):
            self._handle_publish(msg)
        elif isinstance(msg, Subscribe):
            self._handle_subscribe(msg)
        elif isinstance(msg, DataPacket):
            self._handle_data(msg)
        elif isinstance(msg, EndOfImage):
            self._handle_end_of_image(msg)
        elif isinstance(msg, Nak):
            self._handle_nak(msg)


register_protocol("moap", MoapNode)
