"""XNP -- the TinyOS single-hop network reprogrammer.

XNP (in TinyOS since 1.0) is what MNP replaces: the base station broadcasts
the code image to every node *within its own radio range*; there is no
forwarding.  After the broadcast pass the base runs query rounds in which
nodes NAK their missing packets and the base retransmits.

In a multihop deployment XNP's coverage tops out at the base station's
neighborhood -- exactly the limitation quoted in the paper's introduction
-- which our coverage benchmark demonstrates.
"""

from repro.baselines.base import Announcement, BaselineNode
from repro.core.messages import DataPacket
from repro.experiments.common import register_protocol


class XnpAdv(Announcement):
    """Base station announces the incoming image."""

    __slots__ = ()


class XnpQuery:
    """Base station polls for losses after the broadcast pass."""

    __slots__ = ("source_id",)

    def __init__(self, source_id):
        self.source_id = source_id

    def wire_bytes(self):
        return 2


class XnpNak:
    """A node reports the missing packets of one segment."""

    __slots__ = ("requester_id", "seg_id", "missing")

    def __init__(self, requester_id, seg_id, missing):
        self.requester_id = requester_id
        self.seg_id = seg_id
        self.missing = missing

    def wire_bytes(self):
        return 2 + 1 + self.missing.wire_bytes()


class XnpNode(BaselineNode):
    """One XNP node; only the base station ever transmits data."""

    ANNOUNCE = "announce"  # base: advertising the image
    BROADCAST = "broadcast"  # base: sending packets
    COLLECT = "collect"  # base: NAK collection window after a query
    DONE = "done"  # base: query rounds spent
    RECEIVE = "receive"  # every other node, for good

    #: XNP's roles; only the base station moves.
    TRANSITIONS = {
        ANNOUNCE: {BROADCAST},
        BROADCAST: {COLLECT},
        COLLECT: {BROADCAST, DONE},
        DONE: set(),
        RECEIVE: set(),
    }

    #: The base announces the image ADV_REPEATS times, ADV_GAP_MS apart.
    ADV_REPEATS = 3
    ADV_GAP_MS = 500.0
    #: Query rounds after the broadcast pass.
    QUERY_ROUNDS = 5
    #: A node NAKs a query after a uniform draw up to this long (ms), and
    #: spaces its NAKs this far apart; a query collects for three times it.
    NAK_BACKOFF_MS = 300.0

    def __init__(self, mote, config=None, image=None):
        super().__init__(
            mote, config, image,
            state=self.RECEIVE if image is None else self.ANNOUNCE,
        )
        self.is_base = image is not None
        self._adv_left = self.ADV_REPEATS
        self._timer = mote.new_timer(self._on_timer, "xnp")
        self._stream = []  # (seg, pkt) pairs left to send this pass
        self._query_rounds_left = self.QUERY_ROUNDS
        self._nak_queue = []
        self._nak_timer = mote.new_timer(self._send_nak, "xnak")

    # ------------------------------------------------------------------
    def start(self):
        self.mote.wake_radio()
        if self.is_base:
            self._timer.start(self.ADV_GAP_MS)

    def power_cycle(self):
        # The timers, the pass being sent and the NAKs to send live in
        # RAM and die with the MCU: a base station announces and sends
        # the image again from the start.
        self._timer.stop()
        self._nak_timer.stop()
        self._stream = []
        self._nak_queue = []
        if self.is_base:
            self._adv_left = self.ADV_REPEATS
            self._query_rounds_left = self.QUERY_ROUNDS
            self._reset_state(self.ANNOUNCE)
        super().power_cycle()

    # ------------------------------------------------------------------
    # Base station side
    # ------------------------------------------------------------------
    def _on_timer(self):
        if self.state == self.BROADCAST:
            self._send_next()
        elif self.state == self.ANNOUNCE:
            if self._adv_left > 0:
                self._adv_left -= 1
                self.send(XnpAdv.of_node(self))
                self._timer.start(self.ADV_GAP_MS)
            else:
                self._set_state(self.BROADCAST)
                self._stream = [
                    (seg, pkt)
                    for seg in range(1, self.program.n_segments + 1)
                    for pkt in range(self.program.n_packets(seg))
                ]
                self.sim.tracer.emit(
                    "proto.sender", node=self.node_id, seg=1, req_ctr=0
                )
                self._send_next()
        elif self.state == self.COLLECT:
            # End of NAK collection window: retransmit or query again.
            if self._stream:
                self._set_state(self.BROADCAST)
                self._send_next()
            elif self._query_rounds_left > 0:
                self._send_query()
            else:
                self._set_state(self.DONE)

    def _send_next(self):
        if not self._stream:
            self._send_query()
            return
        seg_id, packet_id = self._stream.pop(0)
        packet = DataPacket(
            self.node_id, seg_id, packet_id,
            self._packet_payload(seg_id, packet_id),
        )
        self.send(packet)

    def _send_query(self):
        self._query_rounds_left -= 1
        self.send(XnpQuery(self.node_id))
        self._set_state(self.COLLECT)
        self._timer.start(3 * self.NAK_BACKOFF_MS)

    # ------------------------------------------------------------------
    # Node side
    # ------------------------------------------------------------------
    def _handle_adv(self, adv):
        if self.is_base:
            return
        if self._adopt_version(adv):
            self.parent = adv.source_id
            self.sim.tracer.emit(
                "proto.parent", node=self.node_id, parent=self.parent
            )

    def _handle_data(self, msg):
        if self.is_base or self.program is None or self.has_full_image:
            return
        self.store_packet(msg.seg_id, msg.packet_id, msg.payload)
        self.advance_progress()

    def _handle_query(self, _query):
        if self.is_base or self.program is None or self.has_full_image:
            return
        self._nak_queue = [
            seg for seg in range(1, self.program.n_segments + 1)
            if not self.segment_complete(seg)
        ]
        if self._nak_queue:
            self._nak_timer.start(
                self.mote.rng.uniform(0, self.NAK_BACKOFF_MS)
            )

    def _send_nak(self):
        if not self._nak_queue or self.has_full_image:
            return
        seg_id = self._nak_queue.pop(0)
        nak = XnpNak(self.node_id, seg_id, self._missing_for(seg_id).copy())
        self.send(nak)
        if self._nak_queue:
            self._nak_timer.start(self.NAK_BACKOFF_MS)

    def _handle_nak(self, nak):
        if self.state not in (self.COLLECT, self.BROADCAST):
            return
        if not 1 <= nak.seg_id <= self.program.n_segments:
            return  # corrupted header that survived the link CRC
        if nak.missing.n != self.program.n_packets(nak.seg_id):
            return  # corrupted header: vector does not fit the segment
        for packet_id in nak.missing.iter_set():
            pair = (nak.seg_id, packet_id)
            if pair not in self._stream:
                self._stream.append(pair)

    # ------------------------------------------------------------------
    def _on_send_done(self, payload):
        if isinstance(payload, DataPacket) and self.state == self.BROADCAST:
            self._timer.start(self.data_gap_ms)

    def _on_frame(self, frame):
        msg = frame.payload
        if isinstance(msg, XnpAdv):
            self._handle_adv(msg)
        elif isinstance(msg, DataPacket):
            self._handle_data(msg)
        elif isinstance(msg, XnpQuery):
            self._handle_query(msg)
        elif isinstance(msg, XnpNak):
            self._handle_nak(msg)


register_protocol("xnp", XnpNode)
