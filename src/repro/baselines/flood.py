"""Naive flooding: the broadcast-storm reference point.

Every node rebroadcasts every data packet the first time it hears it,
after a short random delay.  No handshake, no suppression, no repair --
this is the strawman that the broadcast storm literature (Ni et al.,
cited in §5) warns about.  It provides the collision-count upper bound the
suppression-scheme discussion is measured against: MNP and Deluge should
both beat it dramatically on messages sent and collisions, and flooding
generally fails the 100 %-coverage requirement because losses are never
repaired.
"""

from repro.baselines.base import Announcement, BaselineNode
from repro.core.messages import DataPacket
from repro.experiments.common import register_protocol


class FloodAdv(Announcement):
    """The base announces image geometry so receivers can track progress."""

    __slots__ = ()


class FloodNode(BaselineNode):
    """One flooding node."""

    #: A relay rebroadcasts after a uniform draw up to this long (ms).
    REBROADCAST_WINDOW_MS = 200.0
    #: The base announces the image ADV_REPEATS times, ADV_GAP_MS apart.
    ADV_REPEATS = 3
    ADV_GAP_MS = 300.0

    def __init__(self, mote, config=None, image=None):
        super().__init__(mote, config, image)
        self.is_base = image is not None
        self._outbox = []  # (seg, pkt) pairs awaiting rebroadcast
        self._tx_timer = mote.new_timer(self._send_next, "ftx")
        self._adv_left = self.ADV_REPEATS

    def start(self):
        self.mote.wake_radio()
        if self.is_base:
            self._tx_timer.start(self.ADV_GAP_MS)

    # ------------------------------------------------------------------
    def _send_next(self):
        if self._adv_left > 0 and self.is_base:
            self._adv_left -= 1
            self.send(FloodAdv.of_node(self))
            if self._adv_left > 0:
                self._tx_timer.start(self.ADV_GAP_MS)
            else:
                self._outbox = [
                    (seg, pkt)
                    for seg in range(1, self.program.n_segments + 1)
                    for pkt in range(self.program.n_packets(seg))
                ]
                self._tx_timer.start(self.data_gap_ms)
                self.sim.tracer.emit(
                    "proto.sender", node=self.node_id, seg=1, req_ctr=0
                )
            return
        if not self._outbox:
            return
        seg_id, packet_id = self._outbox.pop(0)
        packet = DataPacket(
            self.node_id, seg_id, packet_id,
            self._packet_payload(seg_id, packet_id),
        )
        self.send(packet)

    def _relay_adv(self):
        if self.program is None or not self.mote.radio.is_on:
            return
        self.send(FloodAdv.of_node(self))

    def _on_send_done(self, payload):
        if isinstance(payload, DataPacket) and self._outbox \
                and not self._tx_timer.running:
            self._tx_timer.start(self.data_gap_ms)

    def _stop_sending_old_version(self):
        # Queued rebroadcasts, and any announcement still due, are of the
        # old version.
        self._outbox.clear()
        self._adv_left = 0

    # ------------------------------------------------------------------
    def _on_frame(self, frame):
        msg = frame.payload
        if isinstance(msg, FloodAdv):
            if self._adopt_version(msg):
                self.parent = msg.source_id
                self.sim.tracer.emit(
                    "proto.parent", node=self.node_id, parent=self.parent
                )
                # Flood the announcement too, so nodes beyond the base's
                # range learn the image geometry.
                self.sim.schedule(
                    self.mote.rng.uniform(0, self.REBROADCAST_WINDOW_MS),
                    self._relay_adv,
                )
            return
        if not isinstance(msg, DataPacket) or self.program is None:
            return
        if self.is_base:
            return
        if msg.seg_id > self.program.n_segments:
            return
        if self.store_packet(msg.seg_id, msg.packet_id, msg.payload):
            self.parent = self.parent if self.parent is not None else msg.source_id
            # First time we hear this packet: schedule a rebroadcast.
            self._outbox.append((msg.seg_id, msg.packet_id))
            if not self._tx_timer.running:
                self._tx_timer.start(
                    self.mote.rng.uniform(0, self.REBROADCAST_WINDOW_MS)
                )
            self.advance_progress()


register_protocol("flood", FloodNode)
