"""Coded MNP: random-linear network coding layered on the MNP engine.

``CodedMNPNode`` keeps the entire MNP control plane -- sender-selection
competition, StartDownload/EndDownload handshake, query/update repair,
the Fig. 4 state machine -- and swaps only the *data plane*:

* receivers track a decoder **rank** per segment instead of a per-packet
  MissingVector, and advertise it as a :class:`RankReport`;
* a winning sender streams ``max(reported deficit) + overhead`` random
  linear combinations (:class:`CodedDataPacket`) of the whole segment
  instead of the union of requested packet ids;
* any ``n`` linearly independent coded packets -- from any mix of
  senders and repair rounds -- rebuild the segment by Gaussian
  elimination, after which it is flushed to EEPROM exactly once per
  packet (write-once preserved).

Under loss this collapses the MissingVector retransmission dance: a
retransmitted coded packet is useful to *every* listener that is not yet
at full rank, so one repair round serves a whole neighborhood's worth of
uncorrelated losses.

Coefficient draws come from ``derive_rng(seed, "coding", node, program,
segment)`` -- disjoint from every other stream in the simulator -- so
coded runs are pure functions of (spec, seed), and stock-MNP runs are
untouched (no stock code path draws from, or even creates, these
streams).
"""

from repro.core.coding import CodedSegmentTracker, GenerationEncoder, RankDemand
from repro.core.messages import CodedDataPacket, RankReport, StartDownload
from repro.core.mnp import MNPNode
from repro.core.states import MNPState
from repro.hardware.eeprom import EepromError
from repro.sim.rng import derive_rng

#: Extra coded packets streamed beyond the largest reported deficit, to
#: ride out losses and the (tiny) chance of a non-innovative draw.
CODED_OVERHEAD = 2

DEFAULT_FIELD = "gf256"


class CodedMNPNode(MNPNode):
    """MNP with a network-coded data plane (see module docstring)."""

    def __init__(self, mote, config=None, image=None, field=DEFAULT_FIELD,
                 overhead=CODED_OVERHEAD):
        self.field = field
        self.overhead = overhead
        self._encoders = {}  # (program_id, seg_id) -> GenerationEncoder
        self._coded_remaining = 0
        super().__init__(mote, config=config, image=image)

    # ------------------------------------------------------------------
    # Loss tracking: rank instead of bitmaps
    # ------------------------------------------------------------------
    def _missing_for(self, seg_id):
        tracker = self._seg_missing.get(seg_id)
        if tracker is None:
            tracker = CodedSegmentTracker(
                self.program.n_packets(seg_id), field=self.field
            )
            self._seg_missing[seg_id] = tracker
        return tracker

    def _loss_payload(self, seg_id):
        tracker = self._missing_for(seg_id)
        # Effective rank counts only what is safely in EEPROM once the
        # generation decodes, so a node whose flush hit a transient
        # EEPROM fault keeps asking for repair until the flush lands.
        return RankReport(tracker.n, tracker.n - tracker.count())

    def _merge_loss(self, demand, loss):
        # Overrides the stock staticmethod with an instance method; the
        # call sites (`self._merge_loss(...)`) work for both.
        if isinstance(loss, RankReport):
            demand.merge(loss)

    def _new_forward_vector(self, n_packets):
        return RankDemand(n_packets)

    def _new_repair_vector(self, n_packets):
        return RankDemand(n_packets)

    # ------------------------------------------------------------------
    # Sender side: stream coded packets until demand is covered
    # ------------------------------------------------------------------
    def _encoder_for(self, seg_id):
        key = (self.program.program_id, seg_id)
        encoder = self._encoders.get(key)
        if encoder is None:
            n = self.program.n_packets(seg_id)
            # The generation is buffered in RAM (n x 23 B, charged in
            # ram_footprint_bytes); EEPROM reads are paid once per
            # buffer fill rather than once per coded packet.
            packets = [self._packet_payload(seg_id, pid) for pid in range(n)]
            encoder = GenerationEncoder(
                packets,
                derive_rng(self.mote.seed, "coding", self.node_id,
                           self.program.program_id, seg_id),
                field=self.field,
            )
            self._encoders[key] = encoder
        return encoder

    def _send_coded(self, seg_id):
        encoder = self._encoder_for(seg_id)
        coeffs, payload = encoder.next_coded()
        packet = CodedDataPacket(
            self.node_id, seg_id, coeffs, payload,
            tail_len=encoder.tail_len, field=self.field,
        )
        self.mote.mac.send(packet, packet.wire_bytes())

    def _round_budget(self, n_packets):
        """Coded packets to stream this round for ``n_packets`` demand."""
        if self.config.forward_vector and self.forward_vector is not None:
            deficit = min(self.forward_vector.count(), n_packets)
        else:
            # ForwardVector ablation: no demand aggregation, stream the
            # whole generation (mirrors stock MNP streaming every packet).
            deficit = n_packets
        return deficit + self.overhead

    def _concede_advertisement(self, adv):
        # A coded round is deficit-sized, so the winner's whole transfer
        # can finish inside the loser's nap: a requester that sleeps
        # here never hears the StartDownload it just solicited, and on a
        # quiet channel the round replays verbatim forever (livelock).
        # When the winner offers the very segment we need next, stay in
        # ADVERTISE -- its StartDownload moves us to DOWNLOAD.  Stock
        # rounds stream whole segments that outlast the nap, so stock
        # keeps the paper's concession sleep.
        if self._needs_code_from(adv) and adv.offer_seg_id == self.rvd_seg + 1:
            return
        super()._concede_advertisement(adv)

    def _enter_forward(self):
        self._stop_all_timers()
        self._set_state(MNPState.FORWARD)
        self.sender_rounds += 1
        if self.config.battery_aware_power:
            self.mote.radio.power_level = self.mote.config.power_level
        n_packets = self.program.n_packets(self.offer_seg)
        self._coded_remaining = self._round_budget(n_packets)
        self.sim.tracer.emit(
            "mnp.sender", node=self.node_id, seg=self.offer_seg,
            req_ctr=self.req_ctr, packets=self._coded_remaining,
        )
        start = StartDownload(self.node_id, self.offer_seg, n_packets)
        self.mote.mac.send(start, start.wire_bytes())
        # Coded data packets flow from _on_send_done pacing, as in stock.

    def _send_next_data(self):
        if self.state not in (MNPState.FORWARD, MNPState.QUERY):
            return
        if not self.mote.radio.is_on:
            # Brownout mid-stream: same resume-where-left-off policy.
            self._fwd_timer.start(self.config.data_gap_ms)
            return
        if self.state == MNPState.QUERY:
            self._send_next_repair()
            return
        if self._coded_remaining <= 0:
            self._finish_forward()
            return
        self._coded_remaining -= 1
        self._send_coded(self.offer_seg)

    def _segment_finished(self):
        # Basic (non-pipelined) protocol: roll into the next segment with
        # a full generation's worth of coded packets -- losses beyond the
        # requested segment are unknown, exactly like stock streaming the
        # whole segment.
        if not self.config.pipelining and self.offer_seg < self.rvd_seg:
            next_seg = self.offer_seg + 1
            self._set_state(MNPState.FORWARD)
            self.offer_seg = next_seg
            n_packets = self.program.n_packets(next_seg)
            self.forward_vector = self._new_forward_vector(n_packets)
            self._coded_remaining = n_packets + self.overhead
            start = StartDownload(self.node_id, next_seg, n_packets)
            self.mote.mac.send(start, start.wire_bytes())
        else:
            self._enter_sleep("finished forwarding")

    def _send_next_repair(self):
        if self._repair_vector is None or self._repair_vector.is_empty():
            self._query_timer.start(self._query_quiet_ms())
            return
        self._repair_vector.take()
        self._send_coded(self.offer_seg)

    # ------------------------------------------------------------------
    # Receiver side: absorb combinations, flush on full rank
    # ------------------------------------------------------------------
    def _store_packet(self, msg):
        """Absorb one coded packet; True if it advanced this segment.

        Progress is either an innovative combination (rank grew) or a
        successful EEPROM flush of a decoded generation.  Plain (uncoded)
        DataPackets and malformed coefficient headers are dropped by the
        tracker, mirroring stock's corrupted-header guard.
        """
        if not isinstance(msg, CodedDataPacket):
            return False
        tracker = self._missing_for(msg.seg_id)
        progressed = tracker.absorb(msg.coeffs, msg.payload, msg.tail_len)
        if tracker.decoded and not tracker.is_empty():
            # A tampered coded packet poisons the whole decoder matrix,
            # so the decoded generation is checked before the flush and
            # quarantined whole on a mismatch.
            if not self._verify_segment(msg.seg_id, tracker.decoded_packets):
                self._fail("generation digest mismatch")
                return False
            try:
                flushed = tracker.flush(
                    lambda pid, data, seg=msg.seg_id: self.mote.eeprom.write(
                        self._flash_key(seg, pid), data
                    )
                )
            except EepromError:
                # Same policy as stock: fail the download; the tracker's
                # rank survives, so the retry only needs the flush.
                self._fail("eeprom write")
                return False
            progressed = progressed or flushed
        return progressed

    # ------------------------------------------------------------------
    # Accounting and fault hooks
    # ------------------------------------------------------------------
    def _sample_data_packet(self):
        """Honest coded airtime: the coefficient header rides every frame."""
        n = self.program.segment_packets if self.program else 32
        return CodedDataPacket(
            self.node_id, 1, (0,) * n, b"\x00" * 23, tail_len=23,
            field=self.field,
        )

    def ram_footprint_bytes(self):
        total = super().ram_footprint_bytes()
        for encoder in self._encoders.values():
            total += encoder.ram_bytes()
        return total

    def power_cycle(self):
        # A crash wipes the decoder matrices (RAM); what was flushed to
        # EEPROM survives.  Re-seed each tracker with unit-vector rows
        # read back from flash, then cold-boot the control plane.
        for seg_id, tracker in self._seg_missing.items():
            tracker.reboot(
                lambda pid, seg=seg_id: self.mote.eeprom.read(
                    self._flash_key(seg, pid)
                )
            )
        self._encoders.clear()
        self._coded_remaining = 0
        super().power_cycle()

    _HANDLERS = {
        **MNPNode._HANDLERS,
        # _HANDLERS dispatches on exact type, so the coded frame needs
        # its own entry; the inherited state logic applies unchanged
        # because _store_packet is overridden.
        CodedDataPacket: MNPNode._handle_data,
    }

    def __repr__(self):
        return (
            f"<CodedMNPNode {self.node_id} {self.state} "
            f"rvd={self.rvd_seg}"
            f"{'/' + str(self.program.n_segments) if self.program else ''}>"
        )


def _make_coded_mnp(mote, config, image):
    return CodedMNPNode(mote, config=config, image=image)


def _register():
    from repro.experiments.common import register_protocol

    register_protocol("coded_mnp", _make_coded_mnp)


_register()
