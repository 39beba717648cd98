"""Coded Deluge: Deluge's control plane over a network-coded data plane.

Keeps everything that makes Deluge *Deluge* -- Trickle-governed
summaries, MAINTAIN/RX/TX roles, request suppression, TX-over-RX
priority -- but replaces per-packet page requests and retransmissions
with the rank machinery of :mod:`repro.core.coding`: a requester reports
its decoder rank for the next page (:class:`CodedPageRequest`), and a
server streams ``deficit + overhead`` random linear combinations
(:class:`~repro.core.messages.CodedDataPacket`) of the whole page.  Any
rank-deficit's worth of innovative combinations completes the page
regardless of *which* transmissions were lost, which is exactly where
stock Deluge's bitmap requests go quadratic under loss.
"""

from repro.baselines.deluge import DelugeConfig, DelugeNode, Summary
from repro.core.coding import CodedSegmentTracker, GenerationEncoder
from repro.core.messages import CodedDataPacket
from repro.experiments.common import register_protocol
from repro.hardware.eeprom import EepromError
from repro.sim.rng import derive_rng

#: Extra coded packets per TX round beyond the reported rank deficit.
CODED_OVERHEAD = 2

DEFAULT_FIELD = "gf256"


class CodedPageRequest:
    """Rank-report page request: ``rank`` of ``n`` combinations held.

    Deliberately *not* a :class:`~repro.baselines.deluge.PageRequest`
    subclass -- stock and coded Deluge never share an air space, and the
    wire format (two counters instead of a bitmap) is the point.
    """

    __slots__ = ("requester_id", "dest_id", "page", "n", "rank")

    def __init__(self, requester_id, dest_id, page, n, rank):
        self.requester_id = requester_id
        self.dest_id = dest_id
        self.page = page
        self.n = n
        self.rank = rank

    def deficit(self):
        return max(0, self.n - self.rank)

    def wire_bytes(self):
        return 2 + 2 + 1 + 1 + 1


class CodedDelugeNode(DelugeNode):
    """One coded-Deluge node (see module docstring)."""

    def __init__(self, mote, config=None, image=None, field=DEFAULT_FIELD,
                 overhead=CODED_OVERHEAD):
        self.field = field
        self.overhead = overhead
        self._encoders = {}  # (program_id, page) -> GenerationEncoder
        self._tx_remaining = 0
        super().__init__(mote, config=config, image=image)

    # ------------------------------------------------------------------
    # Rank-tracking receiver state
    # ------------------------------------------------------------------
    def missing_for(self, seg_id):
        tracker = self._seg_missing.get(seg_id)
        if tracker is None:
            tracker = CodedSegmentTracker(
                self.program.n_packets(seg_id), field=self.field
            )
            self._seg_missing[seg_id] = tracker
        return tracker

    # ------------------------------------------------------------------
    # RX: request by rank, absorb combinations
    # ------------------------------------------------------------------
    def _send_request(self):
        if self.has_full_image or self.program is None:
            return
        if self.role == self.TX:
            return
        if self._requests_left <= 0:
            self.role = self.MAINTAIN
            return
        self._requests_left -= 1
        page = self.rvd_seg + 1
        tracker = self.missing_for(page)
        request = CodedPageRequest(
            self.node_id, self._request_dest, page,
            tracker.n, tracker.n - tracker.count(),
        )
        self.send(request)
        self.role = self.RX
        self.parent = self._request_dest
        self.sim.tracer.emit(
            "proto.parent", node=self.node_id, parent=self.parent
        )
        self._rx_timer.start(2 * self._page_time_ms())

    def _handle_data(self, msg):
        if self.program is None or not isinstance(msg, CodedDataPacket):
            return
        page = msg.seg_id
        if page != self.rvd_seg + 1 \
                or not 1 <= page <= self.program.n_segments:
            return
        tracker = self.missing_for(page)
        if tracker.absorb(msg.coeffs, msg.payload, msg.tail_len):
            if self.role == self.RX:
                self._rx_timer.start(2 * self._page_time_ms())
        if tracker.decoded and not tracker.is_empty():
            # A tampered combination poisons the whole decoder matrix: a
            # mismatch quarantines the entire page, and the
            # request/timeout loop refetches it from scratch.
            if not self._verify_segment(page, tracker.decoded_packets):
                return
            try:
                tracker.flush(
                    lambda pid, data: self.mote.eeprom.write(
                        self._flash_key(page, pid), data
                    )
                )
            except EepromError:
                # Baseline policy: leave the page incomplete; the normal
                # request/timeout loop retries and the flush is resumed
                # on the next received combination.
                pass
        if self.segment_complete(page):
            self.advance_progress()
            self.trickle.reset()  # new data: advertise fast
            if self.role == self.RX:
                self._rx_timer.stop()
                self.role = self.MAINTAIN

    # ------------------------------------------------------------------
    # TX: stream coded combinations
    # ------------------------------------------------------------------
    def _handle_request(self, req):
        if self.program is None:
            return
        if req.dest_id == self.node_id and 1 <= req.page <= self.rvd_seg:
            if req.n != self.program.n_packets(req.page):
                return  # corrupted header: geometry does not fit the page
            need = req.deficit() + self.overhead
            if self.role == self.TX:
                if req.page == self._tx_page:
                    # Another requester for the page in flight: stretch
                    # the round to the largest outstanding deficit (the
                    # coded analog of stock's bitmap union).
                    self._tx_remaining = max(self._tx_remaining, need)
                return
            if self.role == self.RX:
                # Serve anyway -- Deluge prioritizes transmit over receive.
                self._rx_timer.stop()
            self.role = self.TX
            self._tx_page = req.page
            self._tx_remaining = need
            self.sim.tracer.emit(
                "proto.sender", node=self.node_id, seg=req.page, req_ctr=1
            )
            self._send_next_data()
        elif req.page == self.rvd_seg + 1 and self._request_timer.running:
            # Someone else just asked for the page we need: suppress our
            # own request and snoop -- every overheard combination counts.
            self._request_timer.stop()
            self.role = self.RX
            self.parent = req.dest_id
            self._rx_timer.start(2 * self._page_time_ms())

    def _encoder_for(self, page):
        key = (self.program.program_id, page)
        encoder = self._encoders.get(key)
        if encoder is None:
            n = self.program.n_packets(page)
            packets = [self._packet_payload(page, pid) for pid in range(n)]
            encoder = GenerationEncoder(
                packets,
                derive_rng(self.mote.seed, "coding", self.node_id,
                           self.program.program_id, page),
                field=self.field,
            )
            self._encoders[key] = encoder
        return encoder

    def _send_next_data(self):
        if self.role != self.TX:
            return
        if self._tx_remaining <= 0:
            self.role = self.MAINTAIN
            return
        self._tx_remaining -= 1
        encoder = self._encoder_for(self._tx_page)
        coeffs, payload = encoder.next_coded()
        self.send(CodedDataPacket(
            self.node_id, self._tx_page, coeffs, payload,
            tail_len=encoder.tail_len, field=self.field,
        ))

    def _sample_data_packet(self):
        n = self.program.segment_packets if self.program else 32
        return CodedDataPacket(
            self.node_id, 1, (0,) * n, b"\x00" * 23, tail_len=23,
            field=self.field,
        )

    # ------------------------------------------------------------------
    def _on_frame(self, frame):
        msg = frame.payload
        if isinstance(msg, Summary):
            self._handle_summary(msg)
        elif isinstance(msg, CodedPageRequest):
            self._handle_request(msg)
        elif isinstance(msg, CodedDataPacket):
            self._handle_data(msg)

    def __repr__(self):
        progress = f"{self.rvd_seg}/{self.program.n_segments}" \
            if self.program else "?"
        return f"<CodedDelugeNode {self.node_id} {self.role} " \
               f"pages={progress}>"


def _make_coded_deluge(mote, config, image):
    return CodedDelugeNode(mote, config=config, image=image)


register_protocol("coded_deluge", _make_coded_deluge)
