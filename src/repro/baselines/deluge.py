"""Deluge (Hui & Culler, SenSys 2004), the paper's main comparator.

Like MNP, Deluge pipelines a paged image (pages == our segments) using an
advertise/request/data handshake; *unlike* MNP it has

* no sender selection -- any node holding a requested page serves it, so
  several senders can stream concurrently in one neighborhood, colliding
  at common receivers (the hidden-terminal "slow diagonal" dynamic the
  paper cites from Hui & Culler's own measurement); and
* no sleeping -- the radio stays on for the entire reprogramming period,
  so a node's idle-listening time equals the completion time.  This is
  the basis of the paper's Section 5 energy comparison.

Advertisements are governed by a Trickle timer: suppressed when the
neighborhood already heard a consistent summary, reset to the fast rate
when new data appears.

The implementation follows the published protocol's structure (MAINTAIN /
RX / TX roles, request suppression, page-completion Trickle reset) at the
same level of abstraction as our MNP implementation so the comparison is
apples-to-apples.
"""

from repro.baselines.base import Announcement, BaselineNode
from repro.baselines.trickle import TrickleTimer
from repro.core.messages import DataPacket
from repro.experiments.common import register_protocol


class Summary(Announcement):
    """Trickle-advertised object profile: version + complete-page count."""

    __slots__ = ("gamma",)

    def __init__(self, source_id, program_id, n_segments, segment_packets,
                 last_seg_packets, gamma):
        super().__init__(source_id, program_id, n_segments, segment_packets,
                         last_seg_packets)
        self.gamma = gamma

    def wire_bytes(self):
        return 2 + 1 + 1 + 1 + 1 + 1


class PageRequest:
    """Request for the packets of one page, with the requester's missing
    bitmap; broadcast so neighbors can suppress duplicate requests."""

    __slots__ = ("requester_id", "dest_id", "page", "missing")

    def __init__(self, requester_id, dest_id, page, missing):
        self.requester_id = requester_id
        self.dest_id = dest_id
        self.page = page
        self.missing = missing

    def wire_bytes(self):
        return 2 + 2 + 1 + self.missing.wire_bytes()


class DelugeNode(BaselineNode):
    """One Deluge node.

    The data plane sits behind a few hooks -- the page request, the TX
    round (check, begin, merge, next packet) and the store of one data
    frame -- so coded Deluge swaps it and keeps the control plane.
    """

    __slots__ = ("trickle", "_request_timer", "_rx_timer", "_request_dest",
                 "_requests_left", "_tx_page", "_tx_vector", "_tx_timer")

    MAINTAIN = "maintain"
    RX = "rx"
    TX = "tx"

    #: Deluge's roles.  A sender finishes its page before it asks for
    #: one (transmit has priority over receive), so there is no TX -> RX.
    TRANSITIONS = {
        MAINTAIN: {RX, TX},
        RX: {MAINTAIN, TX},
        TX: {MAINTAIN},
    }

    #: Trickle's summary interval bounds (ms) and suppression constant.
    TAU_LOW_MS = 2_000.0
    TAU_HIGH_MS = 60_000.0
    SUPPRESSION_K = 1
    #: A page request waits a uniform draw up to this long (ms), so a
    #: neighbour asking for the same page can suppress it.
    REQUEST_BACKOFF_MS = 500.0
    #: Requests for one page before the node gives up and maintains.
    REQUEST_RETRIES = 3

    # The payload classes _on_frame dispatches on.
    _REQUEST_TYPE = PageRequest
    _DATA_TYPE = DataPacket

    def __init__(self, mote, config=None, image=None):
        super().__init__(mote, config, image, state=self.MAINTAIN)
        self.trickle = TrickleTimer(
            self.sim, mote.rng, self._send_summary,
            tau_low_ms=self.TAU_LOW_MS, tau_high_ms=self.TAU_HIGH_MS,
            k=self.SUPPRESSION_K,
        )
        # RX side
        self._request_timer = mote.new_timer(self._send_request, "dreq")
        self._rx_timer = mote.new_timer(self._on_rx_timeout, "drx")
        self._request_dest = None
        self._requests_left = 0
        # TX side
        self._tx_page = 0
        self._tx_vector = None
        self._tx_timer = mote.new_timer(self._send_next_data, "dtx")

    # ------------------------------------------------------------------
    def start(self):
        self.mote.wake_radio()
        self.trickle.start()

    def power_cycle(self):
        # The page being requested, received or served is forgotten with
        # the timers that drove it; only MAINTAIN asks for pages again.
        for timer in (self._request_timer, self._rx_timer, self._tx_timer):
            timer.stop()
        self._reset_state(self.MAINTAIN)
        super().power_cycle()

    # ------------------------------------------------------------------
    # MAINTAIN: Trickle summaries
    # ------------------------------------------------------------------
    def _send_summary(self):
        if self.program is None or self.state != self.MAINTAIN:
            return
        self.send(Summary.of_node(self, self.rvd_seg))

    def _handle_summary(self, s):
        # Summaries are unsigned: a secured node adopts only the version
        # its pre-provisioned manifest vouches for.
        self._adopt_version(s)
        if self.program is None or s.program_id != self.program.program_id:
            return
        if s.gamma == self.rvd_seg:
            self.trickle.heard_consistent()
        elif s.gamma > self.rvd_seg:
            # They are ahead of us: inconsistency; go ask for our next page.
            self.trickle.reset()
            if self.state == self.MAINTAIN \
                    and not self._request_timer.running:
                self._request_dest = s.source_id
                self._requests_left = self.REQUEST_RETRIES
                self._request_timer.start(
                    self.mote.rng.uniform(0, self.REQUEST_BACKOFF_MS)
                )
        else:
            # They are behind: our next summary will trigger their request.
            self.trickle.reset()

    def _stop_sending_old_version(self):
        self.trickle.reset()
        if self.state == self.TX:
            # The page being streamed belongs to the old version.
            self._tx_timer.stop()
            self._reset_state(self.MAINTAIN)

    # ------------------------------------------------------------------
    # RX: requesting and receiving a page
    # ------------------------------------------------------------------
    def _send_request(self):
        if self.has_full_image or self.program is None \
                or self.state == self.TX:
            return
        if self._requests_left <= 0:
            self._set_state(self.MAINTAIN)
            return
        self._requests_left -= 1
        self.send(self._page_request(self.rvd_seg + 1))
        self._set_state(self.RX)
        self.parent = self._request_dest
        self._report_parent()
        self._rx_timer.start(2 * self._segment_time_ms())

    def _page_request(self, page):
        """Our request for ``page``: the bitmap of what we miss."""
        return PageRequest(self.node_id, self._request_dest, page,
                           self._missing_for(page).copy())

    def _on_rx_timeout(self):
        if self.state != self.RX:
            return
        if self._requests_left > 0:
            self._send_request()
        else:
            self._set_state(self.MAINTAIN)

    def _handle_request(self, req):
        if self.program is None:
            return
        if req.dest_id == self.node_id and 1 <= req.page <= self.rvd_seg:
            if not self._fits_page(req):
                return  # corrupted header: does not fit the page
            if self.state == self.TX:
                if req.page == self._tx_page:
                    self._merge_tx_round(req)
                return
            if self.state == self.RX:
                # Serve anyway -- Deluge prioritizes transmit over receive.
                self._rx_timer.stop()
            self._set_state(self.TX)
            self._tx_page = req.page
            self._begin_tx_round(req)
            self._report_sender(req.page, 1)
            self._send_next_data()
        elif req.page == self.rvd_seg + 1 and self._request_timer.running \
                and self.state != self.TX:
            # Someone else just asked for the page we need: suppress our
            # own request and snoop on the answer.  A sender finishes its
            # page first.
            self._request_timer.stop()
            self._set_state(self.RX)
            self.parent = req.dest_id
            self._rx_timer.start(2 * self._segment_time_ms())

    # ------------------------------------------------------------------
    # TX: streaming a page
    # ------------------------------------------------------------------
    def _fits_page(self, req):
        return req.missing.n == self.program.n_packets(req.page)

    def _begin_tx_round(self, req):
        self._tx_vector = req.missing.copy()

    def _merge_tx_round(self, req):
        """Another requester for the page in flight: serve its misses
        in the same round."""
        if req.missing.n == self._tx_vector.n:
            self._tx_vector.union(req.missing)

    def _next_tx_packet(self):
        """The round's next data packet, or None once it is done."""
        packet_id = self._tx_vector.first_set()
        if packet_id is None:
            return None
        self._tx_vector.clear(packet_id)
        return DataPacket(
            self.node_id, self._tx_page, packet_id,
            self._packet_payload(self._tx_page, packet_id),
        )

    def _send_next_data(self):
        if self.state != self.TX:
            return
        packet = self._next_tx_packet()
        if packet is None:
            self._set_state(self.MAINTAIN)
            return
        self.send(packet)

    def _on_send_done(self, payload):
        if isinstance(payload, DataPacket) and self.state == self.TX:
            self._tx_timer.start(self.data_gap_ms)

    # ------------------------------------------------------------------
    def _handle_data(self, msg):
        if self.program is None or self.has_full_image \
                or msg.seg_id != self.rvd_seg + 1:
            return
        if self._store_data(msg) and self.state == self.RX:
            self._rx_timer.start(2 * self._segment_time_ms())
        if self.segment_complete(msg.seg_id):
            self.advance_progress()
            self.trickle.reset()  # new data: advertise fast
            if self.state == self.RX:
                self._rx_timer.stop()
                self._set_state(self.MAINTAIN)

    def _store_data(self, msg):
        """Store one data frame of the page we need; True if new."""
        return self.store_packet(msg.seg_id, msg.packet_id, msg.payload)

    def _on_frame(self, frame):
        msg = frame.payload
        if isinstance(msg, Summary):
            self._handle_summary(msg)
        elif isinstance(msg, self._REQUEST_TYPE):
            self._handle_request(msg)
        elif isinstance(msg, self._DATA_TYPE):
            self._handle_data(msg)


register_protocol("deluge", DelugeNode)
