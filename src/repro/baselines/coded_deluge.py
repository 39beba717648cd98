"""Coded Deluge: Deluge's control plane over a network-coded data plane.

Keeps everything that makes Deluge *Deluge* -- Trickle-governed
summaries, MAINTAIN/RX/TX roles, request suppression, TX-over-RX
priority -- but replaces per-packet page requests and retransmissions
with the rank machinery of :class:`repro.core.image_node.CodedImage`: a
requester reports its decoder rank for the next page
(:class:`CodedPageRequest`), and a server streams ``deficit + overhead``
random linear combinations
(:class:`~repro.core.messages.CodedDataPacket`) of the whole page.  Any
rank-deficit's worth of innovative combinations completes the page
regardless of *which* transmissions were lost, which is exactly where
stock Deluge's bitmap requests go quadratic under loss.
"""

from repro.baselines.deluge import DelugeNode
from repro.core.image_node import CODED_OVERHEAD, CodedImage
from repro.core.messages import CodedDataPacket
from repro.experiments.common import register_protocol


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


class CodedDelugeNode(CodedImage, DelugeNode):
    """One coded-Deluge node (see module docstring)."""

    __slots__ = ("_encoders", "_coded_remaining")  # CodedImage's

    _REQUEST_TYPE = CodedPageRequest
    _DATA_TYPE = CodedDataPacket

    def _page_request(self, page):
        tracker = self._missing_for(page)
        return CodedPageRequest(self.node_id, self._request_dest, page,
                                tracker.n, tracker.n - tracker.count())

    def _fits_page(self, req):
        return req.n == self.program.n_packets(req.page)

    def _begin_tx_round(self, req):
        self._coded_remaining = req.deficit() + CODED_OVERHEAD

    def _merge_tx_round(self, req):
        # Stretch the round to the largest outstanding deficit (the
        # coded analog of stock's bitmap union).
        self._coded_remaining = max(self._coded_remaining,
                                    req.deficit() + CODED_OVERHEAD)

    def _next_tx_packet(self):
        return self._next_round_packet(self._tx_page)

    def _store_data(self, msg):
        # Every overheard combination counts.  A generation that fails
        # its digest check (quarantined whole) or its flush leaves the
        # page incomplete, and the request/timeout loop refetches it or
        # resumes the flush on the next combination.
        return self._absorb(msg)[0]


register_protocol("coded_deluge", CodedDelugeNode)
