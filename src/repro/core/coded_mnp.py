"""Coded MNP: random-linear network coding layered on the MNP engine.

``CodedMNPNode`` keeps the entire MNP control plane -- sender-selection
competition, StartDownload/EndDownload handshake, query/update repair,
the Fig. 4 state machine -- and swaps only the *data plane*
(:class:`repro.core.image_node.CodedImage`):

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
"""

from repro.core.coding import RankDemand
from repro.core.image_node import CODED_OVERHEAD, CodedImage
from repro.core.messages import CodedDataPacket, RankReport
from repro.core.mnp import MNPNode
from repro.experiments.common import register_protocol


class CodedMNPNode(CodedImage, MNPNode):
    """MNP with a network-coded data plane (see module docstring)."""

    __slots__ = ("_encoders", "_coded_remaining")  # CodedImage's

    # ------------------------------------------------------------------
    # Rank reports instead of bitmaps
    # ------------------------------------------------------------------
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
    def _plan_round(self, n_packets, on_demand):
        # Without demand (the ForwardVector ablation, or the basic
        # protocol rolling into a segment nobody reported on) the round
        # covers the whole generation, as stock streams every packet.
        if on_demand:
            deficit = min(self.forward_vector.count(), n_packets)
        else:
            deficit = n_packets
        self._coded_remaining = deficit + CODED_OVERHEAD
        return self._coded_remaining

    def _next_data_packet(self):
        return self._next_round_packet(self.offer_seg)

    def _next_repair_packet(self):
        if self._repair_vector.is_empty():
            return None
        self._repair_vector.take()
        return self._next_coded_packet(self.offer_seg)

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

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def _store_packet(self, msg):
        """Absorb one coded packet; True if it advanced this segment
        (the rank grew, or a decoded generation reached flash).

        A generation that fails its digest check or its flush fails the
        download, as a bad segment or a failed write does in stock.
        Plain (uncoded) DataPackets are dropped, and so are malformed
        coefficient headers, by the tracker.
        """
        if not isinstance(msg, CodedDataPacket):
            return False
        innovative, flushed, failure = self._absorb(msg)
        if failure is not None:
            self._fail(failure)
            return False
        return innovative or flushed

    def ram_footprint_bytes(self):
        total = super().ram_footprint_bytes()
        for encoder in self._encoders.values():
            total += encoder.ram_bytes()
        return total

    _HANDLERS = {
        **MNPNode._HANDLERS,
        # _HANDLERS dispatches on exact type, so the coded frame needs
        # its own entry; the inherited state logic applies unchanged
        # because _store_packet is overridden.
        CodedDataPacket: MNPNode._handle_data,
    }


register_protocol("coded_mnp", CodedMNPNode)
