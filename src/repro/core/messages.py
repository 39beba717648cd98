"""The MNP message vocabulary.

Six message types appear in the protocol description (§3, Fig. 4):

========================  ==========================================
Advertisement             announces a program/segment + the source's
                          ReqCtr (sender-selection currency)
DownloadRequest           broadcast, logically destined to one source;
                          echoes that source's ReqCtr (hidden-terminal
                          fix) and carries the requester's MissingVector
StartDownload             a sender won the competition and is about to
                          stream a segment
DataPacket                one packet of a segment (23 B payload)
EndDownload               the sender finished the segment
Query / RepairRequest     optional query/update phase (§3.3)
========================  ==========================================

Every class declares its serialized size so the channel charges honest
airtime; sizes assume 2-byte node ids, 1-byte program/segment ids and
counters, matching the Mica-2 implementation's packet layouts.
"""


class Advertisement:
    """Broadcast by a source in the advertise state (Fig. 2).

    ``high_seg_id`` is the highest segment the source holds (what it can
    offer); ``offer_seg_id`` is the segment it is currently collecting
    requests for (lowered toward outstanding demand, §3.1.2 rule 3).

    ``segment_packets``/``last_seg_packets`` describe the image geometry so
    a receiver can size its MissingVector before the first StartDownload
    (the paper fixes the segment size network-wide; only the last segment
    may be short).
    """

    __slots__ = ("source_id", "program_id", "n_segments", "high_seg_id",
                 "offer_seg_id", "req_ctr", "segment_packets",
                 "last_seg_packets", "image_crc", "group_id")

    def __init__(self, source_id, program_id, n_segments, high_seg_id,
                 offer_seg_id, req_ctr, segment_packets, last_seg_packets,
                 image_crc=None, group_id=0):
        self.source_id = source_id
        self.program_id = program_id
        self.n_segments = n_segments
        self.high_seg_id = high_seg_id
        self.offer_seg_id = offer_seg_id
        self.req_ctr = req_ctr
        self.segment_packets = segment_packets
        self.last_seg_packets = last_seg_packets
        self.image_crc = image_crc
        self.group_id = group_id

    def wire_bytes(self):
        # src, program, nseg, high, offer, reqctr, segpk, lastpk,
        # crc16, group
        return 2 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 2 + 1


class SignedAdvertisement(Advertisement):
    """An advertisement authenticated by the secure-OTA pipeline.

    Extends :class:`Advertisement` with the three security fields of
    :mod:`repro.core.auth`: the source's monotonic ``nonce`` (replay
    freshness), an HMAC-SHA256 ``tag`` over the advertisement fields
    bound to the carried manifest, and the signed
    :class:`~repro.core.auth.ImageManifest` itself.  Subclassing keeps
    every ``isinstance(msg, Advertisement)`` site working; protocol
    dispatch tables need their own entry (dispatch is exact-type, the
    same pattern as :class:`CodedDataPacket`).
    """

    __slots__ = ("nonce", "tag", "manifest")

    def __init__(self, source_id, program_id, n_segments, high_seg_id,
                 offer_seg_id, req_ctr, segment_packets, last_seg_packets,
                 image_crc=None, group_id=0, nonce=0, tag=b"", manifest=None):
        super().__init__(source_id, program_id, n_segments, high_seg_id,
                         offer_seg_id, req_ctr, segment_packets,
                         last_seg_packets, image_crc=image_crc,
                         group_id=group_id)
        self.nonce = nonce
        self.tag = tag
        self.manifest = manifest

    def wire_bytes(self):
        manifest_bytes = \
            self.manifest.encoded_bytes() if self.manifest else 0
        # base advertisement + nonce + HMAC tag + piggybacked manifest
        return super().wire_bytes() + 8 + 32 + manifest_bytes

    # ------------------------------------------------------------------
    # Authentication (see repro.core.auth)
    # ------------------------------------------------------------------
    def compute_tag(self, key):
        from repro.core.auth import adv_tag

        manifest_sig = self.manifest.signature if self.manifest else b""
        return adv_tag(key, self.source_id, self.program_id,
                       self.n_segments, self.high_seg_id,
                       self.offer_seg_id, self.req_ctr,
                       self.segment_packets, self.last_seg_packets,
                       self.group_id, self.image_crc, self.nonce,
                       manifest_sig)

    def sign(self, key):
        self.tag = self.compute_tag(key)
        return self

    def verify(self, key):
        """True iff the tag and the carried manifest both authenticate and
        the advertised version matches the manifest's signed version."""
        import hmac as _hmac

        if self.manifest is None or len(self.tag) != 32:
            return False
        if not _hmac.compare_digest(self.tag, self.compute_tag(key)):
            return False
        if self.manifest.program_id != self.program_id:
            return False
        return self.manifest.verify(key)


class LossSummary:
    """Radio-packet-sized substitute for a MissingVector when a segment
    is too large for its bitmap to fit one packet (§3.3 large-segment
    mode): the requester reports how many packets it is missing and the
    first missing id; the sender streams the tail from there."""

    __slots__ = ("n", "missing_count", "first_missing")

    def __init__(self, n, missing_count, first_missing):
        self.n = n
        self.missing_count = missing_count
        self.first_missing = first_missing

    def count(self):
        return self.missing_count

    def wire_bytes(self):
        return 2 + 2  # count, first id

    def __repr__(self):
        return (f"<LossSummary {self.missing_count}/{self.n} "
                f"from {self.first_missing}>")


class DownloadRequest:
    """Broadcast by a requester; ``dest_id`` names the advertising source.

    ``echo_req_ctr`` repeats the ReqCtr from the advertisement so nodes
    that could not hear the source (hidden terminals) still learn its
    standing in the competition (§3.1.1).
    """

    __slots__ = ("requester_id", "dest_id", "seg_id", "echo_req_ctr", "missing")

    def __init__(self, requester_id, dest_id, seg_id, echo_req_ctr, missing):
        self.requester_id = requester_id
        self.dest_id = dest_id
        self.seg_id = seg_id
        self.echo_req_ctr = echo_req_ctr
        self.missing = missing

    def wire_bytes(self):
        return 2 + 2 + 1 + 1 + self.missing.wire_bytes()


class StartDownload:
    """A sender announces it is about to stream ``seg_id``."""

    __slots__ = ("source_id", "seg_id", "n_packets")

    def __init__(self, source_id, seg_id, n_packets):
        self.source_id = source_id
        self.seg_id = seg_id
        self.n_packets = n_packets

    def wire_bytes(self):
        return 2 + 1 + 1


class DataPacket:
    """One packet of one segment."""

    __slots__ = ("source_id", "seg_id", "packet_id", "payload")

    def __init__(self, source_id, seg_id, packet_id, payload):
        self.source_id = source_id
        self.seg_id = seg_id
        self.packet_id = packet_id
        self.payload = payload

    def wire_bytes(self):
        return 2 + 1 + 1 + len(self.payload)


class RankReport:
    """Coded-MNP substitute for a MissingVector: the requester's decoder
    rank for the offered generation.  ``count()`` is the rank deficit --
    how many *innovative* coded packets the requester still needs --
    which is all a coded sender has to know (any fresh combination
    serves every listener at once)."""

    __slots__ = ("n", "rank")

    def __init__(self, n, rank):
        self.n = n
        self.rank = rank

    def count(self):
        return max(0, self.n - self.rank)

    def wire_bytes(self):
        return 1 + 1  # generation size, rank

    def __repr__(self):
        return f"<RankReport {self.rank}/{self.n}>"


class CodedDataPacket(DataPacket):
    """A random linear combination of one segment's packets.

    The generation id *is* the segment id; ``coeffs`` is the coefficient
    vector over the generation (one byte per packet in GF(2^8), one bit
    in GF(2)); ``tail_len`` is the true length of the generation's last
    plaintext packet so decoders can trim the zero-padding the encoder
    added for equal-length rows.  Subclasses :class:`DataPacket` so MAC
    pacing (``isinstance(payload, DataPacket)``) applies unchanged;
    ``packet_id`` is meaningless under coding and pinned to 0.
    """

    __slots__ = ("coeffs", "tail_len", "field")

    def __init__(self, source_id, seg_id, coeffs, payload, tail_len,
                 field="gf256"):
        super().__init__(source_id, seg_id, 0, payload)
        self.coeffs = tuple(coeffs)
        self.tail_len = tail_len
        self.field = field

    def wire_bytes(self):
        from repro.core.coding import coeff_wire_bytes
        # src, seg (= generation id), tail_len, coefficient vector, payload
        return 2 + 1 + 1 + coeff_wire_bytes(len(self.coeffs), self.field) \
            + len(self.payload)


class EndDownload:
    """The sender finished streaming ``seg_id``."""

    __slots__ = ("source_id", "seg_id")

    def __init__(self, source_id, seg_id):
        self.source_id = source_id
        self.seg_id = seg_id

    def wire_bytes(self):
        return 2 + 1


class Query:
    """Query/update phase: the sender polls its children for losses."""

    __slots__ = ("source_id", "seg_id")

    def __init__(self, source_id, seg_id):
        self.source_id = source_id
        self.seg_id = seg_id

    def wire_bytes(self):
        return 2 + 1


class RepairRequest:
    """Query/update phase: a child asks its parent for missing packets.

    Logically unicast to the parent (``dest_id``), physically broadcast
    like everything else.
    """

    __slots__ = ("requester_id", "dest_id", "seg_id", "missing")

    def __init__(self, requester_id, dest_id, seg_id, missing):
        self.requester_id = requester_id
        self.dest_id = dest_id
        self.seg_id = seg_id
        self.missing = missing

    def wire_bytes(self):
        return 2 + 2 + 1 + self.missing.wire_bytes()
