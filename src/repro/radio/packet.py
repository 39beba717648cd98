"""Radio frames.

A :class:`Frame` is what travels on the air: a protocol message (the
``payload``) plus the link-layer source/destination, the on-air size and
the airtime.  Protocols declare the serialized size of each message type;
the channel uses ``on_air_bytes`` for the per-bit error draw and
``airtime_ms`` for how long the frame holds the medium.

All MNP traffic is link-layer broadcast (the paper unicasts logically by
embedding a ``DestID`` field inside the payload), so ``dst`` defaults to
:data:`BROADCAST`.
"""

import itertools

BROADCAST = -1

# Physical-layer framing overhead on the Mica-2 CC1000 stack: preamble +
# sync + TinyOS AM header + CRC, on top of the application payload.
PHY_OVERHEAD_BYTES = 18

#: The Mica-2 CC1000's bitrate.
MICA2_BITRATE_KBPS = 19.2

# Frame sequence numbers, process-wide.  A module-level counter rather
# than a class attribute: writing a class attribute once per frame would
# invalidate the type's attribute caches on every frame.
_sequence = itertools.count(1)


class Frame:
    """One on-air frame."""

    __slots__ = ("src", "dst", "payload", "payload_bytes", "on_air_bytes",
                 "airtime_ms", "sequence")

    def __init__(self, src, payload, payload_bytes, dst=BROADCAST):
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        self.src = src
        self.dst = dst
        self.payload = payload
        self.payload_bytes = payload_bytes
        # Total bytes the radio actually clocks out for this frame, and
        # the time that takes.  Precomputed: the channel reads the size
        # several times per reception.
        self.on_air_bytes = payload_bytes + PHY_OVERHEAD_BYTES
        self.airtime_ms = self.on_air_bytes * 8.0 / MICA2_BITRATE_KBPS
        self.sequence = next(_sequence)

    def clone_with_payload(self, payload):
        """A copy of this frame carrying a different payload object.

        The fault layer delivers *corrupted* copies of a frame to
        individual receivers.  Payload objects are shared by every
        receiver of a broadcast, so corruption must never mutate the
        original in place; the clone keeps the on-air size and sequence
        (it is the same physical frame, decoded wrongly at one node).
        """
        clone = Frame.__new__(Frame)
        clone.src = self.src
        clone.dst = self.dst
        clone.payload = payload
        clone.payload_bytes = self.payload_bytes
        clone.on_air_bytes = self.on_air_bytes
        clone.airtime_ms = self.airtime_ms
        clone.sequence = self.sequence
        return clone

    def __repr__(self):
        kind = type(self.payload).__name__
        return f"<Frame #{self.sequence} {kind} from {self.src}>"
