"""Network coding over a segment-as-a-generation.

The coded dissemination family (``coded_mnp``, ``coded_deluge``) treats
each MNP segment as one *generation*: a sender transmits random linear
combinations of the segment's packets, and a receiver that has collected
any ``n`` linearly independent combinations rebuilds all ``n`` packets by
Gaussian elimination.  Instead of a per-packet MissingVector, receivers
advertise a single number -- their decoder *rank* -- and senders stream
``max(deficit)`` coded packets for the whole neighborhood at once.

Coefficients live in GF(2^8) with the AES-friendly primitive
polynomial x^8+x^4+x^3+x^2+1 (0x11D).  They are uniform random bytes, so
a fresh coded packet is innovative with probability ~(1 - 256^-d) for
deficit d; one coefficient byte per generation packet rides on the wire.

All coefficient draws come from a caller-supplied ``random.Random``
(derive one with :func:`repro.sim.rng.derive_rng`): coding never touches
global randomness, so coded runs stay pure functions of (spec, seed).
"""

from itertools import compress

from repro.core.bitvector import BitVector
from repro.core.segments import PACKET_PAYLOAD_BYTES

__all__ = [
    "GF256_POLY",
    "gf256_mul",
    "gf256_inv",
    "GF256_PRODUCTS",
    "pack_coeffs",
    "unpack_coeffs",
    "GenerationEncoder",
    "GenerationDecoder",
    "CodedSegmentTracker",
    "RankDemand",
]

# ---------------------------------------------------------------------------
# GF(2^8) arithmetic (log/exp tables over the 0x11D primitive polynomial)
# ---------------------------------------------------------------------------

GF256_POLY = 0x11D

_EXP = [0] * 512
_LOG = [0] * 256


def _build_tables():
    x = 1
    for i in range(255):
        _EXP[i] = x
        _LOG[x] = i
        x <<= 1
        if x & 0x100:
            x ^= GF256_POLY
    for i in range(255, 512):
        _EXP[i] = _EXP[i - 255]


_build_tables()


def gf256_mul(a, b):
    """Product in GF(2^8)."""
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf256_inv(a):
    """Multiplicative inverse in GF(2^8) (``a`` must be nonzero)."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(2^8)")
    return _EXP[255 - _LOG[a]]


def _product_tables():
    """``table[c]`` maps every byte ``x`` to ``c * x``, so
    ``row.translate(table[c])`` scales a whole row by ``c`` in C.

    The table for ``2**(i+1)`` is the table for ``2**i`` translated
    through the times-two table; 2 generates the field, so 255 steps
    reach every nonzero ``c``."""
    times2 = bytes((x << 1) ^ GF256_POLY if x & 0x80 else x << 1
                   for x in range(256))
    tables = [bytes(256)] * 256
    row = bytes(range(256))
    for i in range(255):
        tables[_EXP[i]] = row
        row = row.translate(times2)
    return tables


#: ``GF256_PRODUCTS[c]`` maps every byte ``x`` to ``c * x``.
GF256_PRODUCTS = _product_tables()

#: Mersenne Twister words drawn per refill of a coefficient pool.
_POOL_WORDS = 256
#: ``_ACCEPT[b]`` is 1 when bit 0 of ``b`` is clear.
_ACCEPT = bytes(1 - (b & 1) for b in range(256))


def _coeff_source(rng):
    """``draw(n)``: the next ``n`` coefficients from ``rng``.

    The stream equals one ``rng.randrange(256)`` per coefficient.  That
    call is ``getrandbits(9)`` retried while the result is >= 256, and
    each try takes the top 9 bits of one 32-bit Mersenne Twister word:
    the try is accepted when the word's top bit is 0, and its value is
    then ``word >> 23``.  ``getrandbits(32 * k)`` returns the next ``k``
    words in order, the first in the low bits, so a pool refill shifts
    such a block right by 23 bits once: in each word's 4-byte lane the
    first byte is then its value and bit 0 of the second its top bit.
    Slicing, ``translate`` and ``compress`` keep the accepted values in
    C.
    """
    pool = b""

    def draw(n):
        nonlocal pool
        while len(pool) < n:
            lanes = (rng.getrandbits(32 * _POOL_WORDS) >> 23).to_bytes(
                4 * _POOL_WORDS, "little")
            pool += bytes(compress(lanes[0::4],
                                   lanes[1::4].translate(_ACCEPT)))
        taken, pool = pool[:n], pool[n:]
        return tuple(taken)
    return draw


def pack_coeffs(coeffs):
    """Serialize a coefficient vector to wire bytes (one byte each)."""
    return bytes(coeffs)


def unpack_coeffs(data, n):
    """Inverse of :func:`pack_coeffs`; raises ValueError on short input."""
    if len(data) < n:
        raise ValueError(f"coefficient header truncated: "
                         f"{len(data)} < {n} bytes for n={n}")
    return tuple(data[:n])


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------


class GenerationEncoder:
    """Produces random linear combinations of one segment's packets.

    Parameters
    ----------
    packets:
        The segment's plaintext packets.  All but the last must be full
        ``payload_len`` bytes; the last may be shorter (the image tail)
        and is zero-padded for coding.  Its true length is published as
        :attr:`tail_len` so decoders can trim on recovery.
    rng:
        Coefficient source (a ``random.Random``; derive per-sender with
        ``derive_rng(seed, "coding", node_id, program_id, seg_id)``).
    """

    def __init__(self, packets, rng, payload_len=PACKET_PAYLOAD_BYTES):
        if not packets:
            raise ValueError("cannot encode an empty generation")
        self.rng = rng
        # The encoder owns ``rng``: the coefficient source draws ahead of
        # use.
        self._draw = _coeff_source(rng)
        self.n = len(packets)
        self.payload_len = payload_len
        self.tail_len = len(packets[-1])
        self._rows = []
        for i, pkt in enumerate(packets):
            if len(pkt) > payload_len or (i < self.n - 1
                                          and len(pkt) != payload_len):
                raise ValueError(
                    f"packet {i}: bad length {len(pkt)} for generation "
                    f"with payload_len={payload_len}")
            self._rows.append(bytes(pkt).ljust(payload_len, b"\x00"))

    def next_coded(self):
        """Draw one coded packet: ``(coeffs, payload)``.

        The coefficient vector is redrawn until nonzero, so every emitted
        packet is a genuine (if possibly non-innovative) combination.
        """
        while True:
            coeffs = self._draw(self.n)
            if any(coeffs):
                break
        table = GF256_PRODUCTS
        acc = 0
        for c, row in zip(coeffs, self._rows):
            if c:
                acc ^= int.from_bytes(row.translate(table[c]), "little")
        return coeffs, acc.to_bytes(self.payload_len, "little")

    def ram_bytes(self):
        """Sender-side generation buffer (packets cached in RAM)."""
        return self.n * self.payload_len


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------


class GenerationDecoder:
    """Incremental Gauss-Jordan decoder for one generation.

    Rows are kept fully reduced (reduced row-echelon form): each accepted
    row owns one pivot column, holds a 1 there, and has zeros in every
    other pivot column.  When :attr:`rank` reaches ``n`` the coefficient
    matrix is the identity and each row's payload *is* the plaintext
    packet for its pivot column.
    """

    def __init__(self, n, payload_len=PACKET_PAYLOAD_BYTES):
        self.n = n
        self.payload_len = payload_len
        self._row_len = n + payload_len
        self._coeff_mask = (1 << (8 * n)) - 1
        # pivot column -> reduced row: n coefficient bytes, then payload.
        self._pivots = {}

    @property
    def rank(self):
        return len(self._pivots)

    @property
    def is_complete(self):
        return self.rank == self.n

    def add(self, coeffs, payload):
        """Absorb one coded packet; True iff it was innovative.

        Malformed rows (wrong coefficient count or payload length -- e.g.
        a truncated header surviving a corrupted decode) are rejected as
        non-innovative rather than poisoning the matrix.  At full rank
        nothing is innovative, so every row is rejected at once.
        """
        pivots = self._pivots
        if (len(pivots) == self.n or len(coeffs) != self.n
                or len(payload) != self.payload_len):
            return False
        table = GF256_PRODUCTS
        # Reduce against every existing pivot.  Read as a little-endian
        # integer, a row is subtracted (XORed) in one operation.  The
        # pivot rows are fully reduced, so subtracting one never changes
        # the row's coefficient in another pivot column: each factor is
        # the incoming coefficient itself.
        acc = int.from_bytes(bytes(coeffs) + payload, "little")
        for col, p_row in pivots.items():
            c = coeffs[col]
            if c:
                acc ^= int.from_bytes(p_row.translate(table[c]), "little")
        # This row's pivot is its lowest nonzero coefficient byte.
        low = acc & self._coeff_mask
        if not low:
            return False  # linearly dependent (e.g. a duplicate)
        pivot = ((low & -low).bit_length() - 1) >> 3
        row = acc.to_bytes(self._row_len, "little")
        row = row.translate(table[gf256_inv(row[pivot])])
        # Back-eliminate the new pivot column from every existing row.
        for col, p_row in pivots.items():
            c = p_row[pivot]
            if c:
                pivots[col] = (
                    int.from_bytes(p_row, "little")
                    ^ int.from_bytes(row.translate(table[c]), "little")
                ).to_bytes(self._row_len, "little")
        pivots[pivot] = row
        return True

    def packet(self, packet_id):
        """Plaintext packet ``packet_id`` (only once :attr:`is_complete`)."""
        if not self.is_complete:
            raise ValueError("generation not yet decodable")
        return self._pivots[packet_id][self.n:]

    def ram_bytes(self):
        """Decoder matrix residency: rank rows of (coeffs + payload)."""
        return self.rank * (self.n + self.payload_len)


# ---------------------------------------------------------------------------
# Protocol-facing trackers
# ---------------------------------------------------------------------------


class CodedSegmentTracker:
    """Receiver-side loss state for one coded segment.

    Drop-in for the MissingVector slot in ``MNPNode._seg_missing``: it
    answers the same ``count()`` / ``is_empty()`` / ``wire_bytes()``
    questions, but is backed by a :class:`GenerationDecoder` plus a
    written-to-EEPROM bitmap instead of a per-packet bitmap.  "Missing"
    becomes "rank deficit"; "empty" means *decoded and fully flushed*.
    """

    def __init__(self, n, payload_len=PACKET_PAYLOAD_BYTES):
        self.n = n
        self.payload_len = payload_len
        self.decoder = GenerationDecoder(n, payload_len)
        self.written = BitVector.none_set(n)
        self.tail_len = payload_len

    # -- coded-packet intake -------------------------------------------
    def absorb(self, coeffs, payload, tail_len=None):
        """Feed one coded packet to the decoder; True iff innovative."""
        if tail_len is not None and 1 <= tail_len <= self.payload_len:
            self.tail_len = tail_len
        return self.decoder.add(coeffs, payload)

    @property
    def rank(self):
        return self.decoder.rank

    @property
    def decoded(self):
        return self.decoder.is_complete

    def packet(self, packet_id):
        """Recovered plaintext for ``packet_id``, tail-trimmed."""
        data = self.decoder.packet(packet_id)
        if packet_id == self.n - 1:
            return data[:self.tail_len]
        return data

    def flush(self, write_fn):
        """Write every decoded-but-unwritten packet via ``write_fn``.

        Returns True if anything was written.  ``write_fn(packet_id,
        data)`` may raise (EEPROM fault); packets already flushed stay
        marked, so a retried flush is write-once safe.
        """
        if not self.decoded:
            return False
        wrote = False
        for pid in range(self.n):
            if self.written.test(pid):
                continue
            write_fn(pid, self.packet(pid))
            self.written.set(pid)
            wrote = True
        return wrote

    def decoded_packets(self):
        """All recovered plaintext packets, tail-trimmed, in order (only
        once :attr:`decoded`).  The secure pipeline hashes these against
        the manifest's segment digest *before* :meth:`flush` commits
        anything to EEPROM."""
        return [self.packet(pid) for pid in range(self.n)]

    def reboot(self, read_fn):
        """Rebuild after a power cycle: RAM rank is lost, flash survives.

        Re-seeds a fresh decoder with a unit-vector row per packet that
        had already been flushed to EEPROM (``read_fn(packet_id) ->
        bytes``); everything else must be re-received.
        """
        decoder = GenerationDecoder(self.n, self.payload_len)
        for pid in self.written.iter_set():
            unit = [0] * self.n
            unit[pid] = 1
            decoder.add(unit, bytes(read_fn(pid)).ljust(
                self.payload_len, b"\x00"))
        self.decoder = decoder

    # -- MissingVector-compatible surface ------------------------------
    def count(self):
        """Outstanding demand: rank deficit, or unflushed tail if decoded."""
        if self.decoded:
            return self.n - self.written.count()
        return self.n - self.decoder.rank

    def is_empty(self):
        return self.written.count() == self.n

    def wire_bytes(self):
        """RAM residency estimate (decoder matrix + written bitmap)."""
        return self.decoder.ram_bytes() + self.written.wire_bytes()

    def __repr__(self):
        return (f"CodedSegmentTracker(n={self.n}, rank={self.rank}, "
                f"written={self.written.count()})")


class RankDemand:
    """Sender-side stand-in for the ForwardVector under coding.

    A coded sender does not track *which* packets a requester is missing
    -- only the largest rank deficit reported by any requester, because
    ``deficit`` fresh coded packets (plus a small overhead margin)
    satisfy every listener at once.
    """

    def __init__(self, n):
        self.n = n
        self.demand = 0

    def merge(self, report):
        """Raise demand to cover ``report`` (a :class:`RankReport`)."""
        if report.n == self.n:
            self.demand = max(self.demand, report.count())

    def take(self):
        """Consume one unit of demand (one coded packet sent)."""
        if self.demand > 0:
            self.demand -= 1

    def count(self):
        return self.demand

    def is_empty(self):
        return self.demand == 0

    def wire_bytes(self):
        return 2  # n + demand, one byte each

    def __repr__(self):
        return f"RankDemand(n={self.n}, demand={self.demand})"
