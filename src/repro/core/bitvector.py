"""Fixed-size bit vectors: MissingVector and ForwardVector.

Section 3.3 of the paper: each receiver tracks the packets of the current
segment it has not yet received in a bitmap called *MissingVector*; each
source unions the MissingVectors from the download requests it receives
into a *ForwardVector* and transmits only those packets.  Segments are
capped at 128 packets so a MissingVector fits into 16 bytes -- small enough
to ride inside a single radio packet.

The implementation is a thin wrapper over a Python int used as a bitmask,
with explicit serialization so message sizes are honest.
"""


class BitVector:
    """A fixed-length bit vector; bit i set means "packet i missing/wanted"."""

    __slots__ = ("n", "_bits")

    def __init__(self, n, bits=0):
        if n < 0:
            raise ValueError("length must be non-negative")
        self.n = n
        mask = (1 << n) - 1
        self._bits = bits & mask

    @classmethod
    def all_set(cls, n):
        """All n bits set (a fresh MissingVector: everything missing)."""
        return cls(n, (1 << n) - 1)

    @classmethod
    def none_set(cls, n):
        """All clear (a fresh ForwardVector: nothing requested yet)."""
        return cls(n, 0)

    # ------------------------------------------------------------------
    # Bit operations
    # ------------------------------------------------------------------
    def _out_of_range(self, i):
        """The error for index ``i``.  ``set``, ``clear`` and ``test``
        check their index inline: they run once per data packet, where a
        checking call would cost as much as the operation."""
        return IndexError(f"bit {i} out of range 0..{self.n - 1}")

    def set(self, i):
        if not 0 <= i < self.n:
            raise self._out_of_range(i)
        self._bits |= 1 << i

    def clear(self, i):
        if not 0 <= i < self.n:
            raise self._out_of_range(i)
        self._bits &= ~(1 << i)

    def test(self, i):
        if not 0 <= i < self.n:
            raise self._out_of_range(i)
        return bool(self._bits >> i & 1)

    def union(self, other):
        """In-place union (ForwardVector |= request.MissingVector)."""
        if other.n != self.n:
            raise ValueError("length mismatch")
        self._bits |= other._bits

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def count(self):
        """Number of set bits."""
        return bin(self._bits).count("1")

    def is_empty(self):
        return self._bits == 0

    def first_set(self):
        """Lowest set bit index, or None."""
        if self._bits == 0:
            return None
        return (self._bits & -self._bits).bit_length() - 1

    def iter_set(self):
        """Indices of set bits in increasing order (a list)."""
        indices = []
        bits = self._bits
        while bits:
            low = bits & -bits
            indices.append(low.bit_length() - 1)
            bits ^= low
        return indices

    def copy(self):
        return BitVector(self.n, self._bits)

    # ------------------------------------------------------------------
    # Serialization (for honest on-air sizes)
    # ------------------------------------------------------------------
    def to_bytes(self):
        nbytes = max(1, -(-self.n // 8))
        return self._bits.to_bytes(nbytes, "little")

    @classmethod
    def from_bytes(cls, n, data):
        return cls(n, int.from_bytes(data, "little"))

    def wire_bytes(self):
        """Serialized size in bytes."""
        return max(1, -(-self.n // 8))

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, BitVector)
            and self.n == other.n
            and self._bits == other._bits
        )

    def __hash__(self):
        return hash((self.n, self._bits))

    def __len__(self):
        return self.n

    def __repr__(self):
        shown = "".join("1" if self.test(i) else "0" for i in range(min(self.n, 32)))
        suffix = "..." if self.n > 32 else ""
        return f"<BitVector {self.count()}/{self.n} [{shown}{suffix}]>"
