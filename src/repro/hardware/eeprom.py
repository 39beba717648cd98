"""External flash (EEPROM) model.

Mica-2/XSM motes carry a 512 KB external flash where the incoming program
image is staged before reboot.  Two properties matter to the protocol and
are modeled here:

* **Cost accounting** -- EEPROM writes are ~75x more expensive than reads
  (Table 1), so MNP guarantees each packet is written exactly once.  The
  model counts read/write operations in 16-byte lines, matching the units
  of the energy table, and records per-key write counts so tests can assert
  the write-once invariant.
* **Capacity** -- a bounded byte budget; overflow raises.

Data is stored as a key/value map (key = (segment id, packet id)), which is
the granularity at which the protocol addresses the flash.
"""


class EepromError(RuntimeError):
    """Raised on capacity overflow or an injected write failure."""


LINE_BYTES = 16


class Eeprom:
    """Key-addressed external flash with operation accounting.

    ``fault_hook`` (optional) models flash-level faults for the
    deterministic fault-injection subsystem (:mod:`repro.faults`): it is
    called as ``fault_hook(key, data)`` at the top of every :meth:`write`
    and may raise :class:`EepromError` (a failed write: nothing is
    stored, no operation is charged) or return replacement data (silent
    bit-flip corruption: the bad bytes are stored and later surface as
    an image CRC mismatch).  Protocol code must treat a raising write as
    a recoverable local fault, never as a simulator crash.
    """

    def __init__(self, capacity_bytes=512 * 1024):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._store = {}
        self._sizes = {}
        self.used_bytes = 0
        self.write_ops = 0  # 16-byte line writes
        self.read_ops = 0  # 16-byte line reads
        self.write_counts = {}  # key -> number of times written
        self.fault_hook = None  # fn(key, data) -> data, or raises
        self.failed_writes = 0  # writes aborted by the fault hook

    def write(self, key, data, nbytes=None):
        """Store ``data`` under ``key``; ``nbytes`` defaults to len(data)."""
        if self.fault_hook is not None:
            try:
                data = self.fault_hook(key, data)
            except EepromError:
                self.failed_writes += 1
                raise
        if nbytes is None:
            nbytes = len(data)
        previous = self._sizes.get(key, 0)
        if self.used_bytes - previous + nbytes > self.capacity_bytes:
            raise EepromError(
                f"EEPROM overflow: {self.used_bytes - previous + nbytes} "
                f"> {self.capacity_bytes} bytes"
            )
        self._store[key] = data
        self._sizes[key] = nbytes
        self.used_bytes += nbytes - previous
        self.write_ops += -(-nbytes // LINE_BYTES) or 1  # lines, at least 1
        self.write_counts[key] = self.write_counts.get(key, 0) + 1
        return self.write_counts[key]

    def preload(self, key, data, nbytes=None):
        """Stage data without accounting (a base station arrives with the
        image already in flash; preloading must not pollute the write
        counters the experiments measure)."""
        if nbytes is None:
            nbytes = len(data)
        previous = self._sizes.get(key, 0)
        if self.used_bytes - previous + nbytes > self.capacity_bytes:
            raise EepromError("EEPROM overflow during preload")
        self._store[key] = data
        self._sizes[key] = nbytes
        self.used_bytes += nbytes - previous

    def read(self, key):
        """Return the data stored under ``key`` (KeyError if absent)."""
        data = self._store[key]
        self.read_ops += -(-self._sizes[key] // LINE_BYTES) or 1
        return data

    def peek(self, key):
        """Read without accounting, as :meth:`preload` writes: the harness
        inspecting the flash must not charge the node it inspects."""
        return self._store[key]

    def __contains__(self, key):
        return key in self._store

    def discard(self, keys):
        """Quarantine: drop the staged data under ``keys`` (missing keys
        are ignored) and forget their write accounting.

        The secure pipeline calls this when a completed segment or a
        decoded generation fails its digest check: the tampered bytes
        must leave the flash so the node re-requests cleanly, and the
        forthcoming legitimate re-write must not read as a write-once
        violation -- the quarantined write never became part of the
        image.  Returns the number of keys actually discarded.
        """
        dropped = 0
        for key in list(keys):
            if key not in self._store:
                continue
            del self._store[key]
            self.used_bytes -= self._sizes.pop(key)
            self.write_counts.pop(key, None)
            dropped += 1
        return dropped

    def erase(self):
        """Release everything (MNP's fail state frees the EEPROM)."""
        self._store.clear()
        self._sizes.clear()
        self.used_bytes = 0

    def max_write_count(self):
        """Largest number of writes any single key has seen (the paper
        guarantees this is 1 during dissemination)."""
        return max(self.write_counts.values(), default=0)
