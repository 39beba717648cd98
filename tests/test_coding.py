"""The network-coding layer: fields, codec, trackers, coded protocols.

The unit half is a seeded fuzz of the GF(2^8) and GF(2) generation
encoder/decoder -- random rank-deficient batches, duplicated coded
packets, truncated coefficient headers -- plus the EEPROM-flush and
power-cycle behavior of :class:`CodedSegmentTracker`.  The codec's
whole-row arithmetic is checked against a byte-at-a-time reference
encoder and decoder kept here as the differential oracle.  The
integration half runs ``coded_mnp`` and ``coded_deluge`` end to end:
completion, byte-exact content, determinism, and the headline property
that coding beats stock MNP on message count under heavy loss.

All randomness comes from per-test ``random.Random`` seeds, so a
failure replays exactly.
"""

import random

import pytest

from repro import (
    CodeImage,
    Deployment,
    MINUTE,
    PerfectLossModel,
    Topology,
    UniformLossModel,
)
from repro.core.coding import (
    FIELDS,
    GF256_POLY,
    CodedSegmentTracker,
    GenerationDecoder,
    GenerationEncoder,
    RankDemand,
    coeff_wire_bytes,
    gf256_inv,
    gf256_mul,
    pack_coeffs,
    unpack_coeffs,
)
from repro.core.messages import CodedDataPacket, DataPacket, RankReport
from repro.hardware.eeprom import EepromError


# ---------------------------------------------------------------------------
# GF(2^8) arithmetic
# ---------------------------------------------------------------------------

def test_gf256_field_axioms_sampled():
    rng = random.Random(0xF1E1D)
    for _ in range(500):
        a = rng.randrange(1, 256)
        b = rng.randrange(1, 256)
        c = rng.randrange(256)
        assert gf256_mul(a, gf256_inv(a)) == 1
        assert gf256_mul(a, b) == gf256_mul(b, a)
        assert gf256_mul(a, gf256_mul(b, c)) == gf256_mul(gf256_mul(a, b), c)
    assert gf256_mul(0, 7) == 0 and gf256_mul(7, 0) == 0
    with pytest.raises(ZeroDivisionError):
        gf256_inv(0)


def _shift_and_add_mul(a, b):
    """GF(2^8) product by shift-and-add, independent of every table."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= GF256_POLY
    return product


def test_gf256_product_table_is_exhaustively_exact():
    """All 65,536 entries of the whole-row product table."""
    table = FIELDS["gf256"].table
    assert len(table) == 256
    for c in range(256):
        expected = bytes(gf256_mul(c, x) for x in range(256))
        assert table[c] == expected
        assert expected == bytes(_shift_and_add_mul(c, x)
                                 for x in range(256))


# ---------------------------------------------------------------------------
# Differential oracle: byte-at-a-time reference encoder and decoder
# ---------------------------------------------------------------------------

#: field -> (mul, inv) for the reference codec, one byte per call.
REF_ARITH = {
    "gf256": (gf256_mul, gf256_inv),
    "gf2": (lambda a, b: a & b, lambda a: 1),
}


def _ref_scale_row(coeffs, payload, factor, mul):
    """In-place ``row *= factor`` (bytearrays)."""
    if factor == 1:
        return
    for j in range(len(coeffs)):
        coeffs[j] = mul(factor, coeffs[j])
    for j in range(len(payload)):
        payload[j] = mul(factor, payload[j])


def _ref_subtract_scaled(coeffs, payload, factor, p_coeffs, p_payload, mul):
    """In-place ``row -= factor * pivot_row`` (addition is XOR)."""
    if factor == 0:
        return
    if factor == 1:
        for j in range(len(coeffs)):
            coeffs[j] ^= p_coeffs[j]
        for j in range(len(payload)):
            payload[j] ^= p_payload[j]
        return
    for j in range(len(coeffs)):
        coeffs[j] ^= mul(factor, p_coeffs[j])
    for j in range(len(payload)):
        payload[j] ^= mul(factor, p_payload[j])


def _ref_draw(field, n, rng):
    if field == "gf2":
        bits = rng.getrandbits(n)
        return tuple((bits >> i) & 1 for i in range(n))
    return tuple(rng.randrange(256) for _ in range(n))


class ReferenceEncoder:
    """:class:`GenerationEncoder` one byte at a time."""

    def __init__(self, packets, rng, field, payload_len=23):
        self.field = field
        self.rng = rng
        self.payload_len = payload_len
        self.rows = [bytes(p).ljust(payload_len, b"\x00") for p in packets]

    def next_coded(self):
        while True:
            coeffs = _ref_draw(self.field, len(self.rows), self.rng)
            if any(coeffs):
                break
        payload = bytearray(self.payload_len)
        mul = REF_ARITH[self.field][0]
        for c, row in zip(coeffs, self.rows):
            if c == 0:
                continue
            for j in range(self.payload_len):
                payload[j] ^= row[j] if c == 1 else mul(c, row[j])
        return coeffs, bytes(payload)


class ReferenceDecoder:
    """:class:`GenerationDecoder` one byte at a time: incremental
    Gauss-Jordan with no full-rank shortcut."""

    def __init__(self, n, field, payload_len=23):
        self.n = n
        self.payload_len = payload_len
        self.mul, self.inv = REF_ARITH[field]
        self.pivots = {}   # column -> (coeff bytearray, payload bytearray)

    def add(self, coeffs, payload):
        if len(coeffs) != self.n or len(payload) != self.payload_len:
            return False
        row_c = bytearray(coeffs)
        row_p = bytearray(payload)
        for col, (p_c, p_p) in self.pivots.items():
            _ref_subtract_scaled(row_c, row_p, row_c[col], p_c, p_p,
                                 self.mul)
        pivot = next((col for col in range(self.n) if row_c[col]), -1)
        if pivot < 0:
            return False
        _ref_scale_row(row_c, row_p, self.inv(row_c[pivot]), self.mul)
        for p_c, p_p in self.pivots.values():
            _ref_subtract_scaled(p_c, p_p, p_c[pivot], row_c, row_p,
                                 self.mul)
        self.pivots[pivot] = (row_c, row_p)
        return True

    def rows(self):
        """Stored rows in pivot order, as coefficients then payload."""
        return [(col, bytes(c) + bytes(p))
                for col, (c, p) in self.pivots.items()]


def _ref_combine(rows, factors, mul, payload_len):
    """``sum(f * row)`` over (coeffs, payload) rows, one byte at a time."""
    n = len(rows[0][0])
    coeffs = bytearray(n)
    payload = bytearray(payload_len)
    for f, (r_c, r_p) in zip(factors, rows):
        _ref_subtract_scaled(coeffs, payload, f, r_c, r_p, mul)
    return tuple(coeffs), bytes(payload)


def _differential_rows(rng, field, n, payload_len=23):
    """A seeded stream of ``(kind, coeffs, payload)`` rows of every kind
    the decoder meets: all-zero, rank-deficient batches, duplicates,
    reboot's unit rows, random rows up to full rank, and rows arriving
    at full rank."""
    top = 2 if field == "gf2" else 256
    mul = REF_ARITH[field][0]

    def payload():
        return bytes(rng.randrange(256) for _ in range(payload_len))

    def random_row():
        return tuple(rng.randrange(top) for _ in range(n)), payload()

    def unit_row():
        unit = [0] * n
        unit[rng.randrange(n)] = 1
        return tuple(unit), payload()

    yield ("zero", (0,) * n, payload())
    yield ("zero", (0,) * n, bytes(payload_len))
    # Rank-deficient batch: more combinations than the base's rank.
    base = [random_row() for _ in range(max(1, n // 3))]
    batch = [_ref_combine(base, [rng.randrange(top) for _ in base], mul,
                          payload_len)
             for _ in range(len(base) + 3)]
    for coeffs, data in batch:
        yield ("deficient", coeffs, data)
    for coeffs, data in rng.sample(batch, 2):
        yield ("duplicate", coeffs, data)
    for _ in range(min(3, n)):
        yield ("unit", *unit_row())
    sent = []
    for _ in range(n + 40):
        row = random_row()
        sent.append(row)
        yield ("random", *row)
        if rng.random() < 0.1:
            yield ("duplicate", *rng.choice(sent))
    # The decoder is at full rank by now (asserted by the caller).
    yield ("full_rank", *random_row())
    yield ("full_rank", *rng.choice(sent))
    yield ("full_rank", *unit_row())
    yield ("full_rank", (0,) * n, payload())
    yield ("truncated", (1,) * (n - 1), payload())


DIFFERENTIAL_NS = [1, 2, 3, 7, 8, 9, 23, 32, 64, 100, 127, 128]


@pytest.mark.parametrize("field", ["gf256", "gf2"])
def test_decoder_matches_byte_loop_reference(field):
    """After every ``add``: same verdict, same rank, same stored rows in
    the same pivot order."""
    rng = random.Random(0xD1FF)
    for n in DIFFERENTIAL_NS:
        decoder = GenerationDecoder(n, field=field)
        reference = ReferenceDecoder(n, field)
        for kind, coeffs, payload in _differential_rows(rng, field, n):
            if kind == "full_rank":
                assert decoder.is_complete, (n, "stream ended short")
            verdict = decoder.add(coeffs, payload)
            assert verdict == reference.add(coeffs, payload), (n, kind)
            assert decoder.rank == len(reference.pivots), (n, kind)
            assert list(decoder._pivots.items()) == reference.rows(), \
                (n, kind)
        assert [decoder.packet(i) for i in range(n)] == \
            [bytes(reference.pivots[i][1]) for i in range(n)]


@pytest.mark.parametrize("field", ["gf256", "gf2"])
def test_encoder_matches_byte_loop_reference(field):
    """Equal seeds, equal coefficient vectors and payloads."""
    rng = random.Random(0xE2C)
    for n in DIFFERENTIAL_NS:
        packets = _random_generation(rng, n, rng.randrange(1, 24))
        seed = rng.randrange(2**32)
        encoder = GenerationEncoder(packets, random.Random(seed),
                                    field=field)
        reference = ReferenceEncoder(packets, random.Random(seed), field)
        for _ in range(8):
            assert encoder.next_coded() == reference.next_coded(), n


class _CountingRandom(random.Random):
    """A ``random.Random`` that counts its block draws (> 32 bits)."""

    block_draws = 0

    def getrandbits(self, k):
        if k > 32:
            self.block_draws += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("n, packets", [(1, 700), (127, 8), (128, 8)])
def test_encoder_long_stream_matches_reference(n, packets):
    """The GF(2^8) coefficient pool refills several times over a long
    stream and stays on the one-``randrange(256)``-per-byte stream."""
    rng = random.Random(0x5EED + n)
    generation = _random_generation(rng, n, 23)
    source = _CountingRandom(n)
    encoder = GenerationEncoder(generation, source)
    reference = ReferenceEncoder(generation, random.Random(n), "gf256")
    for _ in range(packets):
        assert encoder.next_coded() == reference.next_coded()
    assert source.block_draws >= 4


def test_encoder_redraws_all_zero_vector_like_reference():
    """An all-zero coefficient vector is redrawn from the same stream."""
    seed = next(s for s in range(10_000)
                if random.Random(s).randrange(256) == 0)
    generation = _random_generation(random.Random(seed), 1, 23)
    encoder = GenerationEncoder(generation, random.Random(seed))
    reference = ReferenceEncoder(generation, random.Random(seed), "gf256")
    for _ in range(4):
        assert encoder.next_coded() == reference.next_coded()


# ---------------------------------------------------------------------------
# Seeded encode/decode round-trip fuzz
# ---------------------------------------------------------------------------

def _random_generation(rng, n, tail_len):
    packets = [bytes(rng.randrange(256) for _ in range(23))
               for _ in range(n)]
    packets[-1] = packets[-1][:tail_len]
    return packets


@pytest.mark.parametrize("field", ["gf256", "gf2"])
def test_roundtrip_fuzz(field):
    rng = random.Random(42)
    for trial in range(25):
        n = rng.randrange(1, 33)
        tail = rng.randrange(1, 24)
        packets = _random_generation(rng, n, tail)
        encoder = GenerationEncoder(
            packets, random.Random(1000 + trial), field=field)
        decoder = GenerationDecoder(n, field=field)
        sent = 0
        while not decoder.is_complete:
            coeffs, payload = encoder.next_coded()
            # Round-trip the coefficient header through the wire codec.
            wire = pack_coeffs(coeffs, field)
            assert len(wire) == coeff_wire_bytes(n, field)
            decoder.add(unpack_coeffs(wire, n, field), payload)
            sent += 1
            assert sent < 20 * n + 50, "decoder failed to converge"
        recovered = [decoder.packet(i) for i in range(n)]
        recovered[-1] = recovered[-1][:tail]
        assert recovered == packets


@pytest.mark.parametrize("field", ["gf256", "gf2"])
def test_rank_deficient_batches_never_overreport(field):
    """Feeding fewer than n combinations can never reach full rank, and
    duplicates of the same coded packet never raise rank."""
    rng = random.Random(7)
    for trial in range(10):
        n = rng.randrange(2, 17)
        packets = _random_generation(rng, n, 23)
        encoder = GenerationEncoder(
            packets, random.Random(trial), field=field)
        decoder = GenerationDecoder(n, field=field)
        batch = [encoder.next_coded() for _ in range(n - 1)]
        for coeffs, payload in batch:
            decoder.add(coeffs, payload)
        assert decoder.rank <= n - 1
        assert not decoder.is_complete
        rank_before = decoder.rank
        # Every duplicate is linearly dependent by construction.
        for coeffs, payload in batch:
            assert decoder.add(coeffs, payload) is False
        assert decoder.rank == rank_before
        with pytest.raises(ValueError):
            decoder.packet(0)


def test_truncated_coefficient_headers_rejected():
    n = 12
    coeffs = tuple(range(1, n + 1))
    for field in ("gf256", "gf2"):
        wire = pack_coeffs(coeffs[:n] if field == "gf256"
                           else tuple(c & 1 for c in coeffs), field)
        with pytest.raises(ValueError):
            unpack_coeffs(wire[:-1], n, field)
    # A short coefficient vector reaching the decoder (corrupted decode
    # surviving the CRC) is dropped, not absorbed.
    decoder = GenerationDecoder(n)
    assert decoder.add((1,) * (n - 1), b"\x00" * 23) is False
    assert decoder.add((1,) * n, b"\x00" * 22) is False
    assert decoder.rank == 0


def test_encoder_rejects_malformed_generations():
    with pytest.raises(ValueError):
        GenerationEncoder([], random.Random(0))
    with pytest.raises(ValueError):
        GenerationEncoder([b"\x00" * 5, b"\x00" * 23], random.Random(0))
    with pytest.raises(ValueError):
        GenerationEncoder([b"\x00" * 24], random.Random(0))
    with pytest.raises(ValueError):
        GenerationEncoder([b"\x00" * 23], random.Random(0), field="gf7")


# ---------------------------------------------------------------------------
# CodedSegmentTracker: flush, EEPROM faults, power cycle
# ---------------------------------------------------------------------------

def test_tracker_flush_is_write_once():
    rng = random.Random(3)
    packets = _random_generation(rng, 8, 9)
    encoder = GenerationEncoder(packets, random.Random(4))
    tracker = CodedSegmentTracker(8)
    writes = []
    while not tracker.decoded:
        coeffs, payload = encoder.next_coded()
        tracker.absorb(coeffs, payload, tail_len=9)
    assert tracker.count() == 8  # decoded but nothing flushed yet
    tracker.flush(lambda pid, data: writes.append((pid, data)))
    assert tracker.is_empty() and tracker.count() == 0
    assert sorted(pid for pid, _ in writes) == list(range(8))
    assert dict(writes)[7] == packets[7]  # tail trimmed to 9 bytes
    # A second flush writes nothing: write-once preserved.
    tracker.flush(lambda pid, data: writes.append((pid, data)))
    assert len(writes) == 8


def test_tracker_flush_resumes_after_eeprom_fault():
    rng = random.Random(5)
    packets = _random_generation(rng, 6, 23)
    encoder = GenerationEncoder(packets, random.Random(6))
    tracker = CodedSegmentTracker(6)
    while not tracker.decoded:
        coeffs, payload = encoder.next_coded()
        tracker.absorb(coeffs, payload, tail_len=23)
    store = {}

    failed = []

    def failing_write(pid, data):
        if pid == 3 and not failed:
            failed.append(pid)
            raise EepromError("injected")
        store[pid] = data

    with pytest.raises(EepromError):
        tracker.flush(failing_write)
    assert not tracker.is_empty()
    assert tracker.written.count() == 3  # pids 0..2 landed before the fault
    tracker.flush(failing_write)  # retry completes the remainder once
    assert tracker.is_empty()
    assert [store[i] for i in range(6)] == packets


def test_tracker_reboot_reseeds_from_flash():
    rng = random.Random(8)
    packets = _random_generation(rng, 5, 23)
    tracker = CodedSegmentTracker(5)
    # Simulate a crash after packets 1 and 4 were flushed.
    tracker.written.set(1)
    tracker.written.set(4)
    tracker.reboot(lambda pid: packets[pid])
    assert tracker.rank == 2
    assert tracker.count() == 3
    encoder = GenerationEncoder(packets, random.Random(9))
    while not tracker.decoded:
        coeffs, payload = encoder.next_coded()
        tracker.absorb(coeffs, payload, tail_len=23)
    store = {}
    tracker.flush(lambda pid, data: store.__setitem__(pid, data))
    assert sorted(store) == [0, 2, 3]  # flushed packets are not rewritten


def test_rank_demand_merge_and_report_wire():
    demand = RankDemand(16)
    assert demand.is_empty()
    demand.merge(RankReport(16, 12))
    demand.merge(RankReport(16, 14))
    demand.merge(RankReport(8, 0))  # mismatched geometry: ignored
    assert demand.count() == 4
    demand.take()
    assert demand.count() == 3
    assert RankReport(16, 12).wire_bytes() == 2
    pkt = CodedDataPacket(1, 2, (1,) * 16, b"\x00" * 23, tail_len=23)
    assert isinstance(pkt, DataPacket)
    assert pkt.wire_bytes() == 2 + 1 + 1 + 16 + 23
    gf2_pkt = CodedDataPacket(1, 2, (1,) * 16, b"\x00" * 23, tail_len=23,
                              field="gf2")
    assert gf2_pkt.wire_bytes() == 2 + 1 + 1 + 2 + 23


# ---------------------------------------------------------------------------
# End-to-end: the coded protocol family
# ---------------------------------------------------------------------------

def _run(protocol, seed=3, loss=None, rows=3, cols=3, segment_packets=12):
    topo = Topology.grid(rows, cols, 10.0)
    image = CodeImage.random(program_id=1, n_segments=2,
                             segment_packets=segment_packets, seed=seed)
    loss_model = PerfectLossModel() if loss is None else \
        UniformLossModel(1.0 - (1.0 - loss) ** (1.0 / (8 * 63.0)))
    deployment = Deployment(topo, image=image, protocol=protocol,
                            seed=seed, loss_model=loss_model)
    result = deployment.run_to_completion(deadline_ms=480 * MINUTE)
    return deployment, image, result


@pytest.mark.parametrize("protocol", ["coded_mnp", "coded_deluge"])
def test_coded_protocol_delivers_byte_exact(protocol):
    deployment, image, result = _run(protocol)
    metrics = result.summary_metrics()
    assert metrics["coverage"] == 1.0
    blob = image.to_bytes()
    for node in deployment.nodes.values():
        assert node.assemble_image() == blob


@pytest.mark.parametrize("protocol", ["coded_mnp", "coded_deluge"])
def test_coded_protocol_deterministic(protocol):
    metrics = [
        _run(protocol, seed=11)[2].summary_metrics() for _ in range(2)
    ]
    assert metrics[0] == metrics[1]


@pytest.mark.slow
def test_coded_mnp_beats_stock_under_heavy_loss():
    """The acceptance headline: fewer messages than stock MNP at 30%+
    packet loss (any innovative combination serves every listener)."""
    results = {}
    for protocol in ("mnp", "coded_mnp"):
        _, _, result = _run(protocol, seed=3, loss=0.30,
                            rows=5, cols=5, segment_packets=24)
        metrics = result.summary_metrics()
        assert metrics["coverage"] == 1.0
        results[protocol] = metrics["messages_sent"]
    assert results["coded_mnp"] < results["mnp"], results


@pytest.mark.parametrize("protocol", ["coded_mnp", "coded_deluge"])
def test_coded_delivers_under_loss(protocol):
    deployment, image, result = _run(protocol, seed=7, loss=0.20)
    assert result.summary_metrics()["coverage"] == 1.0
    blob = image.to_bytes()
    for node in deployment.nodes.values():
        assert node.assemble_image() == blob


def test_coded_requester_survives_sender_selection_loss():
    """Regression (found by the adversarial conformance budget): on a
    quiet line a coded requester would lose Fig. 2(b) sender selection
    to the very advertisement answering its own request and sleep --
    radio off -- through the deficit-sized transfer it had solicited.
    On a loss-free channel the round then replayed verbatim forever
    (stock rounds stream whole segments that outlast the nap, so only
    the coded family livelocked)."""
    from repro.core.config import MNPConfig
    from repro.radio.propagation import PropagationModel

    topo = Topology.grid(1, 4, 13.4)
    image = CodeImage.random(program_id=1, n_segments=2,
                             segment_packets=32, seed=302517)
    dep = Deployment(topo, image=image, protocol="coded_mnp", seed=302517,
                     protocol_config=MNPConfig(fail_backoff_base_ms=250.0),
                     propagation=PropagationModel(25.0, 3.0),
                     loss_model=PerfectLossModel())
    result = dep.run_to_completion(deadline_ms=240 * MINUTE)
    assert result.summary_metrics()["coverage"] == 1.0, \
        "coded requester starved after conceding sender selection"


def test_coded_mnp_ram_counts_decoder_rows_and_encoder_buffers():
    """MNP's fixed 64 bytes, plus each tracker's decoder rows
    (``rank x (n + payload_len)``) and written bitmap, plus one
    ``n x payload_len`` buffer per cached encoder."""
    from repro.core.coded_mnp import CodedMNPNode
    from repro.core.mnp import ProgramInfo
    from tests.conftest import make_world

    world = make_world([(0.0, 0.0), (10.0, 0.0)])
    image = CodeImage.random(1, n_segments=2, segment_packets=8, seed=5)
    node = CodedMNPNode(world.motes[1])
    node.program = ProgramInfo.of_image(image)
    n, payload_len, bitmap = 8, 23, 1

    def feed(seg_id, rows):
        source = GenerationEncoder(image.segment(seg_id).packets,
                                   random.Random(seg_id))
        while node._missing_for(seg_id).rank < rows:
            coeffs, payload = source.next_coded()
            node._absorb(CodedDataPacket(0, seg_id, coeffs, payload,
                                         tail_len=source.tail_len))

    feed(1, n)  # decoded and flushed to flash
    feed(2, 3)
    assert node._missing_for(1).is_empty()
    assert node.ram_footprint_bytes() == \
        64 + (n + 3) * (n + payload_len) + 2 * bitmap
    node._next_coded_packet(1)  # buffers segment 1 for sending
    assert len(node._encoders) == 1
    assert node.ram_footprint_bytes() == \
        64 + (n + 3) * (n + payload_len) + 2 * bitmap + n * payload_len
