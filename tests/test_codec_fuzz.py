"""Seeded round-trip fuzz for everything with a wire format.

Three codecs carry bytes in this codebase: the BitVector /
MissingVector bitmap (rides inside download requests), the CodeImage
packetizer (image bytes <-> segments <-> packets), and the Delta edit
script (§5 difference-based updates).  Each gets a seeded random sweep
-- including the 128-packet segment boundary and truncated-header
decodes -- plus spot checks that the message classes report honest
on-air sizes for whatever bitmap they carry.

All randomness is drawn from per-test ``random.Random`` instances with
fixed seeds, so a failure replays exactly.
"""

import random

import pytest

from repro.core.bitvector import BitVector
from repro.core.delta import Delta, DeltaError, apply_delta, encode_delta
from repro.core.messages import (
    Advertisement,
    DataPacket,
    DownloadRequest,
    RepairRequest,
)
from repro.core.segments import (
    MAX_LARGE_SEGMENT_PACKETS,
    MAX_SEGMENT_PACKETS,
    PACKET_PAYLOAD_BYTES,
    CodeImage,
    Segment,
)


# ----------------------------------------------------------------------
# BitVector / MissingVector
# ----------------------------------------------------------------------
def test_bitvector_round_trip_sweep():
    rng = random.Random(0xB17)
    # Sweep lengths around every byte boundary plus the 128-packet cap.
    lengths = sorted({1, 7, 8, 9, 127, 128, 129, 200}
                     | {rng.randrange(1, 256) for _ in range(40)})
    for n in lengths:
        for _ in range(8):
            bits = rng.getrandbits(n) if n else 0
            vec = BitVector(n, bits)
            blob = vec.to_bytes()
            assert len(blob) == vec.wire_bytes() == max(1, -(-n // 8))
            assert BitVector.from_bytes(n, blob) == vec


def test_bitvector_128_packet_boundary():
    # §3.3: a full segment's MissingVector is exactly 16 bytes.
    full = BitVector.all_set(MAX_SEGMENT_PACKETS)
    assert full.wire_bytes() == 16
    assert full.to_bytes() == b"\xff" * 16
    assert BitVector.from_bytes(128, full.to_bytes()).count() == 128


def test_bitvector_padded_decode_masks_extra_bits():
    # Extra buffer bytes beyond n bits must not smuggle in phantom bits.
    rng = random.Random(0xAD)
    for _ in range(30):
        n = rng.randrange(1, 120)
        vec = BitVector(n, rng.getrandbits(n))
        padded = vec.to_bytes() + bytes(rng.randrange(256)
                                        for _ in range(4))
        assert BitVector.from_bytes(n, padded) == vec


def test_bitvector_truncated_decode_keeps_low_bits():
    # A short buffer decodes to the low bits it actually carries.
    rng = random.Random(0x7C)
    for _ in range(30):
        n = rng.randrange(16, 200)
        vec = BitVector(n, rng.getrandbits(n))
        blob = vec.to_bytes()
        cut = rng.randrange(0, len(blob))
        short = BitVector.from_bytes(n, blob[:cut])
        for i in range(n):
            expected = vec.test(i) if i < cut * 8 else False
            assert short.test(i) == expected


def test_bitvector_set_ops_match_reference_sets():
    rng = random.Random(0x5E7)
    for _ in range(25):
        n = rng.randrange(1, 140)
        a_ref = {i for i in range(n) if rng.random() < 0.4}
        b_ref = {i for i in range(n) if rng.random() < 0.4}
        a = BitVector(n)
        b = BitVector(n)
        for i in a_ref:
            a.set(i)
        for i in b_ref:
            b.set(i)
        assert list(a.iter_set()) == sorted(a_ref)
        assert a.count() == len(a_ref)
        assert a.first_set() == (min(a_ref) if a_ref else None)
        union = a.copy()
        union.union(b)
        assert set(union.iter_set()) == a_ref | b_ref


def test_bitvector_constructor_masks_out_of_range_bits():
    vec = BitVector(4, 0xFFFF)
    assert vec.count() == 4
    assert vec.to_bytes() == b"\x0f"


# ----------------------------------------------------------------------
# CodeImage packetizer
# ----------------------------------------------------------------------
def test_code_image_round_trip_sweep():
    rng = random.Random(0xC0DE)
    for _ in range(25):
        size = rng.randrange(1, 4000)
        data = bytes(rng.getrandbits(8) for _ in range(size))
        segment_packets = rng.randrange(1, MAX_SEGMENT_PACKETS + 1)
        image = CodeImage.from_bytes(1, data,
                                     segment_packets=segment_packets)
        assert image.to_bytes() == data
        assert image.size_bytes == size
        # Geometry: every segment but the last is full; packets are
        # payload-sized except possibly the very last.
        for seg in image.segments[:-1]:
            assert seg.n_packets == segment_packets
        for seg in image.segments:
            for payload in seg.packets[:-1]:
                assert len(payload) == PACKET_PAYLOAD_BYTES
        assert image.total_packets == -(-size // PACKET_PAYLOAD_BYTES)


def test_segment_cap_at_128_packets():
    payloads = [b"x" * PACKET_PAYLOAD_BYTES] * MAX_SEGMENT_PACKETS
    Segment(1, payloads)  # exactly at the cap: fine
    with pytest.raises(ValueError, match="128-packet cap"):
        Segment(1, payloads + [b"y"])
    # §3.3 large-segment mode lifts the cap to 1024.
    large = [b"x" * PACKET_PAYLOAD_BYTES] * (MAX_SEGMENT_PACKETS + 1)
    assert Segment(1, large, large=True).n_packets == 129
    with pytest.raises(ValueError):
        Segment(1, [b"x"] * (MAX_LARGE_SEGMENT_PACKETS + 1), large=True)


def test_code_image_resplit_is_content_preserving():
    rng = random.Random(0x5EC)
    data = bytes(rng.getrandbits(8) for _ in range(3000))
    shas = {
        CodeImage.from_bytes(1, data, segment_packets=sp).to_bytes()
        for sp in (1, 4, 32, 128)
    }
    assert shas == {data}


# ----------------------------------------------------------------------
# Message sizes
# ----------------------------------------------------------------------
def test_message_sizes_track_bitmap_width():
    rng = random.Random(0xD1)
    for _ in range(20):
        n = rng.randrange(1, MAX_SEGMENT_PACKETS + 1)
        missing = BitVector.all_set(n)
        req = DownloadRequest(requester_id=3, dest_id=1, seg_id=1,
                              echo_req_ctr=2, missing=missing)
        assert req.wire_bytes() == 2 + 2 + 1 + 1 + missing.wire_bytes()
        rep = RepairRequest(requester_id=3, dest_id=1, seg_id=1,
                            missing=missing)
        assert rep.wire_bytes() == 2 + 2 + 1 + missing.wire_bytes()
    # A full-segment request still fits TinyOS-era packets: 6 B header
    # + 16 B bitmap.
    full = DownloadRequest(3, 1, 1, 2, BitVector.all_set(128))
    assert full.wire_bytes() == 22


def test_data_packet_size_tracks_payload():
    rng = random.Random(0xDA7A)
    for _ in range(20):
        payload = bytes(rng.getrandbits(8)
                        for _ in range(rng.randrange(1, 24)))
        pkt = DataPacket(source_id=1, seg_id=1, packet_id=0,
                         payload=payload)
        assert pkt.wire_bytes() == 4 + len(payload)


def test_advertisement_size_is_fixed():
    adv = Advertisement(source_id=1, program_id=2, n_segments=3,
                        high_seg_id=3, offer_seg_id=1, req_ctr=0,
                        segment_packets=128, last_seg_packets=16)
    assert adv.wire_bytes() == 12


# ----------------------------------------------------------------------
# Delta edit-script codec
# ----------------------------------------------------------------------
def _random_pair(rng):
    """An (old, new) image pair with realistic shared structure."""
    old = bytes(rng.getrandbits(8) for _ in range(rng.randrange(64, 1500)))
    new = bytearray(old)
    for _ in range(rng.randrange(0, 6)):
        mode = rng.randrange(3)
        pos = rng.randrange(len(new) + 1) if new else 0
        if mode == 0 and new:  # flip a byte
            new[pos % len(new)] ^= 0xFF
        elif mode == 1:  # insert a run
            new[pos:pos] = bytes(rng.getrandbits(8)
                                 for _ in range(rng.randrange(1, 80)))
        elif mode == 2 and len(new) > 40:  # delete a run
            del new[pos % (len(new) - 20):][:rng.randrange(1, 20)]
    return old, bytes(new) or b"\x00"


def test_delta_fuzz_round_trip():
    rng = random.Random(0xDE17A)
    for _ in range(20):
        old, new = _random_pair(rng)
        delta = encode_delta(old, new, block_size=16)
        assert apply_delta(old, delta) == new
        assert Delta.from_bytes(delta.to_bytes()).to_bytes() \
            == delta.to_bytes()


def test_delta_truncated_header_decode():
    # Chopping a serialized script at any byte offset either raises
    # DeltaError (mid-header / mid-literal) or yields a clean op-boundary
    # prefix that re-serializes to exactly the bytes it was given.
    rng = random.Random(0x7217)
    old, new = _random_pair(rng)
    blob = encode_delta(old, new, block_size=16).to_bytes()
    boundary_decodes = 0
    for cut in range(len(blob)):
        try:
            prefix = Delta.from_bytes(blob[:cut])
        except DeltaError:
            continue
        assert prefix.to_bytes() == blob[:cut]
        boundary_decodes += 1
    assert boundary_decodes >= 1  # at least the empty prefix decodes


def test_delta_corrupted_tag_rejected():
    rng = random.Random(0xBAD)
    old, new = _random_pair(rng)
    blob = bytearray(encode_delta(old, new, block_size=16).to_bytes())
    blob[0] = 0x7F  # neither COPY nor LITERAL
    with pytest.raises(DeltaError, match="unknown op tag"):
        Delta.from_bytes(bytes(blob))
