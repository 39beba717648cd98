"""Tests for the CRC-16/CCITT implementation."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.crc import crc16_ccitt, crc16_incremental

_POLY = 0x1021


def _build_table():
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ _POLY) if crc & 0x8000 else (crc << 1)
        table.append(crc & 0xFFFF)
    return table


_TABLE = _build_table()


def table_crc16(data, initial=0xFFFF):
    """Reference table-driven CRC-16/CCITT-FALSE (the differential
    oracle for the ``binascii.crc_hqx`` implementation)."""
    crc = initial
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ _TABLE[((crc >> 8) ^ byte) & 0xFF]
    return crc


def test_known_vector_123456789():
    # CRC-16/CCITT-FALSE check value from the CRC catalogue.
    assert crc16_ccitt(b"123456789") == 0x29B1


def test_empty_is_initial():
    assert crc16_ccitt(b"") == 0xFFFF


def test_single_bit_flip_detected():
    data = bytes(range(100))
    flipped = bytes([data[0] ^ 0x01]) + data[1:]
    assert crc16_ccitt(data) != crc16_ccitt(flipped)


def test_incremental_matches_whole():
    data = bytes(range(200))
    chunks = [data[i:i + 23] for i in range(0, len(data), 23)]
    assert crc16_incremental(chunks) == crc16_ccitt(data)


def test_result_is_16_bits():
    assert 0 <= crc16_ccitt(b"\xff" * 1000) <= 0xFFFF


@given(st.binary(max_size=500), st.integers(1, 50))
def test_property_incremental_equals_whole(data, chunk):
    chunks = [data[i:i + chunk] for i in range(0, len(data), chunk)]
    assert crc16_incremental(chunks) == crc16_ccitt(data)


@given(st.binary(min_size=1, max_size=200), st.integers(0, 7),
       st.data())
def test_property_bit_flips_change_crc(data, bit, d):
    index = d.draw(st.integers(0, len(data) - 1))
    corrupted = bytearray(data)
    corrupted[index] ^= 1 << bit
    assert crc16_ccitt(data) != crc16_ccitt(bytes(corrupted))


def test_table_oracle_check_value():
    assert table_crc16(b"123456789") == 0x29B1


@pytest.mark.parametrize("length", [0, 1, 7, 64, 1000, 100_000])
@pytest.mark.parametrize("initial", [0xFFFF, 0, 0x1234])
def test_matches_table_oracle(length, initial):
    data = random.Random(length * 7 + initial).randbytes(length)
    assert crc16_ccitt(data, initial) == table_crc16(data, initial)


@given(st.binary(max_size=300), st.integers(0, 0xFFFF))
def test_property_matches_table_oracle(data, initial):
    assert crc16_ccitt(data, initial) == table_crc16(data, initial)
