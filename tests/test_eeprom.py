"""Tests for the external flash model."""

import pytest

from repro.hardware.eeprom import Eeprom, EepromError, LINE_BYTES


def test_write_read_roundtrip():
    flash = Eeprom()
    flash.write(("s", 1), b"hello")
    assert flash.read(("s", 1)) == b"hello"


def test_contains():
    flash = Eeprom()
    assert ("a",) not in flash
    flash.write(("a",), b"x")
    assert ("a",) in flash


def test_read_missing_key_raises():
    with pytest.raises(KeyError):
        Eeprom().read("nope")


def test_write_ops_counted_in_16_byte_lines():
    flash = Eeprom()
    flash.write("k", b"x" * 16)
    assert flash.write_ops == 1
    flash.write("k2", b"x" * 17)
    assert flash.write_ops == 1 + 2
    flash.write("k3", b"")
    assert flash.write_ops == 4  # minimum one line


def test_read_ops_counted():
    flash = Eeprom()
    flash.write("k", b"x" * 32)
    flash.read("k")
    assert flash.read_ops == 2


def test_write_counts_track_rewrites():
    flash = Eeprom()
    flash.write("k", b"a")
    flash.write("k", b"b")
    assert flash.write_counts["k"] == 2
    assert flash.max_write_count() == 2


def test_max_write_count_empty():
    assert Eeprom().max_write_count() == 0


def test_capacity_enforced():
    flash = Eeprom(capacity_bytes=10)
    flash.write("a", b"x" * 10)
    with pytest.raises(EepromError):
        flash.write("b", b"y")


def test_rewrite_same_key_reuses_space():
    flash = Eeprom(capacity_bytes=10)
    flash.write("a", b"x" * 10)
    flash.write("a", b"y" * 10)  # must not overflow
    assert flash.used_bytes == 10


def test_erase_releases_space_but_keeps_counters():
    flash = Eeprom()
    flash.write("a", b"x" * 16)
    flash.erase()
    assert flash.used_bytes == 0
    assert "a" not in flash
    assert flash.write_ops == 1  # history preserved for energy accounting


def test_preload_does_not_count():
    flash = Eeprom()
    flash.preload("a", b"x" * 64)
    assert flash.write_ops == 0
    assert flash.read("a") == b"x" * 64
    assert flash.read_ops == 4


def test_preload_respects_capacity():
    flash = Eeprom(capacity_bytes=4)
    with pytest.raises(EepromError):
        flash.preload("a", b"x" * 5)


def test_invalid_capacity():
    with pytest.raises(ValueError):
        Eeprom(capacity_bytes=0)


def test_explicit_nbytes_overrides_len():
    flash = Eeprom()
    flash.write("a", "logical-object", nbytes=2 * LINE_BYTES)
    assert flash.write_ops == 2
    assert flash.used_bytes == 2 * LINE_BYTES


def test_peek_does_not_count():
    flash = Eeprom()
    flash.write("a", b"x" * 64)
    assert flash.peek("a") == b"x" * 64
    assert flash.read_ops == 0
    with pytest.raises(KeyError):
        flash.peek("missing")
