"""Tests for MissingVector/ForwardVector bit vectors."""

import pytest
from hypothesis import given, strategies as st

from repro.core.bitvector import BitVector


def test_all_set_and_none_set():
    assert BitVector.all_set(5).count() == 5
    assert BitVector.none_set(5).count() == 0
    assert BitVector.all_set(5).first_set() == 0
    assert BitVector.none_set(5).first_set() is None


def test_set_clear_test():
    v = BitVector.none_set(8)
    v.set(3)
    assert v.test(3)
    assert not v.test(2)
    v.clear(3)
    assert not v.test(3)


def test_out_of_range_raises():
    v = BitVector.none_set(4)
    with pytest.raises(IndexError):
        v.set(4)
    with pytest.raises(IndexError):
        v.test(-1)


def test_union():
    a = BitVector(8, 0b0011)
    b = BitVector(8, 0b0101)
    a.union(b)
    assert a == BitVector(8, 0b0111)


def test_union_length_mismatch():
    with pytest.raises(ValueError):
        BitVector.none_set(4).union(BitVector.none_set(5))


def test_iter_set_in_order():
    v = BitVector(16, 0b1010010)
    assert list(v.iter_set()) == [1, 4, 6]


def test_copy_is_independent():
    a = BitVector.all_set(4)
    b = a.copy()
    b.clear(0)
    assert a.test(0)
    assert not b.test(0)


def test_serialization_roundtrip():
    v = BitVector(20, 0b10101010101010101010)
    assert BitVector.from_bytes(20, v.to_bytes()) == v


def test_wire_bytes_128_packets_fit_16_bytes():
    """The paper caps segments at 128 packets so the MissingVector fits in
    a single radio packet (16 bytes)."""
    assert BitVector.all_set(128).wire_bytes() == 16


def test_wire_bytes_minimum_one():
    assert BitVector.none_set(1).wire_bytes() == 1


def test_constructor_masks_extra_bits():
    v = BitVector(4, 0b11111)
    assert v.count() == 4


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        BitVector(-1)


def test_equality_and_hash():
    a = BitVector(8, 5)
    b = BitVector(8, 5)
    assert a == b
    assert hash(a) == hash(b)
    assert a != BitVector(9, 5)
    assert a != "not a vector"


def test_len_and_repr():
    v = BitVector.all_set(3)
    assert len(v) == 3
    assert "3/3" in repr(v)


# ----------------------------------------------------------------------
# Property-based tests (hypothesis)
# ----------------------------------------------------------------------
bitvectors = st.integers(min_value=1, max_value=128).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0,
                                                max_value=(1 << n) - 1))
).map(lambda t: BitVector(t[0], t[1]))


@given(bitvectors)
def test_property_count_equals_iter_set_length(v):
    assert v.count() == len(list(v.iter_set()))


@given(bitvectors)
def test_property_roundtrip_bytes(v):
    assert BitVector.from_bytes(v.n, v.to_bytes()) == v


@given(bitvectors)
def test_property_first_set_is_min_of_iter(v):
    bits = list(v.iter_set())
    assert v.first_set() == (min(bits) if bits else None)


@given(st.integers(min_value=1, max_value=128), st.data())
def test_property_union_is_superset(n, data):
    a = BitVector(n, data.draw(st.integers(0, (1 << n) - 1)))
    b = BitVector(n, data.draw(st.integers(0, (1 << n) - 1)))
    before_a = set(a.iter_set())
    before_b = set(b.iter_set())
    a.union(b)
    assert set(a.iter_set()) == before_a | before_b


@given(bitvectors)
def test_property_clear_all_leaves_empty(v):
    for i in list(v.iter_set()):
        v.clear(i)
    assert v.is_empty()
    assert v.count() == 0
