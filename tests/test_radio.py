"""Tests for the radio device's state and time accounting."""

import pytest

from repro.radio.radio import Radio
from repro.sim.kernel import Simulator


@pytest.fixture
def sim():
    return Simulator()


def test_starts_off(sim):
    radio = Radio(sim, 0)
    assert not radio.is_on
    assert radio.on_time_ms() == 0.0


def test_on_time_integrates_while_on(sim):
    radio = Radio(sim, 0)
    radio.turn_on()
    sim.now = 100.0
    assert radio.on_time_ms() == 100.0
    radio.turn_off()
    sim.now = 200.0
    assert radio.on_time_ms() == 100.0


def test_on_off_cycles_accumulate(sim):
    radio = Radio(sim, 0)
    radio.turn_on()
    sim.now = 10.0
    radio.turn_off()
    sim.now = 50.0
    radio.turn_on()
    sim.now = 60.0
    assert radio.on_time_ms() == 20.0
    assert radio.on_off_transitions == 3


def test_double_on_off_are_noops(sim):
    radio = Radio(sim, 0)
    radio.turn_on()
    radio.turn_on()
    assert radio.on_off_transitions == 1
    radio.turn_off()
    radio.turn_off()
    assert radio.on_off_transitions == 2


def test_tx_accounting(sim):
    radio = Radio(sim, 0)
    radio.turn_on()
    radio.transmitting = True
    assert radio.transmitting
    sim.now = 25.0
    radio.tx_finished(25.0)
    assert not radio.transmitting
    assert radio.tx_time_ms() == 25.0
    assert radio.frames_sent == 1


def test_rx_interval_union_of_overlaps(sim):
    radio = Radio(sim, 0)
    radio.turn_on()
    radio.rx_began()
    sim.now = 10.0
    radio.rx_began()  # overlapping second reception
    sim.now = 20.0
    radio.rx_ended()
    sim.now = 30.0
    radio.rx_ended()
    assert radio.rx_time_ms() == 30.0  # union of [0,30], not 50


def test_idle_listen_is_on_minus_tx_rx(sim):
    radio = Radio(sim, 0)
    radio.turn_on()
    sim.now = 10.0
    radio.rx_began()
    sim.now = 30.0
    radio.rx_ended()
    radio.transmitting = True
    sim.now = 40.0
    radio.tx_finished(10.0)
    sim.now = 100.0
    assert radio.on_time_ms() == 100.0
    assert radio.idle_listen_ms() == pytest.approx(100.0 - 20.0 - 10.0)


def test_turn_off_closes_rx_interval(sim):
    radio = Radio(sim, 0)
    radio.turn_on()
    radio.rx_began()
    sim.now = 15.0
    radio.turn_off()
    sim.now = 50.0
    assert radio.rx_time_ms() == 15.0


def test_deliver_counts_and_calls_hook(sim):
    radio = Radio(sim, 0)
    seen = []
    radio.on_frame = seen.append
    radio.deliver("frame")
    assert radio.frames_received == 1
    assert seen == ["frame"]


def test_rx_ended_without_begin_is_safe(sim):
    radio = Radio(sim, 0)
    radio.rx_ended()  # must not raise or go negative
    assert radio.rx_time_ms() == 0.0


def test_repr_states(sim):
    radio = Radio(sim, 7)
    assert "off" in repr(radio)
    radio.turn_on()
    assert "idle" in repr(radio)
    radio.transmitting = True
    assert "tx" in repr(radio)
