"""Tests for the wireless channel: delivery, collisions, hidden terminals."""

import pytest

from repro.net.loss_models import PerfectLossModel, UniformLossModel
from repro.net.topology import Topology
from repro.radio.channel import Channel
from repro.radio.packet import Frame
from repro.radio.propagation import PropagationModel
from repro.radio.radio import Radio
from repro.sim.kernel import Simulator


def build(positions, loss=None, full_range=60.0):
    sim = Simulator(seed=1)
    topo = Topology(positions)
    channel = Channel(sim, topo, loss or PerfectLossModel(),
                      PropagationModel.outdoor(full_range), seed=1)
    radios = []
    for i in topo.node_ids():
        radio = Radio(sim, i)
        channel.attach(radio)
        radios.append(radio)
    return sim, channel, radios


def test_in_range_delivery_on_perfect_channel():
    sim, channel, (a, b) = build([(0, 0), (10, 0)])
    a.turn_on()
    b.turn_on()
    got = []
    b.on_frame = got.append
    frame = Frame(0, "hello", 20)
    channel.transmit(a, frame)
    sim.run()
    assert got == [frame]
    assert b.frames_received == 1
    assert a.frames_sent == 1


def test_out_of_range_no_delivery():
    sim, channel, (a, b) = build([(0, 0), (100, 0)])
    a.turn_on()
    b.turn_on()
    got = []
    b.on_frame = got.append
    channel.transmit(a, Frame(0, "x", 20))
    sim.run()
    assert got == []


def test_receiver_radio_off_misses_frame():
    sim, channel, (a, b) = build([(0, 0), (10, 0)])
    a.turn_on()
    got = []
    b.on_frame = got.append
    channel.transmit(a, Frame(0, "x", 20))
    sim.run()
    assert got == []


def test_airtime_matches_bitrate():
    frame = Frame(0, "x", 22)  # 40 bytes on air
    assert frame.airtime_ms == pytest.approx(40 * 8 / 19.2)


def test_overlapping_transmissions_collide_at_common_receiver():
    # a and c are both in range of b; they transmit simultaneously.
    sim, channel, (a, b, c) = build([(0, 0), (30, 0), (60, 0)])
    for r in (a, b, c):
        r.turn_on()
    got = []
    b.on_frame = got.append
    channel.transmit(a, Frame(0, "A", 20))
    channel.transmit(c, Frame(2, "C", 20))
    sim.run()
    assert got == []
    assert b.frames_corrupted == 2
    assert channel.collisions >= 2


def test_hidden_terminal_senders_cannot_hear_each_other():
    # 120 ft apart: out of mutual range (60 ft), both in range of middle.
    sim, channel, (a, b, c) = build([(0, 0), (60, 0), (120, 0)])
    for r in (a, b, c):
        r.turn_on()
    assert not channel.carrier_busy(2)
    channel.transmit(a, Frame(0, "A", 20))
    # c cannot hear a's transmission (out of range) -> carrier looks idle.
    assert not channel.carrier_busy(2)
    # ...but b is in range of both, so a second transmission collides there.
    got = []
    b.on_frame = got.append
    channel.transmit(c, Frame(2, "C", 20))
    sim.run()
    assert got == []


def test_staggered_transmissions_do_not_collide():
    sim, channel, (a, b) = build([(0, 0), (10, 0)])
    a.turn_on()
    b.turn_on()
    got = []
    b.on_frame = got.append
    first = Frame(0, "one", 20)
    airtime = first.airtime_ms
    channel.transmit(a, first)
    sim.schedule(airtime + 1.0,
                 lambda: channel.transmit(a, Frame(0, "two", 20)))
    sim.run()
    assert [f.payload for f in got] == ["one", "two"]


def test_carrier_busy_during_transmission():
    sim, channel, (a, b) = build([(0, 0), (10, 0)])
    a.turn_on()
    b.turn_on()
    channel.transmit(a, Frame(0, "x", 20))
    assert channel.carrier_busy(1)  # b hears a
    assert channel.carrier_busy(0)  # a is itself transmitting
    sim.run()
    assert not channel.carrier_busy(1)


def test_transmitting_receiver_misses_frames():
    sim, channel, (a, b) = build([(0, 0), (10, 0)])
    a.turn_on()
    b.turn_on()
    got = []
    b.on_frame = got.append
    channel.transmit(b, Frame(1, "busy", 20))
    channel.transmit(a, Frame(0, "x", 20))
    sim.run()
    assert got == []  # b was transmitting, half-duplex


def test_transmit_requires_radio_on():
    _, channel, (a, _b) = build([(0, 0), (10, 0)])
    with pytest.raises(RuntimeError):
        channel.transmit(a, Frame(0, "x", 20))


def test_double_transmit_rejected():
    sim, channel, (a, _b) = build([(0, 0), (10, 0)])
    a.turn_on()
    channel.transmit(a, Frame(0, "x", 20))
    with pytest.raises(RuntimeError):
        channel.transmit(a, Frame(0, "y", 20))


def test_radio_off_aborts_transmission():
    sim, channel, (a, b) = build([(0, 0), (10, 0)])
    a.turn_on()
    b.turn_on()
    got = []
    b.on_frame = got.append
    done = []
    channel.transmit(a, Frame(0, "x", 20), on_done=lambda: done.append(1))
    sim.schedule(1.0, a.turn_off)  # abort mid-flight
    sim.run()
    assert got == []
    assert done == []
    assert a.frames_sent == 0


def test_on_done_callback_fires_after_airtime():
    sim, channel, (a, b) = build([(0, 0), (10, 0)])
    a.turn_on()
    done_at = []
    frame = Frame(0, "x", 20)
    channel.transmit(a, frame, on_done=lambda: done_at.append(sim.now))
    sim.run()
    assert done_at == [pytest.approx(frame.airtime_ms)]


def test_bit_errors_drop_frames():
    # BER high enough that a 38-byte frame almost always dies.
    sim, channel, (a, b) = build([(0, 0), (10, 0)],
                                 loss=UniformLossModel(0.05))
    a.turn_on()
    b.turn_on()
    got = []
    b.on_frame = got.append
    for i in range(20):
        sim.schedule(i * 100.0, lambda: channel.transmit(a, Frame(0, "x", 20)))
    sim.run()
    assert len(got) < 5
    assert channel.bit_error_losses > 0


def test_neighbor_cache_respects_power_level():
    _, channel, radios = build([(0, 0), (10, 0), (100, 0)])
    assert channel.neighbors(0, 255) == [1]
    low = channel.neighbors(0, 1)
    assert low == [] or 1 not in low or len(low) <= 1


def test_attach_unknown_node_rejected():
    sim, channel, _ = build([(0, 0), (10, 0)])
    with pytest.raises(ValueError):
        channel.attach(Radio(sim, 99))


def test_tx_trace_emitted():
    sim, channel, (a, b) = build([(0, 0), (10, 0)])
    a.turn_on()
    records = []
    sim.tracer.subscribe(records.append, categories=("radio.tx",))
    channel.transmit(a, Frame(0, "x", 20))
    sim.run()
    assert len(records) == 1
    assert records[0].node == 0


def test_receiver_sleep_during_reception_loses_frame():
    sim, channel, (a, b) = build([(0, 0), (10, 0)])
    a.turn_on()
    b.turn_on()
    got = []
    b.on_frame = got.append
    channel.transmit(a, Frame(0, "x", 20))
    sim.schedule(2.0, b.turn_off)
    sim.run()
    assert got == []
