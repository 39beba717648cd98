"""Tests for the CSMA MAC."""

import pytest

from repro.radio.packet import BROADCAST
from tests.conftest import make_world


def test_send_delivers_to_neighbor(world2):
    a, b = world2.motes
    a.radio.turn_on()
    b.radio.turn_on()
    got = []
    b.mac.on_receive = got.append
    a.mac.send("ping", 10)
    world2.sim.run()
    assert [f.payload for f in got] == ["ping"]


def test_send_done_callback(world2):
    a, _ = world2.motes
    a.radio.turn_on()
    done = []
    a.mac.on_send_done = done.append
    a.mac.send("msg", 10)
    world2.sim.run()
    assert done == ["msg"]


def test_queue_serializes_frames(world2):
    a, b = world2.motes
    a.radio.turn_on()
    b.radio.turn_on()
    got = []
    b.mac.on_receive = lambda f: got.append(f.payload)
    for i in range(5):
        a.mac.send(i, 10)
    world2.sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_send_with_radio_off_raises(world2):
    a, _ = world2.motes
    with pytest.raises(RuntimeError):
        a.mac.send("x", 10)


def test_carrier_sense_defers_and_counts_backoff():
    # Deterministic congestion: a very long frame is on the air when the
    # second sender attempts.
    world = make_world([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)])
    a, b, c = world.motes
    for m in world.motes:
        m.radio.turn_on()
    got = []
    c.mac.on_receive = lambda f: got.append(f.payload)
    a.mac.send("long", 500)  # ~215 ms on air
    world.sim.run(until=30.0)  # a is now certainly transmitting
    assert world.channel.carrier_busy(1)
    b.mac.send("after", 10)
    world.sim.run()
    assert b.mac.congestion_backoffs >= 1
    assert "after" in got


def test_unicast_filtering(world2):
    a, b = world2.motes
    a.radio.turn_on()
    b.radio.turn_on()
    got = []
    b.mac.on_receive = got.append
    a.mac.send("notyours", 10, dst=42)
    a.mac.send("yours", 10, dst=b.node_id)
    a.mac.send("everyone", 10, dst=BROADCAST)
    world2.sim.run()
    assert [f.payload for f in got] == ["yours", "everyone"]


def test_reset_drops_queue(world2):
    a, b = world2.motes
    a.radio.turn_on()
    b.radio.turn_on()
    got = []
    b.mac.on_receive = got.append
    a.mac.send("one", 10)
    a.mac.send("two", 10)
    a.mac.reset()
    world2.sim.run()
    assert got == []  # both still in backoff when cancelled


def test_reset_clears_in_flight_state(world2):
    a, b = world2.motes
    a.radio.turn_on()
    b.radio.turn_on()
    a.mac.send("x", 10)
    world2.sim.run(until=30.0)
    a.mote_sleep = a.radio.turn_off()  # aborts frame at channel
    a.mac.reset()
    a.radio.turn_on()
    got = []
    b.mac.on_receive = lambda f: got.append(f.payload)
    a.mac.send("fresh", 10)
    world2.sim.run()
    assert got[-1] == "fresh"


def test_pending_counts_queue_and_in_flight(world2):
    a, _ = world2.motes
    a.radio.turn_on()
    assert a.mac.pending() == 0
    a.mac.send("one", 10)
    a.mac.send("two", 10)
    assert a.mac.pending() == 2
    world2.sim.run()
    assert a.mac.pending() == 0


def test_frames_queued_counter(world2):
    a, _ = world2.motes
    a.radio.turn_on()
    a.mac.send("x", 10)
    a.mac.send("y", 10)
    assert a.mac.frames_queued == 2
