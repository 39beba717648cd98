"""Tests for the TDMA MAC and SS-TDMA style slot scheduling."""

import pytest

from repro.net.topology import Topology
from repro.radio.tdma import (
    DEFAULT_SLOT_MS,
    TdmaMac,
    TdmaSchedule,
    build_tdma_schedule,
)
from tests.conftest import make_world


# ----------------------------------------------------------------------
# Schedule construction
# ----------------------------------------------------------------------
def test_distance2_coloring_valid_on_grid():
    topo = Topology.grid(5, 5, 10)
    schedule = build_tdma_schedule(topo, interference_range_ft=15.0)
    neighbors = {n: set(topo.nodes_within(n, 15.0))
                 for n in topo.node_ids()}
    for node in topo.node_ids():
        two_hop = set(neighbors[node])
        for first in neighbors[node]:
            two_hop |= neighbors[first]
        two_hop.discard(node)
        for other in two_hop:
            assert schedule.slot_of(node) != schedule.slot_of(other), \
                f"{node} and {other} share a slot within 2 hops"


def test_isolated_nodes_share_slot_zero():
    topo = Topology([(0, 0), (1000, 0), (2000, 0)])
    schedule = build_tdma_schedule(topo, 50.0)
    assert all(schedule.slot_of(n) == 0 for n in topo.node_ids())
    assert schedule.n_slots == 1


def test_schedule_validation():
    with pytest.raises(ValueError):
        TdmaSchedule({0: 0}, 0)
    with pytest.raises(ValueError):
        TdmaSchedule({0: 5}, 3)


def test_next_slot_start_is_future_and_aligned():
    schedule = TdmaSchedule({7: 2}, 4, slot_ms=10.0)
    start = schedule.next_slot_start(7, now=0.0)
    assert start == 20.0
    assert schedule.next_slot_start(7, now=20.0) == 60.0
    assert schedule.next_slot_start(7, now=25.0) == 60.0
    assert schedule.next_slot_start(7, now=19.9) == pytest.approx(20.0)


def test_frame_length():
    schedule = TdmaSchedule({0: 0}, 8, slot_ms=25.0)
    assert schedule.frame_ms == 200.0


# ----------------------------------------------------------------------
# The MAC
# ----------------------------------------------------------------------
def tdma_world(positions, interference=60.0, slot_ms=DEFAULT_SLOT_MS):
    world = make_world(positions)
    schedule = build_tdma_schedule(world.topology, interference,
                                   slot_ms=slot_ms)
    macs = []
    for mote in world.motes:
        mac = TdmaMac(world.sim, mote.radio, world.channel, schedule)
        mote.mac = mac
        macs.append(mac)
    return world, schedule, macs


def test_tdma_delivers_frames():
    world, schedule, (a, b) = tdma_world([(0, 0), (10, 0)])
    for mote in world.motes:
        mote.radio.turn_on()
    got = []
    b.on_receive = lambda f: got.append(f.payload)
    a.send("hello", 10)
    world.sim.run(until=5_000.0)
    assert got == ["hello"]


def test_transmissions_only_in_owned_slot():
    world, schedule, (a, b) = tdma_world([(0, 0), (10, 0)])
    for mote in world.motes:
        mote.radio.turn_on()
    tx_times = []
    world.sim.tracer.subscribe(lambda r: tx_times.append(r.time),
                               categories=("radio.tx",))
    for i in range(3):
        a.send(i, 10)
    world.sim.run(until=10_000.0)
    assert len(tx_times) == 3
    slot = schedule.slot_of(0)
    for t in tx_times:
        within = (t - slot * schedule.slot_ms) % schedule.frame_ms
        assert 0 <= within < schedule.slot_ms


def test_hidden_terminal_pair_never_collides():
    """The CSMA hidden-terminal scenario (test_channel) made both frames
    collide at the middle receiver; under TDMA the two outer senders own
    different slots, so both frames arrive."""
    world, schedule, (a, b, c) = tdma_world(
        [(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)], interference=60.0
    )
    for mote in world.motes:
        mote.radio.turn_on()
    assert schedule.slot_of(0) != schedule.slot_of(2)
    got = []
    b.on_receive = lambda f: got.append(f.payload)
    a.send("from-a", 10)
    c.send("from-c", 10)
    world.sim.run(until=5_000.0)
    assert sorted(got) == ["from-a", "from-c"]
    assert world.channel.collisions == 0


def test_oversized_frame_rejected():
    world, schedule, (a, _) = tdma_world([(0, 0), (10, 0)], slot_ms=10.0)
    world.motes[0].radio.turn_on()
    with pytest.raises(ValueError):
        a.send("too big", 200)


def test_radio_off_skips_slot_and_retries():
    world, schedule, (a, b) = tdma_world([(0, 0), (10, 0)])
    a_mote, b_mote = world.motes
    a_mote.radio.turn_on()
    b_mote.radio.turn_on()
    got = []
    b.on_receive = lambda f: got.append(f.payload)
    a.send("late", 10)
    a_mote.radio.turn_off()
    world.sim.run(until=2_000.0)
    assert got == []
    assert a.slots_skipped >= 1
    a_mote.radio.turn_on()
    world.sim.run(until=6_000.0)
    assert got == ["late"]


def test_reset_clears_queue():
    world, schedule, (a, b) = tdma_world([(0, 0), (10, 0)])
    for mote in world.motes:
        mote.radio.turn_on()
    got = []
    b.on_receive = lambda f: got.append(f.payload)
    a.send("x", 10)
    a.reset()
    world.sim.run(until=5_000.0)
    assert got == []
    assert a.pending() == 0


def test_send_with_radio_off_raises():
    world, schedule, (a, _) = tdma_world([(0, 0), (10, 0)])
    with pytest.raises(RuntimeError):
        a.send("x", 10)


def test_mnp_completes_over_tdma():
    from repro.experiments.extensions import mnp_over_tdma

    csma_run, tdma_run, schedule = mnp_over_tdma(rows=4, cols=4,
                                                 n_segments=1, seed=3)
    assert tdma_run.coverage == 1.0
    assert tdma_run.collisions == 0
    assert csma_run.coverage == 1.0
