"""Multi-party channel scenarios: three-way collisions, partial overlap
resolution, and staggered interleaving across neighborhoods."""

from repro.net.loss_models import PerfectLossModel
from repro.net.topology import Topology
from repro.radio.channel import Channel
from repro.radio.packet import Frame
from repro.radio.propagation import PropagationModel
from repro.radio.radio import Radio
from repro.sim.kernel import Simulator


def build(positions, full_range=60.0):
    sim = Simulator(seed=5)
    topo = Topology(positions)
    channel = Channel(sim, topo, PerfectLossModel(),
                      PropagationModel.outdoor(full_range), seed=5)
    radios = []
    for i in topo.node_ids():
        radio = Radio(sim, i)
        channel.attach(radio)
        radio.turn_on()
        radios.append(radio)
    return sim, channel, radios


def test_three_way_collision_destroys_all():
    # Three hidden senders around one receiver.
    sim, channel, radios = build(
        [(0.0, 0.0), (55.0, 0.0), (110.0, 0.0), (55.0, 55.0)],
        full_range=60.0,
    )
    # senders 0, 2, 3 all reach node 1; none hear each other (>60ft).
    receiver = radios[1]
    got = []
    receiver.on_frame = got.append
    channel.transmit(radios[0], Frame(0, "a", 20))
    channel.transmit(radios[2], Frame(2, "b", 20))
    channel.transmit(radios[3], Frame(3, "c", 20))
    sim.run()
    assert got == []
    assert receiver.frames_corrupted == 3


def test_partial_overlap_still_corrupts():
    sim, channel, (a, b, c) = build([(0.0, 0.0), (55.0, 0.0), (110.0, 0.0)])
    got = []
    b.on_frame = got.append
    frame = Frame(0, "first", 20)
    airtime = frame.airtime_ms
    channel.transmit(a, frame)
    # second transmission starts just before the first ends
    sim.schedule(airtime - 1.0,
                 lambda: channel.transmit(c, Frame(2, "late", 20)))
    sim.run()
    assert got == []  # the 1ms overlap corrupted both
    assert b.frames_corrupted == 2


def test_disjoint_neighborhoods_transmit_concurrently():
    # Two independent pairs far apart: simultaneous transmissions do not
    # interact (spatial reuse).
    sim, channel, (a, b, c, d) = build(
        [(0.0, 0.0), (10.0, 0.0), (500.0, 0.0), (510.0, 0.0)]
    )
    got_b, got_d = [], []
    b.on_frame = lambda f: got_b.append(f.payload)
    d.on_frame = lambda f: got_d.append(f.payload)
    channel.transmit(a, Frame(0, "left", 20))
    channel.transmit(c, Frame(2, "right", 20))
    sim.run()
    assert got_b == ["left"]
    assert got_d == ["right"]
    assert channel.collisions == 0


def test_receiver_of_one_is_bystander_of_other():
    # b hears both a and c, but a's frame ends before c's begins.
    sim, channel, (a, b, c) = build([(0.0, 0.0), (30.0, 0.0), (60.0, 0.0)])
    got = []
    b.on_frame = lambda f: got.append(f.payload)
    frame = Frame(0, "one", 20)
    airtime = frame.airtime_ms
    channel.transmit(a, frame)
    sim.schedule(airtime + 5.0,
                 lambda: channel.transmit(c, Frame(2, "two", 20)))
    sim.run()
    assert got == ["one", "two"]
