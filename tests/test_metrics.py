"""Tests for the metrics collector and report rendering."""

from repro.core.image_node import ProgramInfo
from repro.core.mnp import MNPNode
from repro.metrics.collector import MetricsCollector
from repro.metrics.reports import (
    format_grid,
    format_table,
    format_timeline,
    summarize,
)
from repro.net.loss_models import PerfectLossModel
from repro.net.topology import Topology
from repro.radio.channel import Channel
from repro.radio.packet import Frame
from repro.radio.propagation import PropagationModel
from repro.radio.radio import Radio
from repro.sim.kernel import Simulator

from tests.conftest import make_world
from tests.test_mnp_unit import adv_from


def milestone_nodes(*node_ids):
    """Never-started MNP nodes with the given ids on a perfect channel,
    and a collector over them."""
    world = make_world([(10.0 * i, 0.0) for i in range(max(node_ids) + 1)])
    nodes = {i: MNPNode(world.motes[i]) for i in node_ids}
    return world.sim, nodes, MetricsCollector(world.channel, nodes)


def build_channel(n_nodes):
    """A perfect channel over ``n_nodes`` nodes 10 ft apart in a row (all
    in range of each other), with a radio attached at each, all off."""
    sim = Simulator()
    topo = Topology([(10.0 * i, 0.0) for i in range(n_nodes)])
    channel = Channel(sim, topo, PerfectLossModel(),
                      PropagationModel.outdoor())
    radios = []
    for node in topo.node_ids():
        radio = Radio(sim, node)
        channel.attach(radio)
        radios.append(radio)
    return sim, channel, radios


def frame(radio, kind, payload_bytes=20):
    """A frame from ``radio`` whose payload's class is named ``kind``."""
    return Frame(radio.node_id, type(kind, (), {})(), payload_bytes)


def transmit_at(sim, channel, radio, t, kind):
    """Switch ``radio`` on and put a ``kind`` frame on the air at ``t`` ms."""

    def send():
        radio.turn_on()
        channel.transmit(radio, frame(radio, kind))

    sim.schedule_at(t, send)


def test_tx_rx_counting():
    sim, channel, radios = build_channel(3)
    collector = MetricsCollector(channel, {})
    sender, receiver = radios[1], radios[2]
    sender.turn_on()
    receiver.turn_on()
    channel.transmit(sender, frame(sender, "DataPacket", 40))
    sim.run()
    receiver.turn_off()  # decodes the data packet only
    channel.transmit(sender, frame(sender, "Advertisement"))
    sim.run()
    assert collector.tx_by_node[1] == 2
    assert [kind for _, node, kind in collector.tx_log if node == 1] == \
        ["DataPacket", "Advertisement"]
    assert collector.rx_by_node[2] == 1


def report_sender(sim, node, t, seg, req_ctr):
    sim.now = t
    node._report_sender(seg, req_ctr, packets=4)


def test_sender_order_dedups_and_sorts():
    sim, nodes, collector = milestone_nodes(3, 4, 5)
    report_sender(sim, nodes[5], 10.0, 1, 2)
    report_sender(sim, nodes[3], 20.0, 1, 1)
    report_sender(sim, nodes[5], 30.0, 2, 1)
    assert nodes[5].became_sender_at == 10.0  # the first turn stays
    assert collector.sender_order() == [5, 3]


def test_sender_order_breaks_ties_by_node_id():
    sim, nodes, collector = milestone_nodes(3, 4, 5)
    report_sender(sim, nodes[5], 10.0, 1, 1)
    report_sender(sim, nodes[3], 10.0, 1, 1)
    assert collector.sender_order() == [3, 5]


def test_parents_are_the_last_reported():
    sim, nodes, collector = milestone_nodes(1, 2)
    node = nodes[2]
    for parent in (0, 1):
        node.parent = parent
        node._report_parent(seg=1)
    node.parent = 0  # taken without a parent record: not reported
    assert collector.parents == {2: 1}


def test_got_code_first_time_wins():
    sim, nodes, _ = milestone_nodes(7)
    node = nodes[7]
    node.program = ProgramInfo(1, 1, 8, 8)
    assert not node._report_got_code()  # not complete yet
    node.rvd_seg = 1
    sim.now = 100.0
    assert node._report_got_code()
    sim.now = 200.0
    assert not node._report_got_code()
    assert node.got_code_time == 100.0


def test_tx_per_window_buckets():
    sim, channel, radios = build_channel(3)
    collector = MetricsCollector(channel, {})
    transmit_at(sim, channel, radios[1], 100.0, "A")
    transmit_at(sim, channel, radios[1], 59_000.0, "A")
    transmit_at(sim, channel, radios[2], 61_000.0, "B")
    sim.run()
    series = collector.tx_per_window(60_000.0)
    assert series["A"] == [2, 0]
    assert series["B"] == [0, 1]


def test_tx_per_window_kind_filter_and_until():
    sim, channel, radios = build_channel(2)
    collector = MetricsCollector(channel, {})
    transmit_at(sim, channel, radios[1], 100.0, "A")
    sim.run()
    series = collector.tx_per_window(60_000.0, kinds=["A", "Z"],
                                     until=120_000.0)
    assert series["A"] == [1, 0, 0]
    assert series["Z"] == [0, 0, 0]


def test_first_adv_snapshot():
    sim, nodes, collector = milestone_nodes(3, 4)
    node = nodes[4]
    node.start()
    sim.run(until=500.0)
    node._handle_advertisement(adv_from(0))
    sim.run(until=700.0)
    node._handle_advertisement(adv_from(0))
    assert collector.first_adv == {4: (500.0, 500.0)}


def test_format_table_alignment():
    text = format_table(["name", "value"], [["a", 1], ["long-name", 22]],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1]
    assert all(len(line) <= len(max(lines, key=len)) for line in lines)
    assert "long-name" in text


def test_format_grid_layout():
    topo = Topology.grid(2, 3, 10)
    values = {i: float(i) for i in topo.node_ids()}
    text = format_grid(values, topo, fmt="{:3.0f}")
    rows = text.splitlines()
    assert len(rows) == 2
    assert rows[0].split() == ["0", "1", "2"]
    assert rows[1].split() == ["3", "4", "5"]


def test_format_grid_missing_values():
    topo = Topology.grid(1, 2, 10)
    text = format_grid({0: 1.0}, topo, fmt="{:3.0f}", missing="  .")
    assert "." in text


def test_format_timeline():
    text = format_timeline({"A": [1, 2], "B": [0, 5]}, 60_000.0, title="F12")
    assert "F12" in text
    lines = text.splitlines()
    assert len(lines) == 1 + 2 + 2  # title, header, separator, 2 windows


def test_summarize():
    stats = summarize([1.0, 2.0, 3.0])
    assert stats == {"min": 1.0, "mean": 2.0, "max": 3.0, "n": 3}
    assert summarize([])["mean"] is None


def test_format_parent_arrows():
    from repro.metrics.reports import format_parent_arrows

    topo = Topology.grid(2, 2, 10)  # ids: 0 (0,0), 1 (10,0), 2 (0,10), 3
    parents = {1: 0, 2: 0, 3: 0}
    text = format_parent_arrows(parents, topo, base_id=0, title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    # y grows upward: top row printed first holds nodes 2 and 3.
    assert lines[1] == "↓ ↙"
    assert lines[2] == "◎ ←"


def test_format_parent_arrows_missing_parent():
    from repro.metrics.reports import format_parent_arrows

    topo = Topology.grid(1, 3, 10)
    text = format_parent_arrows({1: 0}, topo, base_id=0)
    assert text == "◎ ← ·"
