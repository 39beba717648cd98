"""Tests for the metrics collector and report rendering."""

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


def emit(sim, category, t=None, **fields):
    if t is not None:
        sim.now = t
    sim.tracer.emit(category, **fields)


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
    collector = MetricsCollector(sim, channel)
    sender, receiver = radios[1], radios[2]
    sender.turn_on()
    receiver.turn_on()
    channel.transmit(sender, frame(sender, "DataPacket", 40))
    sim.run()
    receiver.turn_off()  # decodes the data packet only
    channel.transmit(sender, frame(sender, "Advertisement"))
    sim.run()
    assert collector.tx_by_node[1] == 2
    assert collector.tx_by_node_kind[1]["DataPacket"] == 1
    assert collector.rx_by_node[2] == 1


def test_sender_order_dedups_and_sorts():
    sim, channel, _ = build_channel(2)
    collector = MetricsCollector(sim, channel)
    emit(sim, "mnp.sender", t=10.0, node=5, seg=1, req_ctr=2, packets=4)
    emit(sim, "mnp.sender", t=20.0, node=3, seg=1, req_ctr=1, packets=4)
    emit(sim, "mnp.sender", t=30.0, node=5, seg=2, req_ctr=1, packets=4)
    assert collector.sender_order() == [5, 3]


def test_got_code_first_time_wins():
    sim, channel, _ = build_channel(2)
    collector = MetricsCollector(sim, channel)
    emit(sim, "mnp.got_code", t=100.0, node=7, parent=1)
    emit(sim, "mnp.got_code", t=200.0, node=7, parent=1)
    assert collector.got_code[7] == 100.0
    assert collector.completion_time(1) == 100.0
    assert collector.completion_time(2) is None


def test_tx_per_window_buckets():
    sim, channel, radios = build_channel(3)
    collector = MetricsCollector(sim, channel)
    transmit_at(sim, channel, radios[1], 100.0, "A")
    transmit_at(sim, channel, radios[1], 59_000.0, "A")
    transmit_at(sim, channel, radios[2], 61_000.0, "B")
    sim.run()
    series = collector.tx_per_window(60_000.0)
    assert series["A"] == [2, 0]
    assert series["B"] == [0, 1]


def test_tx_per_window_kind_filter_and_until():
    sim, channel, radios = build_channel(2)
    collector = MetricsCollector(sim, channel)
    transmit_at(sim, channel, radios[1], 100.0, "A")
    sim.run()
    series = collector.tx_per_window(60_000.0, kinds=["A", "Z"],
                                     until=120_000.0)
    assert series["A"] == [1, 0, 0]
    assert series["Z"] == [0, 0, 0]


def test_first_adv_snapshot():
    sim, channel, _ = build_channel(2)
    collector = MetricsCollector(sim, channel)
    emit(sim, "mnp.first_adv", t=500.0, node=4, radio_on_ms=500.0)
    assert collector.first_adv[4] == (500.0, 500.0)


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
