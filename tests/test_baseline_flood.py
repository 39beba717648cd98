"""Tests for the naive flooding baseline."""

from repro.core.segments import CodeImage
from repro.experiments.common import Deployment
from repro.net.loss_models import PerfectLossModel
from repro.net.topology import Topology
from repro.radio.propagation import PropagationModel
from repro.sim.kernel import MINUTE


def run(topo, image, seed=0, deadline_min=30, protocol="flood"):
    dep = Deployment(
        topo, image=image, protocol=protocol, seed=seed,
        loss_model=PerfectLossModel(),
        propagation=PropagationModel.outdoor(25.0),
    )
    res = dep.run_to_completion(deadline_ms=deadline_min * MINUTE)
    return dep, res


def image1():
    return CodeImage.random(1, n_segments=1, segment_packets=8, seed=23)


def test_flood_spreads_data_beyond_base_range():
    """Rebroadcasting does push packets past the base's radio range..."""
    image = image1()
    dep, res = run(Topology.line(4, 20), image)
    for node_id in (2, 3):  # 40 and 60 ft: beyond the 25 ft base range
        node = dep.nodes[node_id]
        received = 8 - node._missing_for(1).count() if node.program else 0
        assert received > 0


def test_flood_fails_the_reliability_requirement():
    """...but with no loss recovery, hidden-terminal collisions between
    rebroadcasters leave gaps: flooding cannot meet the paper's 100%%
    delivery requirement -- the motivation for a real dissemination
    protocol."""
    image = image1()
    dep, res = run(Topology.line(4, 20), image, deadline_min=5)
    assert res.coverage < 1.0


def test_receivers_rebroadcast_each_packet_at_most_once():
    image = image1()
    dep, res = run(Topology.line(3, 20), image)
    data_tx = {}
    for _, node, kind in dep.collector.tx_log:
        if kind == "DataPacket":
            data_tx[node] = data_tx.get(node, 0) + 1
    assert data_tx[dep.base_id] == 8
    for node_id in (1, 2):
        node = dep.nodes[node_id]
        received = 8 - node._missing_for(1).count() if node.program else 0
        assert data_tx.get(node_id, 0) == received <= 8


def test_flood_sends_redundant_data_vs_mnp():
    """The broadcast-storm comparison: on a dense grid every flooding node
    repeats every packet, while MNP's sender selection picks a handful of
    senders -- so flooding transmits several times more data frames."""
    image = image1()
    topo = Topology.grid(4, 4, 10)
    dep_f, res_flood = run(topo, image, seed=5)
    dep_m, res_mnp = run(topo, image, seed=5, protocol="mnp")
    assert res_mnp.all_complete

    def data_tx(dep):
        return sum(1 for _, _, kind in dep.collector.tx_log
                   if kind == "DataPacket")

    assert data_tx(dep_f) > 2 * data_tx(dep_m)


def test_flood_has_no_repair_mechanism():
    """Flooding never re-requests: its messages are data + a handful of
    initial advertisements only."""
    image = image1()
    dep, res = run(Topology.line(3, 20), image)
    kinds = {kind for _, _, kind in dep.collector.tx_log}
    assert kinds <= {"DataPacket", "FloodAdv"}
