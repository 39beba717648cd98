"""Tests for the XNP single-hop baseline."""

from repro.core.segments import CodeImage
from repro.experiments.common import Deployment
from repro.net.loss_models import PerfectLossModel, UniformLossModel
from repro.net.topology import Topology
from repro.radio.propagation import PropagationModel
from repro.sim.kernel import MINUTE


def run(topo, image, seed=0, loss=None, deadline_min=30):
    dep = Deployment(
        topo, image=image, protocol="xnp", seed=seed,
        loss_model=loss or PerfectLossModel(),
        propagation=PropagationModel.outdoor(25.0),
    )
    res = dep.run_to_completion(deadline_ms=deadline_min * MINUTE)
    return dep, res


def image2():
    return CodeImage.random(1, n_segments=2, segment_packets=8, seed=19)


def test_single_hop_neighborhood_fully_programmed():
    image = image2()
    dep, res = run(Topology.line(3, 10), image)  # all within 25 ft
    assert res.all_complete
    assert res.images_intact(image)


def test_multihop_coverage_fails():
    """XNP's defining limitation (paper's introduction): nodes beyond the
    base station's radio range are never reprogrammed."""
    image = image2()
    dep, res = run(Topology.line(5, 20), image, deadline_min=10)
    assert not res.all_complete
    assert res.deadline_hit
    # nodes 1 (20ft) is in range; nodes 3,4 (60, 80 ft) are not
    assert dep.nodes[1].has_full_image
    assert not dep.nodes[3].has_full_image
    assert not dep.nodes[4].has_full_image


def test_nak_repair_recovers_losses(monkeypatch):
    from repro.baselines.xnp import XnpNode

    monkeypatch.setattr(XnpNode, "QUERY_ROUNDS", 10)
    image = image2()
    dep = Deployment(
        Topology.line(2, 10), image=image, protocol="xnp", seed=3,
        loss_model=UniformLossModel(1e-3),
        propagation=PropagationModel.outdoor(25.0),
    )
    dep.run_to_completion(deadline_ms=30 * MINUTE)
    assert dep.nodes[1].has_full_image
    assert dep.nodes[1].assemble_image() == image.to_bytes()
    # Losses actually happened and were repaired through NAK rounds.
    assert dep.channel.bit_error_losses > 0


def test_non_base_nodes_never_send_data():
    image = image2()
    dep, res = run(Topology.line(3, 10), image)
    for t, node, kind in dep.collector.tx_log:
        if kind == "DataPacket":
            assert node == dep.base_id
