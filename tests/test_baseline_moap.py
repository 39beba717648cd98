"""Tests for the MOAP baseline."""

from repro.core.segments import CodeImage
from repro.experiments.common import Deployment
from repro.net.loss_models import PerfectLossModel, UniformLossModel
from repro.net.topology import Topology
from repro.radio.propagation import PropagationModel
from repro.sim.kernel import MINUTE

from tests.conftest import tapped


def run(topo, image, seed=0, loss=None, deadline_min=60):
    dep = Deployment(
        topo, image=image, protocol="moap", seed=seed,
        loss_model=loss or PerfectLossModel(),
        propagation=PropagationModel.outdoor(25.0),
    )
    return dep, dep.run_to_completion(deadline_ms=deadline_min * MINUTE)


def image2():
    return CodeImage.random(1, n_segments=2, segment_packets=8, seed=17)


def test_pair_disseminates():
    image = image2()
    dep, res = run(Topology.line(2, 10), image)
    assert res.all_complete
    assert res.images_intact(image)


def test_multihop_line_disseminates():
    image = image2()
    dep, res = run(Topology.line(4, 20), image)
    assert res.all_complete
    assert res.images_intact(image)


def test_hop_by_hop_no_early_forwarding():
    """MOAP's defining property: a node advertises (publishes) only after
    holding the complete image."""
    image = image2()
    with tapped("mnp.sender") as senders:
        dep, res = run(Topology.line(4, 20), image, seed=2)
    assert res.all_complete
    assert senders
    for rec in senders:
        n = dep.nodes[rec.node]
        assert n.got_code_time is not None and rec.time >= n.got_code_time


def test_nak_repair_on_lossy_channel():
    image = image2()
    dep, res = run(Topology.line(3, 20), image,
                   loss=UniformLossModel(1e-3), seed=4)
    assert res.all_complete
    assert res.images_intact(image)


def test_radio_always_on():
    image = image2()
    dep, res = run(Topology.line(3, 20), image)
    for mote in dep.motes.values():
        assert abs(mote.radio.on_time_ms() - dep.sim.now) < 1.0


def test_write_once_even_with_naks():
    image = image2()
    dep, res = run(Topology.grid(2, 3, 15), image,
                   loss=UniformLossModel(1e-3), seed=6)
    assert res.all_complete
    for mote in dep.motes.values():
        assert mote.eeprom.max_write_count() <= 1
