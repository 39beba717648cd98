"""Tests for the Deluge baseline."""

import pytest

from repro.baselines.deluge import DelugeNode, Summary
from repro.core.segments import CodeImage
from repro.experiments.common import Deployment
from repro.net.loss_models import PerfectLossModel, UniformLossModel
from repro.net.topology import Topology
from repro.radio.propagation import PropagationModel
from repro.sim.kernel import MINUTE
from tests.conftest import make_world


def run(topo, image, seed=0, loss=None, deadline_min=30):
    dep = Deployment(
        topo, image=image, protocol="deluge", seed=seed,
        loss_model=loss or PerfectLossModel(),
        propagation=PropagationModel.outdoor(25.0),
    )
    return dep, dep.run_to_completion(deadline_ms=deadline_min * MINUTE)


def image2():
    return CodeImage.random(1, n_segments=2, segment_packets=8, seed=13)


def test_pair_disseminates():
    image = image2()
    dep, res = run(Topology.line(2, 10), image)
    assert res.all_complete
    assert res.images_intact(image)


def test_multihop_line_disseminates():
    image = image2()
    dep, res = run(Topology.line(5, 20), image)
    assert res.all_complete
    assert res.images_intact(image)


def test_lossy_grid_disseminates():
    image = image2()
    dep, res = run(Topology.grid(3, 3, 15), image,
                   loss=UniformLossModel(5e-4), seed=3)
    assert res.all_complete
    assert res.images_intact(image)


def test_radio_always_on():
    """Deluge never sleeps: every node's active radio time equals the
    elapsed simulation time (the premise of the paper's §5 energy
    comparison)."""
    image = image2()
    dep, res = run(Topology.line(3, 20), image)
    assert res.all_complete
    for mote in dep.motes.values():
        assert mote.radio.on_time_ms() == pytest.approx(dep.sim.now)


def test_request_retries_bounded():
    # A node whose page requests go unanswered asks REQUEST_RETRIES
    # times, then gives up and maintains.
    world = make_world([(0.0, 0.0), (10.0, 0.0)])
    node = DelugeNode(world.motes[1])
    node.start()
    node._handle_summary(Summary(0, 1, 2, 8, 8, gamma=2))  # node 0 is off
    world.sim.run(until=10 * MINUTE)
    requests = [kind for _, _, kind in world.channel.tx_log
                if kind == "PageRequest"]
    assert len(requests) == DelugeNode.REQUEST_RETRIES
    assert node.state == DelugeNode.MAINTAIN


def test_trickle_suppression_reduces_summaries():
    """In a dense, fully-updated neighborhood most summaries are
    suppressed."""
    image = image2()
    dep, res = run(Topology.grid(3, 3, 10), image, seed=5)
    assert res.all_complete
    # let the network settle into maintain
    dep.sim.run(until=dep.sim.now + 4 * MINUTE)
    suppressed = sum(n.trickle.suppressed_count for n in dep.nodes.values())
    assert suppressed > 0


def test_progress_traces_emitted():
    image = image2()
    dep, res = run(Topology.line(3, 20), image)
    assert set(res.got_code_times_ms()) == set(dep.topology.node_ids())
    assert dep.collector.parents  # mnp.parent records


def test_page_sequential_delivery():
    image = CodeImage.random(1, n_segments=3, segment_packets=8, seed=14)
    dep, res = run(Topology.line(4, 20), image)
    assert res.all_complete
    for node in dep.nodes.values():
        assert node.rvd_seg == 3
