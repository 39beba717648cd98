"""Remaining runner/metric corners: savings edge cases and the
collector's baseline-protocol event paths."""

import pytest

from repro.core.segments import CodeImage
from repro.experiments.common import Deployment, RunResult
from repro.net.loss_models import PerfectLossModel
from repro.net.topology import Topology
from repro.radio.propagation import PropagationModel
from repro.sim.kernel import MINUTE


def deployment(**kwargs):
    image = CodeImage.random(1, n_segments=1, segment_packets=8, seed=61)
    return Deployment(
        Topology.line(3, 15), image=image, protocol="mnp", seed=61,
        loss_model=PerfectLossModel(),
        propagation=PropagationModel.outdoor(25.0), **kwargs,
    ), image


def test_idle_listening_savings_none_when_incomplete():
    dep, _ = deployment()
    res = RunResult(dep, deadline_hit=True)  # never ran
    assert res.idle_listening_savings() is None
    assert res.completion_time_ms is None
    assert res.completion_time_min is None


def test_images_intact_skips_incomplete_nodes():
    dep, image = deployment()
    res = RunResult(dep, deadline_hit=True)
    # Nobody (except the base) holds the image; only complete nodes are
    # checked, and the base's copy is intact.
    assert res.images_intact(image)


def test_collector_handles_proto_events():
    """The proto.* trace categories used by the baselines land in the
    same collector slots as mnp.* events."""
    dep, _ = deployment()
    dep.sim.tracer.emit("proto.sender", node=4, seg=1, req_ctr=2)
    dep.sim.tracer.emit("proto.parent", node=5, parent=4)
    dep.sim.tracer.emit("proto.got_code", node=5)
    assert dep.collector.sender_events[-1][1] == 4
    assert dep.collector.parents[5] == 4
    assert 5 in dep.collector.got_code


def test_fails_counter_tracks_mnp_fail_events():
    dep, _ = deployment()
    dep.sim.tracer.emit("mnp.fail", node=2, seg=1, reason="test")
    dep.sim.tracer.emit("mnp.fail", node=2, seg=1, reason="test")
    assert dep.collector.fails[2] == 2


def test_base_id_override():
    image = CodeImage.random(1, n_segments=1, segment_packets=8, seed=62)
    dep = Deployment(
        Topology.grid(3, 3, 15), image=image, protocol="mnp", seed=62,
        base_id=4,  # centre
        loss_model=PerfectLossModel(),
        propagation=PropagationModel.outdoor(25.0),
    )
    assert dep.base_id == 4
    assert dep.nodes[4].has_full_image
    res = dep.run_to_completion(deadline_ms=30 * MINUTE)
    assert res.all_complete
