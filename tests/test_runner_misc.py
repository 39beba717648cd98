"""Remaining runner/metric corners: savings edge cases, the baselines'
milestones and the fail count."""

import pytest

from repro.core.segments import CodeImage
from repro.experiments.common import Deployment, RunResult
from repro.net.loss_models import PerfectLossModel
from repro.net.topology import Topology
from repro.radio.propagation import PropagationModel
from repro.sim.kernel import MINUTE


def deployment(protocol="mnp", **kwargs):
    image = CodeImage.random(1, n_segments=1, segment_packets=8, seed=61)
    return Deployment(
        Topology.line(3, 15), image=image, protocol=protocol, seed=61,
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


def test_baseline_milestones_land_in_the_run_views():
    """A baseline reports its milestones through the same node methods as
    MNP, so they land in the same views: XNP's base is the one sender
    and the parent of every node it reached."""
    dep, _ = deployment(protocol="xnp")
    res = dep.run_to_completion(deadline_ms=30 * MINUTE)
    base = dep.base_id
    reached = [n for n in res.complete if n != base]
    assert reached
    assert res.sender_order() == [base]
    assert res.parent_map() == {n: base for n in reached}
    assert sorted(res.got_code_times_ms()) == sorted(reached + [base])


def test_fails_counter_tracks_mnp_fail_events():
    """The run's fail count sums the nodes' own counters, one per entry
    into FAIL (each traced as ``mnp.fail``)."""
    dep, _ = deployment()
    node = dep.nodes[2]
    for _ in range(2):
        node._enter_download(1, 1)
        node._fail("test")
    assert node.fails == 2
    assert RunResult(dep, deadline_hit=True).fails == 2


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
