"""Tests for the Deployment runner and RunResult metrics."""

import pytest

from repro.core.segments import CodeImage
from repro.experiments.common import PROTOCOLS, Deployment, register_protocol
from repro.net.loss_models import PerfectLossModel
from repro.net.topology import Topology
from repro.radio.propagation import PropagationModel
from repro.sim.kernel import MINUTE


def quick(protocol="mnp", **kwargs):
    image = CodeImage.random(1, n_segments=1, segment_packets=8, seed=29)
    dep = Deployment(
        Topology.line(3, 15), image=image, protocol=protocol,
        loss_model=PerfectLossModel(),
        propagation=PropagationModel.outdoor(25.0), **kwargs,
    )
    return dep, dep.run_to_completion(deadline_ms=20 * MINUTE), image


def test_all_registered_protocols_present():
    assert {"mnp", "deluge", "moap", "xnp", "flood"} <= set(PROTOCOLS)


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        Deployment(Topology.line(2, 10), protocol="carrier-pigeon")


def test_default_base_is_corner():
    dep = Deployment(Topology.grid(3, 3, 10))
    assert dep.base_id == 0


def test_run_result_core_metrics():
    dep, res, image = quick()
    assert res.all_complete
    assert res.coverage == 1.0
    assert res.completion_time_ms > 0
    assert res.completion_time_min == pytest.approx(
        res.completion_time_ms / MINUTE
    )
    assert res.images_intact(image)
    assert set(res.got_code_times_ms()) == {0, 1, 2}
    assert res.got_code_times_ms()[dep.base_id] == 0.0


def test_active_radio_metrics():
    dep, res, _ = quick()
    art = res.active_radio_ms()
    assert set(art) == {0, 1, 2}
    assert all(v > 0 for v in art.values())
    no_init = res.active_radio_no_initial_ms()
    # excluding initial idle listening can only shrink the numbers
    for node_id in art:
        assert no_init[node_id] <= art[node_id] + 1e-9
    assert res.average_active_radio_s() > 0


def test_energy_and_savings_metrics():
    dep, res, _ = quick()
    energy = res.energy_nah()
    assert all(v > 0 for v in energy.values())
    savings = res.idle_listening_savings()
    assert savings is None or savings < 1.0


def test_message_metrics():
    dep, res, _ = quick()
    assert sum(res.messages_sent().values()) > 0
    assert sum(res.messages_received().values()) > 0
    assert res.sender_order()[0] == dep.base_id


def test_parent_map_points_backwards():
    dep, res, _ = quick()
    parents = res.parent_map()
    assert parents[1] in (0, 2)
    assert parents[2] in (0, 1)


def test_register_protocol_roundtrip():
    calls = []

    def factory(mote, config, image):
        calls.append(mote.node_id)
        return PROTOCOLS["mnp"](mote, config, image)

    register_protocol("test-proto", factory)
    try:
        dep = Deployment(Topology.line(2, 10), protocol="test-proto")
        assert len(calls) == 2
    finally:
        del PROTOCOLS["test-proto"]


def test_same_seed_same_channel_for_different_protocols():
    """Paired comparisons: the channel realization depends only on the
    seed, not the protocol."""
    image = CodeImage.random(1, n_segments=1, segment_packets=4, seed=1)
    a = Deployment(Topology.line(3, 15), image=image, protocol="mnp", seed=9)
    b = Deployment(Topology.line(3, 15), image=image, protocol="deluge",
                   seed=9)
    for src in range(3):
        for dst in range(3):
            if src != dst:
                assert a.loss_model.ber(src, dst, 15.0, 25.0) == \
                    b.loss_model.ber(src, dst, 15.0, 25.0)


def test_images_intact_reads_flash_without_charging_energy():
    # The accuracy check is the harness inspecting flash, not the node
    # reading it: checking must not move the energy it reports.
    from repro.experiments.common import grid_deployment

    dep = grid_deployment(3, 3, "mnp", 1, 16, 1)
    res = dep.run_to_completion()
    before = res.summary_metrics()["mean_energy_nah"]
    reads = {n: m.eeprom.read_ops for n, m in dep.motes.items()}
    assert res.images_intact(dep.image)
    assert res.images_intact(dep.image)
    assert res.summary_metrics()["mean_energy_nah"] == before
    assert {n: m.eeprom.read_ops for n, m in dep.motes.items()} == reads


def test_install_signal_charges_the_node_for_its_own_read():
    dep, res, _ = quick()
    node = dep.nodes[2]
    reads = node.mote.eeprom.read_ops
    assert node.install_signal()
    assert node.mote.eeprom.read_ops > reads
