"""End-to-end tests of the §3.3 large-segment mode (EEPROM-backed loss
tracking, summary-based requests)."""

import pytest

from repro.core.config import MNPConfig
from repro.core.loss_log import EepromMissingLog
from repro.core.messages import LossSummary
from repro.core.mnp import MNPNode
from repro.core.segments import CodeImage
from repro.experiments.common import Deployment
from repro.net.loss_models import PerfectLossModel, UniformLossModel
from repro.net.topology import Topology
from repro.radio.propagation import PropagationModel
from repro.sim.kernel import MINUTE


def large_image(segment_packets=256, n_bytes=None):
    n_bytes = n_bytes or segment_packets * 23
    data = bytes((i * 19 + 5) % 256 for i in range(n_bytes))
    return CodeImage.from_bytes(1, data, segment_packets=segment_packets,
                                large=True)


def run(image, seed=0, loss=None, nodes=3):
    cfg = MNPConfig(pipelining=False, large_segments=True)
    dep = Deployment(
        Topology.line(nodes, 12), image=image, protocol="mnp",
        protocol_config=cfg, seed=seed,
        loss_model=loss or PerfectLossModel(),
        propagation=PropagationModel.outdoor(25.0),
    )
    res = dep.run_to_completion(deadline_ms=60 * MINUTE)
    return dep, res


def test_config_forbids_large_segments_with_pipelining():
    with pytest.raises(ValueError):
        MNPConfig(pipelining=True, large_segments=True)


def test_large_segment_image_construction():
    image = large_image(segment_packets=256)
    assert image.segment(1).n_packets == 256
    with pytest.raises(ValueError):
        CodeImage.from_bytes(1, b"x" * 10_000, segment_packets=256)


def test_dissemination_with_256_packet_segment():
    image = large_image(256)
    dep, res = run(image, seed=2)
    assert res.all_complete
    assert res.images_intact(image)


def test_receivers_use_eeprom_backed_tracking():
    image = large_image(256)
    dep, res = run(image, seed=2)
    for node_id, node in dep.nodes.items():
        if node_id == dep.base_id:
            continue
        tracker = node._seg_missing[1]
        assert isinstance(tracker, EepromMissingLog)
        assert tracker.is_empty()
        # Bitmap-line writes were charged on top of the data writes.
        data_writes = 256 * 2  # 23B packets -> 2 lines each
        assert node.mote.eeprom.write_ops > data_writes


def test_requests_carry_summaries_not_bitmaps(monkeypatch):
    image = large_image(256)
    cfg = MNPConfig(pipelining=False, large_segments=True)
    dep = Deployment(
        Topology.line(2, 12), image=image, protocol="mnp",
        protocol_config=cfg, seed=3,
        loss_model=PerfectLossModel(),
        propagation=PropagationModel.outdoor(25.0),
    )
    summaries = []
    original = MNPNode._loss_payload

    def spy(node, seg_id):
        payload = original(node, seg_id)
        if node.node_id == 1:
            summaries.append(payload)
        return payload

    # A node has no instance dict to hold a spy, so it goes on the class.
    monkeypatch.setattr(MNPNode, "_loss_payload", spy)
    dep.run_to_completion(deadline_ms=60 * MINUTE)
    assert summaries
    assert all(isinstance(p, LossSummary) for p in summaries)
    assert all(p.wire_bytes() == 4 for p in summaries)


def test_lossy_channel_recovers_via_tail_streaming():
    image = large_image(200)
    dep, res = run(image, seed=5, loss=UniformLossModel(3e-4))
    assert res.all_complete
    assert res.images_intact(image)
    # data packets were written exactly once despite retries
    for node_id, mote in dep.motes.items():
        data_keys = [k for k, c in mote.eeprom.write_counts.items()
                     if "missing-line" not in k]
        assert all(mote.eeprom.write_counts[k] == 1 for k in data_keys)


def test_multi_large_segment_image():
    image = large_image(segment_packets=200, n_bytes=200 * 23 * 2)
    assert image.n_segments == 2
    dep, res = run(image, seed=7)
    assert res.all_complete
    assert res.images_intact(image)
