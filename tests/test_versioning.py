"""End-to-end version management: CRC-verified installs and live
upgrades (v1 then v2 through the same network)."""

import pytest

from repro.core.segments import CodeImage
from repro.core.states import MNPState
from repro.experiments.common import Deployment
from repro.hardware.bootloader import InstallResult
from repro.net.loss_models import PerfectLossModel
from repro.net.topology import Topology
from repro.radio.propagation import PropagationModel
from repro.sim.kernel import MINUTE


def build(n_segments=2, seed=0):
    image = CodeImage.random(1, n_segments=n_segments, segment_packets=8,
                             seed=seed)
    dep = Deployment(
        Topology.line(4, 12), image=image, protocol="mnp", seed=seed,
        loss_model=PerfectLossModel(),
        propagation=PropagationModel.outdoor(25.0),
    )
    return dep, image


def test_advertised_crc_reaches_receivers():
    dep, image = build()
    res = dep.run_to_completion(deadline_ms=30 * MINUTE)
    assert res.all_complete
    for node in dep.nodes.values():
        assert node.program.image_crc == image.crc16


def test_verify_image_passes_after_dissemination():
    dep, image = build()
    dep.run_to_completion(deadline_ms=30 * MINUTE)
    for node in dep.nodes.values():
        assert node.verify_image()


def test_verify_image_fails_on_corruption():
    dep, image = build()
    dep.run_to_completion(deadline_ms=30 * MINUTE)
    victim = dep.nodes[2]
    key = victim._flash_key(1, 0)
    good = victim.mote.eeprom.read(key)
    victim.mote.eeprom.preload(key, bytes([good[0] ^ 0xFF]) + good[1:])
    assert not victim.verify_image()


def test_install_signal_uses_bootloader():
    dep, image = build()
    dep.run_to_completion(deadline_ms=30 * MINUTE)
    for node in dep.nodes.values():
        assert node.install_signal()
        assert node.mote.bootloader.running_program_id == 1
        assert node.mote.bootloader.last_result == InstallResult.OK


def test_install_signal_refuses_corrupt_image():
    dep, image = build()
    dep.run_to_completion(deadline_ms=30 * MINUTE)
    victim = dep.nodes[2]
    key = victim._flash_key(1, 0)
    good = victim.mote.eeprom.read(key)
    victim.mote.eeprom.preload(key, bytes([good[0] ^ 0xFF]) + good[1:])
    assert not victim.install_signal()
    assert victim.mote.bootloader.running_program_id == 0
    assert victim.mote.bootloader.last_result == InstallResult.CRC_MISMATCH


def test_live_upgrade_v1_then_v2():
    """Disseminate v1, install it, then hand the gateway v2 and run the
    network to the new version -- the paper's motivating 'requirements
    change over time' scenario."""
    dep, v1 = build()
    res = dep.run_to_completion(deadline_ms=30 * MINUTE)
    assert res.all_complete
    for node in dep.nodes.values():
        assert node.install_signal()

    v2 = CodeImage.random(2, n_segments=2, segment_packets=8, seed=99)
    dep.nodes[dep.base_id].load_image(v2)
    done = dep.sim.run_until(
        lambda: all(
            n.has_full_image and n.program.program_id == 2
            for n in dep.nodes.values()
        ),
        check_every=1000.0,
        deadline=dep.sim.now + 30 * MINUTE,
    )
    assert done, "v2 did not reach every node"
    expected = v2.to_bytes()
    for node in dep.nodes.values():
        assert node.assemble_image() == expected
        assert node.install_signal()
        assert node.mote.bootloader.running_program_id == 2
    # Write-once holds per version.
    for mote in dep.motes.values():
        assert mote.eeprom.max_write_count() <= 1


def test_load_image_rejects_stale_version():
    dep, v1 = build()
    base = dep.nodes[dep.base_id]
    with pytest.raises(ValueError):
        base.load_image(CodeImage.random(1, n_segments=1,
                                         segment_packets=8))


def test_load_image_logs_its_reset_to_idle():
    # load_image is an out-of-band reset like power_cycle: the jump back
    # to IDLE is logged, so the state history stays one unbroken chain.
    dep, v1 = build()
    base = dep.nodes[dep.base_id]
    dep.start()
    assert base.state == MNPState.ADVERTISE
    base.load_image(CodeImage.random(2, n_segments=2, segment_packets=8,
                                     seed=99))
    assert base.state == MNPState.ADVERTISE
    changes = base.state_changes
    assert len(changes) == 3
    for (_, _, before), (_, after, _) in zip(changes, changes[1:]):
        assert after == before


def test_verify_image_incomplete_is_false():
    dep, image = build()
    assert not dep.nodes[1].verify_image()
