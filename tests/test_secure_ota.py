"""Tests for the secure OTA pipeline (:mod:`repro.core.auth`).

Four layers: pure crypto (digests, hash chains, manifest signatures),
seeded codec fuzz for the manifest's wire format (malformed bytes are
rejected, never crash), node-level admission (nonce replay, rollback,
baseline version pinning, quarantine-and-re-request), and end-to-end
adversarial runs (the watchdog's authentic-install audit must hold while
an in-channel attacker forges, replays, tampers and swaps).
"""

import hashlib
import random

import pytest

from repro.core.auth import (
    AuthError,
    ImageManifest,
    SecurityConfig,
    chain_anchor,
    segment_digest,
)
from repro.core.messages import Advertisement, SignedAdvertisement
from repro.core.mnp import MNPNode, ProgramInfo
from repro.core.states import MNPState
from repro.core.segments import CodeImage
from repro.faults import FaultPlan, InvariantWatchdog
from repro.hardware.bootloader import InstallResult
from repro.sim.kernel import Simulator
from tests.conftest import make_world

KEY = b"test-network-key"


def small_image(n_segments=2, segment_packets=4, seed=3, program_id=1):
    return CodeImage.random(program_id, n_segments=n_segments,
                            segment_packets=segment_packets, seed=seed)


def signed_adv(image, key=KEY, source_id=1, nonce=1, manifest=None):
    manifest = manifest or ImageManifest.of_image(image, key)
    adv = SignedAdvertisement(
        source_id=source_id, program_id=image.program_id,
        n_segments=image.n_segments, high_seg_id=image.n_segments,
        offer_seg_id=1, req_ctr=0,
        segment_packets=image.segments[0].n_packets,
        last_seg_packets=image.segments[-1].n_packets,
        image_crc=image.crc16, nonce=nonce, manifest=manifest,
    )
    return adv.sign(key)


# ----------------------------------------------------------------------
# Crypto primitives
# ----------------------------------------------------------------------
def test_chain_anchor_detects_any_list_change():
    rng = random.Random(0xC4A1)
    digests = [bytes(rng.getrandbits(8) for _ in range(32))
               for _ in range(5)]
    anchor = chain_anchor(digests)
    # Alter, reorder, drop, append: every change moves the anchor.
    assert chain_anchor(digests[::-1]) != anchor
    assert chain_anchor(digests[:-1]) != anchor
    assert chain_anchor(digests + [digests[0]]) != anchor
    tampered = list(digests)
    tampered[2] = bytes(32)
    assert chain_anchor(tampered) != anchor
    assert chain_anchor(list(digests)) == anchor


def test_manifest_signs_and_verifies():
    image = small_image()
    manifest = ImageManifest.of_image(image, KEY)
    assert manifest.verify(KEY)
    assert not manifest.verify(b"wrong-key")
    assert manifest.verify_image(image.to_bytes())
    assert not manifest.verify_image(image.to_bytes()[:-1] + b"\x00")
    for seg in image.segments:
        assert manifest.verify_segment(seg.seg_id, seg.packets)
    # Wrong segment id or wrong bytes both fail; out-of-range ids too.
    assert not manifest.verify_segment(1, image.segments[-1].packets)
    assert not manifest.verify_segment(0, image.segments[0].packets)
    assert not manifest.verify_segment(99, image.segments[0].packets)


def test_manifest_version_is_under_the_signature():
    image = small_image()
    manifest = ImageManifest.of_image(image, KEY)
    manifest.program_id += 1  # the rollback-defeating field
    assert not manifest.verify(KEY)


# ----------------------------------------------------------------------
# Manifest wire codec fuzz (satellite: reject, never crash)
# ----------------------------------------------------------------------
def test_manifest_round_trip_sweep():
    rng = random.Random(0x5EC0)
    for _ in range(12):
        image = small_image(
            n_segments=rng.randrange(1, 5),
            segment_packets=rng.randrange(1, 9),
            seed=rng.randrange(1000),
        )
        manifest = ImageManifest.of_image(image, KEY)
        blob = manifest.encode()
        assert len(blob) == manifest.encoded_bytes()
        decoded = ImageManifest.decode(blob)
        assert decoded == manifest
        assert decoded.verify(KEY)


def test_manifest_truncation_never_crashes():
    blob = ImageManifest.of_image(small_image(), KEY).encode()
    for cut in range(len(blob)):
        with pytest.raises(AuthError):
            ImageManifest.decode(blob[:cut])
    # Trailing garbage is as malformed as truncation.
    with pytest.raises(AuthError):
        ImageManifest.decode(blob + b"\x00")


def test_manifest_bit_flip_sweep_rejects_or_fails_verify():
    rng = random.Random(0xF11B)
    blob = ImageManifest.of_image(small_image(), KEY).encode()
    for _ in range(60):
        flipped = bytearray(blob)
        flipped[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
        try:
            decoded = ImageManifest.decode(bytes(flipped))
        except AuthError:
            continue  # structural damage caught at decode
        assert not decoded.verify(KEY)


def test_manifest_wrong_key_signature_fails_verify():
    manifest = ImageManifest.of_image(small_image(), KEY)
    forged = ImageManifest.decode(manifest.encode())
    forged.signature = forged.sign(b"attacker-key")
    assert not forged.verify(KEY)


# ----------------------------------------------------------------------
# Signed advertisements
# ----------------------------------------------------------------------
def test_signed_adv_wrong_key_and_version_mismatch():
    image = small_image()
    adv = signed_adv(image, nonce=7)
    assert adv.verify(KEY)
    # Honest airtime: the signed variant charges nonce+tag+manifest.
    assert adv.wire_bytes() == \
        Advertisement.wire_bytes(adv) + 8 + 32 + adv.manifest.encoded_bytes()
    assert not signed_adv(image, key=b"attacker-key").verify(KEY)
    # Advertised version must match the manifest's *signed* version.
    adv = signed_adv(image)
    adv.program_id += 1
    adv.tag = adv.compute_tag(KEY)  # attacker can re-tag only with the key
    assert not adv.verify(KEY)


# ----------------------------------------------------------------------
# Node-level admission (replay, rollback, baseline pinning)
# ----------------------------------------------------------------------
def make_mnp_node():
    world = make_world([(0.0, 0.0), (10.0, 0.0)])
    node = MNPNode(world.motes[1])
    node.configure_security(SecurityConfig(enabled=True, key=KEY))
    return node


def test_mnp_rejects_replayed_nonce():
    node = make_mnp_node()
    image = small_image()
    adv = signed_adv(image, nonce=5)
    assert node._authenticate_adv(adv)
    assert not node._authenticate_adv(adv)  # exact replay
    assert not node._authenticate_adv(signed_adv(image, nonce=4))  # stale
    assert node._authenticate_adv(signed_adv(image, nonce=6))
    assert node.auth_rejects == 2


def test_mnp_rejects_unsigned_and_rolled_back_advs():
    node = make_mnp_node()
    image = small_image()
    plain = Advertisement(
        source_id=1, program_id=1, n_segments=2, high_seg_id=2,
        offer_seg_id=1, req_ctr=0, segment_packets=4, last_seg_packets=4)
    assert not node._authenticate_adv(plain)
    node.mote.bootloader.running_program_id = 1
    assert not node._authenticate_adv(signed_adv(image, nonce=1))
    newer = small_image(program_id=2)
    assert node._authenticate_adv(signed_adv(newer, nonce=2))
    assert node.auth_rejects == 2


def test_baseline_pins_manifest_version():
    from repro.baselines.deluge import DelugeNode, Summary

    world = make_world([(0.0, 0.0), (10.0, 0.0)])
    node = DelugeNode(world.motes[1])
    image = small_image(program_id=3)
    node.configure_security(SecurityConfig(enabled=True, key=KEY),
                            manifest=ImageManifest.of_image(image, KEY))

    def summary(program_id):
        return Summary(source_id=1, program_id=program_id, n_segments=2,
                       segment_packets=4, last_seg_packets=4, gamma=2)

    # Only the provisioned manifest's exact version may be adopted.
    assert not node._accepts_version(4, source_id=1)   # forged bump
    assert not node._accepts_version(2, source_id=1)   # stale
    assert node._accepts_version(3, source_id=1)
    node.mote.bootloader.running_program_id = 3
    assert not node._accepts_version(3, source_id=1)   # rollback floor
    assert node.auth_rejects == 3
    node._handle_summary(summary(4))
    assert node.program is None  # forged summary adopted nothing


# ----------------------------------------------------------------------
# Quarantine: tampered segments are discarded and re-requested
# ----------------------------------------------------------------------
def test_tampered_segment_is_quarantined_and_rerequested():
    from repro.experiments.adversary import run_adversary

    plan = FaultPlan(salt="quarantine-regression").payload_tampering(
        probability=0.15)
    outcome = run_adversary(plan, rows=3, cols=3, n_segments=1,
                            segment_packets=16, seed=1, deadline_min=120)
    # The attack landed, the pipeline quarantined, and every node still
    # converged on the authentic image and installed it.
    assert outcome.controller.summary()["counts"].get(
        "adversary_tamper_payload", 0) > 0
    assert outcome.quarantines > 0
    assert outcome.coverage == 1.0
    assert outcome.installs == {"installed": 9, "rejected": 0}
    assert outcome.tampered_installs == 0
    assert outcome.verdict["ok"], outcome.verdict["violations"]


FORGE_GRID = dict(rows=3, cols=3, n_segments=1, segment_packets=16,
                  deadline_min=60)


@pytest.mark.parametrize("protocol", ["moap", "flood", "xnp"])
def test_secured_baseline_refuses_forged_versions_end_to_end(protocol):
    # Every baseline adopts a version through one admission check: a
    # forged version is refused (MOAP and flooding used to crash on it,
    # XNP to adopt it and have the bootloader refuse the result).
    from repro.experiments.adversary import attack_plan, run_adversary

    forged = run_adversary(attack_plan("forge", 0.6), protocol=protocol,
                           seed=1, **FORGE_GRID)
    clean = run_adversary(FaultPlan(), protocol=protocol, seed=1,
                          **FORGE_GRID)
    assert forged.auth_rejects > 0
    assert forged.tampered_installs == 0
    assert forged.installs["rejected"] == 0
    assert forged.coverage == clean.coverage


def test_quarantine_clears_staged_flash_for_rewrite():
    node = make_mnp_node()
    image = small_image(n_segments=1, segment_packets=2)
    node.manifest = ImageManifest.of_image(image, KEY)
    node.program = ProgramInfo.of_image(image)
    node._seg_missing.clear()
    for pkt_id, payload in enumerate(image.segments[0].packets):
        node.mote.eeprom.write(node._flash_key(1, pkt_id), payload)
    # Quarantine fires from DOWNLOAD (it ends in the §3.4 fail path).
    node.state = MNPState.DOWNLOAD
    node.download_seg = 1
    node._quarantine_segment(1)
    assert node.quarantines == 1
    # Discard really forgets the keys: a clean re-download writes the
    # same addresses without tripping the write-once audit.
    for pkt_id, payload in enumerate(image.segments[0].packets):
        key = node._flash_key(1, pkt_id)
        assert key not in node.mote.eeprom
        node.mote.eeprom.write(key, payload)
        assert node.mote.eeprom.write_counts[key] == 1


def test_install_rejection_quarantines_whole_image():
    node = make_mnp_node()
    image = small_image(n_segments=1, segment_packets=2)
    node.program = ProgramInfo.of_image(image)
    node.rvd_seg = 1
    node._seg_missing.clear()
    packets = list(image.segments[0].packets)
    packets[0] = bytes(len(packets[0]))  # CRC-colliding tamper stand-in
    for pkt_id, payload in enumerate(packets):
        node.mote.eeprom.write(node._flash_key(1, pkt_id), payload)
    # Manifest for the authentic image: staged bytes cannot verify.
    node.manifest = ImageManifest.of_image(image, KEY)
    node.program.image_crc = None  # let the digest check do the catching
    assert node.has_full_image
    assert not node.install_signal()
    # The forged image is gone and the node is back to wanting segment 1.
    assert node.rvd_seg == 0
    assert not node.has_full_image
    assert node.mote.bootloader.running_program_id == 0
    assert node.quarantines == 1


def test_bootloader_refuses_rollback_and_bad_signature():
    from repro.hardware.bootloader import Bootloader

    image = small_image()
    manifest = ImageManifest.of_image(image, KEY)
    boot = Bootloader()
    assert boot.install(image.program_id, image.to_bytes(),
                        manifest=manifest, key=KEY) == InstallResult.OK
    # Rollback: same version again is NOT_NEWER even with a valid manifest.
    assert boot.install(image.program_id, image.to_bytes(),
                        manifest=manifest, key=KEY) \
        == InstallResult.NOT_NEWER
    newer = small_image(program_id=2, seed=9)
    newer_manifest = ImageManifest.of_image(newer, KEY)
    assert boot.install(newer.program_id, newer.to_bytes(),
                        manifest=newer_manifest, key=b"attacker-key") \
        == InstallResult.BAD_SIGNATURE
    assert boot.install(newer.program_id, image.to_bytes(),
                        manifest=newer_manifest, key=KEY) \
        == InstallResult.DIGEST_MISMATCH
    assert boot.running_program_id == image.program_id


# ----------------------------------------------------------------------
# Watchdog authentic-install audit
# ----------------------------------------------------------------------
def _install_watchdog(image):
    sim = Simulator(seed=0)
    wd = InvariantWatchdog(
        sim,
        expected_digest=hashlib.sha256(image.to_bytes()).hexdigest(),
        expected_version=image.program_id,
    )
    return sim, wd


def test_watchdog_flags_tampered_install():
    image = small_image()
    sim, wd = _install_watchdog(image)
    sim.tracer.emit("boot.install", node=4, version=image.program_id,
                    size=image.size_bytes,
                    digest=hashlib.sha256(b"not-the-image").hexdigest())
    verdict = wd.finish()
    assert not verdict["ok"]
    assert verdict["violations"][0]["invariant"] == "authentic-install"


def test_watchdog_flags_rolled_back_install():
    image = small_image(program_id=2)
    sim, wd = _install_watchdog(image)
    digest = hashlib.sha256(image.to_bytes()).hexdigest()
    sim.tracer.emit("boot.install", node=4, version=2, size=1, digest=digest)
    sim.tracer.emit("boot.install", node=4, version=1, size=1, digest=digest)
    verdict = wd.finish()
    assert any(v["invariant"] == "authentic-install"
               and "version" in v["detail"] for v in verdict["violations"])


def test_watchdog_accepts_clean_install_and_rejects_nothing_on_reject():
    image = small_image()
    sim, wd = _install_watchdog(image)
    sim.tracer.emit("boot.reject", node=3, version=7, reason="bad-signature")
    sim.tracer.emit("boot.install", node=4, version=image.program_id,
                    size=image.size_bytes,
                    digest=hashlib.sha256(image.to_bytes()).hexdigest())
    verdict = wd.finish()
    assert verdict["ok"], verdict["violations"]


# ----------------------------------------------------------------------
# Zero-fault transparency: disabled security changes nothing
# ----------------------------------------------------------------------
def test_disabled_security_is_bit_identical_to_none():
    from repro.experiments.common import Deployment
    from repro.net.topology import Topology

    def run(security):
        topo = Topology.grid(3, 3, 10.0)
        image = CodeImage.random(1, n_segments=1, segment_packets=8, seed=0)
        dep = Deployment(topo, image=image, seed=0, security=security)
        result = dep.run_to_completion()
        return (dep.sim.now, result.deadline_hit,
                dict(dep.collector.tx_by_node), dep.collector.collisions)

    assert run(None) == run(SecurityConfig(enabled=False))


# ----------------------------------------------------------------------
# End-to-end: deployment arming and the adversarial gauntlet
# ----------------------------------------------------------------------
def test_deployment_arms_every_protocol_family():
    from repro.experiments.common import Deployment
    from repro.net.topology import Topology

    topo = Topology.grid(2, 2, 10.0)
    image = CodeImage.random(1, n_segments=1, segment_packets=4, seed=0)
    security = SecurityConfig(enabled=True, key=KEY)
    for protocol in ("mnp", "coded_mnp", "deluge", "coded_deluge"):
        dep = Deployment(topo, image=image, protocol=protocol,
                         security=security, seed=0)
        for node in dep.nodes.values():
            assert node.security is security
        base = dep.nodes[dep.base_id]
        assert base.manifest is not None and base.manifest.verify(KEY)


@pytest.mark.slow
@pytest.mark.parametrize("protocol", ["mnp", "coded_mnp"])
def test_adversarial_gauntlet_never_installs_tampered_image(protocol):
    from repro.experiments.adversary import attack_plan, run_adversary

    outcome = run_adversary(attack_plan("blended", 0.6), rows=4, cols=4,
                            protocol=protocol, n_segments=2,
                            segment_packets=16, seed=2, deadline_min=240)
    assert outcome.tampered_installs == 0
    assert outcome.verdict["ok"], outcome.verdict["violations"]
    assert outcome.coverage == 1.0
    assert outcome.installs["rejected"] == 0
    assert outcome.installs["installed"] == len(outcome.alive)
    # The defence actually fired (otherwise this test proves nothing).
    assert outcome.auth_rejects > 0
    assert outcome.quarantines > 0


@pytest.mark.slow
def test_adversarial_conformance_batch_is_clean():
    from repro.conformance.harness import run_conformance

    verdict = run_conformance(budget=3, seed=11, security_fraction=1.0,
                              do_shrink=False)
    assert verdict["ok"], verdict["failures"]
    assert verdict["security_fraction"] == 1.0
