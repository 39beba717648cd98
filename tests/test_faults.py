"""Tests for the fault-injection subsystem (plans, controller, hooks)."""

import random

import pytest

from repro.core.config import MNPConfig
from repro.core.messages import CodedDataPacket, SignedAdvertisement
from repro.core.segments import CodeImage
from repro.core.states import MNPState
from repro.experiments.chaos import run_chaos
from repro.experiments.common import Deployment
from repro.faults import FaultController, FaultPlan, InvariantWatchdog
from repro.net.loss_models import EmpiricalLossModel
from repro.net.topology import Topology
from repro.radio.propagation import PropagationModel
from repro.sim.kernel import MINUTE, SECOND
from tests.conftest import make_world


def build_dep(seed=3, rows=4, cols=4, segment_packets=16):
    topo = Topology.grid(rows, cols, 10.0)
    image = CodeImage.random(1, n_segments=1,
                             segment_packets=segment_packets, seed=seed)
    return Deployment(
        topo, image=image, protocol="mnp",
        protocol_config=MNPConfig(query_update=True), seed=seed,
        propagation=PropagationModel(25.0, 3.0),
        loss_model=EmpiricalLossModel(seed=seed),
    )


# ----------------------------------------------------------------------
# FaultPlan: building and serialisation
# ----------------------------------------------------------------------
def test_plan_round_trips_through_dict():
    plan = (FaultPlan(salt="x")
            .crash(at_ms=30_000, count=2, restart_after_ms=60_000)
            .eeprom_corruption(probability=0.01, count=3, flips=2)
            .link_degradation(start_ms=0, end_ms=120_000, ber_factor=30.0)
            .partition(start_ms=5_000, end_ms=9_000, groups=[[1], [2, 3]])
            .decode_corruption(probability=0.1))
    clone = FaultPlan.from_dict(plan.to_dict())
    assert clone.to_dict() == plan.to_dict()
    assert clone.salt == "x"
    assert len(clone) == 5 and not clone.is_empty
    assert [s["kind"] for s in clone] == [
        "crash", "eeprom", "link", "partition", "decode",
    ]


def test_plan_builder_validation():
    plan = FaultPlan()
    with pytest.raises(ValueError):
        plan.crash(at_ms=-1, count=1)
    with pytest.raises(ValueError):
        plan.crash(at_ms=0, nodes=[1], count=1)  # nodes XOR count
    with pytest.raises(ValueError):
        plan.crash(at_ms=0)  # neither
    with pytest.raises(ValueError):
        plan.eeprom_failures(probability=1.5, count=1)
    with pytest.raises(ValueError):
        plan.eeprom_corruption(probability=0.5, count=1, flips=0)
    with pytest.raises(ValueError):
        plan.link_degradation(start_ms=0, end_ms=None, ber_factor=2.0)
    with pytest.raises(ValueError):
        plan.link_degradation(start_ms=10, end_ms=10, ber_factor=2.0)
    with pytest.raises(ValueError):
        plan.partition(start_ms=0, end_ms=10, groups=[[1, 2]])
    with pytest.raises(ValueError):
        plan.brownout(at_ms=0, duration_ms=0, count=1)
    assert plan.is_empty  # nothing slipped in despite the errors


def test_controller_rejects_double_install():
    dep = build_dep()
    controller = FaultController(dep, FaultPlan().crash(at_ms=0, count=1))
    controller.install()
    with pytest.raises(RuntimeError):
        controller.install()


# ----------------------------------------------------------------------
# Zero-fault transparency (acceptance: golden runs stay bit-identical)
# ----------------------------------------------------------------------
def test_empty_plan_and_watchdog_are_transparent():
    def drive(dep):
        dep.sim.run_until(
            lambda: all(n.has_full_image for n in dep.nodes.values()),
            check_every=SECOND, deadline=60 * MINUTE,
        )
        return (dep.sim.now, sum(dep.collector.tx_by_node.values()),
                dep.collector.collisions)

    plain = build_dep()
    plain.start()
    baseline = drive(plain)

    armed = build_dep()
    controller = FaultController(armed, FaultPlan())
    controller.install()
    watchdog = InvariantWatchdog(
        armed.sim, n_nodes=len(armed.nodes),
        neighbors_fn=lambda nid: armed.channel.neighbors(
            nid, armed.mote_config.power_level),
    )
    armed.start()
    assert drive(armed) == baseline
    verdict = watchdog.finish(motes=armed.motes)
    assert verdict["ok"]
    assert not verdict["violations"]
    assert verdict["records_seen"] > 0
    assert controller.summary()["counts"] == {}


# ----------------------------------------------------------------------
# Crash / restart
# ----------------------------------------------------------------------
def test_crash_without_restart_stays_dead():
    plan = FaultPlan().crash(at_ms=10 * SECOND, nodes=[5])
    out = run_chaos(plan, rows=3, cols=3, n_segments=1,
                    segment_packets=16, seed=2)
    dep = out.deployment
    assert not dep.motes[5].alive
    assert 5 not in out.alive
    assert out.controller.counts["crash"] == 1
    assert out.controller.crashed_nodes == {5}
    assert out.survivor_coverage == 1.0
    assert out.verdict["ok"]


def test_brownout_sag_takes_its_share_of_capacity_once_per_brownout():
    plan = (FaultPlan()
            .brownout(at_ms=4 * SECOND, duration_ms=500.0, nodes=[4],
                      battery_sag=0.25)
            .brownout(at_ms=8 * SECOND, duration_ms=500.0, nodes=[4, 5],
                      battery_sag=0.25))
    out = run_chaos(plan, rows=3, cols=3, n_segments=1,
                    segment_packets=16, seed=2)
    motes = out.deployment.motes
    assert out.controller.counts["brownout"] == 3
    assert out.survivor_coverage == 1.0
    capacity = motes[4].battery.capacity_nah
    assert motes[4].battery.remaining_nah == capacity * 0.5
    assert motes[5].battery.remaining_nah == capacity * 0.75
    # Radio use never drains the battery object: MNP charges its energy
    # against the remainder separately.
    for node_id in set(motes) - {4, 5}:
        assert motes[node_id].battery.remaining_nah == capacity
        assert motes[node_id].radio.on_time_ms() > 0


def test_crash_with_restart_rejoins_and_completes():
    plan = FaultPlan().crash(at_ms=5 * SECOND, nodes=[4],
                             restart_after_ms=30 * SECOND)
    out = run_chaos(plan, rows=3, cols=3, n_segments=1,
                    segment_packets=16, seed=2)
    dep = out.deployment
    assert dep.motes[4].alive
    assert out.controller.restarted_nodes == {4}
    assert dep.nodes[4].has_full_image
    assert out.survivor_coverage == 1.0
    # The run was kept open past the restart so the rejoin was exercised.
    assert out.controller.last_fault_ms == 35 * SECOND
    assert out.verdict["ok"]


def test_mote_kill_suppresses_armed_timer_and_revive_rearms():
    world = make_world([(0.0, 0.0), (10.0, 0.0)])
    mote = world.motes[1]
    fired = []
    timer = mote.new_timer(lambda: fired.append(world.sim.now), "probe")
    timer.start(100.0)
    mote.kill()
    assert not mote.alive and not mote.radio.is_on
    world.sim.run_until(lambda: world.sim.now >= 200.0,
                        check_every=50.0, deadline=SECOND)
    assert fired == []  # the armed timer was guard-suppressed
    mote.revive()
    assert mote.alive
    timer.start(100.0)
    world.sim.run_until(lambda: bool(fired), check_every=50.0,
                        deadline=SECOND)
    assert len(fired) == 1


# ----------------------------------------------------------------------
# Timer hygiene regression: kill a node mid-DOWNLOAD
# ----------------------------------------------------------------------
def test_kill_mid_download_leaves_protocol_state_frozen():
    dep = build_dep(seed=1)
    dep.start()
    base = dep.base_id

    def someone_downloading():
        return any(
            node.state == MNPState.DOWNLOAD
            for nid, node in dep.nodes.items() if nid != base
        )

    assert dep.sim.run_until(someone_downloading, check_every=10.0,
                             deadline=10 * MINUTE)
    victim = next(
        nid for nid, node in dep.nodes.items()
        if nid != base and node.state == MNPState.DOWNLOAD
    )
    prefix = f"n{victim}:"
    fired, suppressed = [], []

    def watch(rec):
        if rec.name.startswith(prefix):
            (fired if rec.category == "timer.fire" else
             suppressed).append(rec)

    dep.sim.tracer.subscribe(watch,
                             categories=("timer.fire", "timer.suppressed"))
    before = list(dep.nodes[victim].state_changes)
    dep.motes[victim].kill()
    survivors = [nid for nid in dep.nodes if nid != victim]
    dep.sim.run_until(
        lambda: all(dep.nodes[n].has_full_image for n in survivors),
        check_every=SECOND, deadline=120 * MINUTE,
    )
    assert fired == []  # nothing fired on the dead node
    assert suppressed  # its armed download timer was caught by the guard
    assert dep.nodes[victim].state_changes == before
    assert dep.nodes[victim].state == MNPState.DOWNLOAD  # frozen mid-flight


# ----------------------------------------------------------------------
# Storage faults
# ----------------------------------------------------------------------
def test_eeprom_failures_fail_the_download_then_recover():
    plan = FaultPlan().eeprom_failures(probability=1.0, nodes=[3],
                                       end_ms=30 * SECOND)
    out = run_chaos(plan, rows=3, cols=3, n_segments=1,
                    segment_packets=16, seed=4)
    assert out.controller.counts["eeprom_fail"] > 0
    assert out.deployment.nodes[3].fails > 0  # routed through _fail
    assert out.survivor_coverage == 1.0  # recovered after the window
    assert out.corrupt_images == 0
    assert out.verdict["ok"]


def test_eeprom_corruption_yields_corrupt_but_complete_image():
    plan = FaultPlan().eeprom_corruption(probability=1.0, nodes=[3],
                                         flips=1)
    out = run_chaos(plan, rows=3, cols=3, n_segments=1,
                    segment_packets=16, seed=4)
    assert out.controller.counts["eeprom_corrupt"] > 0
    assert 3 in out.controller.corrupted_keys
    assert out.survivor_coverage == 1.0  # the protocol cannot see it...
    assert out.corrupt_images == 1  # ...but the image checksum can
    assert out.verdict["ok"]  # silent corruption breaks no protocol rule


# ----------------------------------------------------------------------
# Channel faults
# ----------------------------------------------------------------------
def test_decode_corruption_drops_frames_but_network_recovers():
    plan = FaultPlan().decode_corruption(probability=0.3, pass_fraction=0.0,
                                         start_ms=0, end_ms=20 * SECOND)
    out = run_chaos(plan, rows=3, cols=3, n_segments=1,
                    segment_packets=16, seed=5)
    assert out.controller.counts["decode_drop"] > 0
    assert out.controller.counts.get("decode_pass", 0) == 0
    assert out.survivor_coverage == 1.0
    assert out.corrupt_images == 0


def test_decode_corruption_reaches_inherited_header_fields():
    """Regression: the field to flip was drawn from the concrete class's
    own ``__slots__`` only, so a coded packet could only ever have its
    ``tail_len`` flipped and a signed advertisement its ``nonce``."""
    rng = random.Random(11)
    coded = CodedDataPacket(3, 1, (5, 7), b"\x00" * 23, tail_len=23)
    chosen = set()
    for _ in range(40):
        bad, field = FaultController._corrupt_message(coded, rng)
        assert getattr(bad, field) != getattr(coded, field)
        chosen.add(field)
    assert "seg_id" in chosen
    assert chosen <= {"source_id", "seg_id", "packet_id", "tail_len"}
    adv = SignedAdvertisement(3, 1, 2, 1, 1, 4, 16, 16, image_crc=0xBEEF,
                              nonce=9, tag=b"\x00" * 32)
    chosen = {FaultController._corrupt_message(adv, rng)[1]
              for _ in range(60)}
    assert {"program_id", "req_ctr", "nonce"} <= chosen

def test_partition_delays_the_far_group():
    # 1x4 line: sever {0,1} from {2,3} for the first 15 s.
    plan = FaultPlan().partition(start_ms=0, end_ms=15 * SECOND,
                                 groups=[[0, 1], [2, 3]])
    out = run_chaos(plan, rows=1, cols=4, n_segments=1,
                    segment_packets=16, seed=6)
    dep = out.deployment
    assert out.survivor_coverage == 1.0
    # Nobody across the cut could have finished before it healed.
    assert min(dep.nodes[n].got_code_time for n in (2, 3)) > 15 * SECOND
    assert out.verdict["ok"]


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_same_seed_and_plan_reproduce_bit_identical_outcomes():
    plan = (FaultPlan(salt="det")
            .crash(at_ms=8 * SECOND, count=2, restart_after_ms=20 * SECOND)
            .eeprom_failures(probability=0.5, count=2, end_ms=30 * SECOND)
            .decode_corruption(probability=0.1, end_ms=30 * SECOND))
    first = run_chaos(plan, rows=3, cols=3, n_segments=1,
                      segment_packets=16, seed=9)
    second = run_chaos(FaultPlan.from_dict(plan.to_dict()), rows=3, cols=3,
                       n_segments=1, segment_packets=16, seed=9)
    assert first.to_dict() == second.to_dict()


def test_different_seeds_draw_different_victims():
    plan = FaultPlan().crash(at_ms=5 * SECOND, count=3)
    picks = set()
    for seed in range(6):
        dep = build_dep(seed=seed, rows=4, cols=4)
        controller = FaultController(dep, plan)
        picks.add(tuple(controller._pick_nodes(plan.specs[0], 0)))
    assert len(picks) > 1  # seed actually reaches the node draw
    for pick in picks:
        assert 0 not in pick  # never the base station
