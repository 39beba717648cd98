"""Tests for the robustness experiments (churn, late joiners)."""

import pytest

from repro.experiments.robustness import (
    _pick_victims,
    _survivors_connected,
    run_churn,
    run_late_joiner,
)
from repro.hardware.mote import Mote
from repro.net.topology import Topology
from repro.sim.rng import derive_rng


def test_churn_survivors_complete():
    outcome = run_churn(rows=5, cols=5, kill_fraction=0.15, seed=2,
                        n_segments=1)
    assert outcome.survivor_coverage == 1.0
    assert outcome.corrupt_images == 0
    assert len(outcome.controller.crashed_nodes) >= 1
    assert 0 not in outcome.controller.crashed_nodes  # base survives


def test_churn_heavier_losses_still_recover():
    outcome = run_churn(rows=5, cols=5, kill_fraction=0.3, seed=3,
                        n_segments=1)
    assert outcome.survivor_coverage == 1.0
    assert len(outcome.controller.crashed_nodes) >= 7


def test_victim_picker_preserves_connectivity():
    topo = Topology.grid(6, 6, 10.0)
    rng = derive_rng(9, "test")
    victims = _pick_victims(topo, 0, 0.25, rng)
    assert 0 not in victims
    assert _survivors_connected(topo, 0, victims)


def test_late_joiner_catches_up():
    join_time, catch_up, dep = run_late_joiner(rows=4, cols=4, seed=2)
    assert catch_up is not None
    late = dep.topology.center_node()
    assert dep.nodes[late].has_full_image
    # The latecomer caught up from an already-quiescent network, whose
    # advertisement intervals had backed off -- still bounded time.
    assert catch_up < 10 * 60 * 1000.0


def test_late_joiner_image_intact():
    _, catch_up, dep = run_late_joiner(rows=3, cols=3, seed=5)
    assert catch_up is not None
    late = dep.topology.center_node()
    assert dep.nodes[late].assemble_image() == dep.image.to_bytes()


@pytest.mark.parametrize("query_update", [False, True],
                         ids=["basic", "query_update"])
def test_late_joiner_converges_in_both_fig4_variants(query_update):
    # The latecomer's repair path differs by variant (UPDATE rounds vs
    # FAIL-and-rerequest); both must still catch up from the quiescent
    # network and end with an intact image.
    join_time, catch_up, dep = run_late_joiner(
        rows=3, cols=3, seed=4, query_update=query_update)
    assert catch_up is not None
    late = dep.topology.center_node()
    assert dep.nodes[late].got_code_time > join_time
    assert dep.nodes[late].assemble_image() == dep.image.to_bytes()
    assert dep.nodes[late].config.query_update is query_update


def test_churn_kills_every_victim(monkeypatch):
    # On this 4x4 grid the survivors finish before the 20 s kill time;
    # the run must still go on to the kill, and all three victims die.
    killed = []
    kill = Mote.kill

    def recording_kill(self):
        killed.append(self.node_id)
        kill(self)

    monkeypatch.setattr(Mote, "kill", recording_kill)
    run_churn(rows=4, cols=4, kill_fraction=0.2, seed=7, n_segments=1)
    assert len(set(killed)) == 3
    assert 0 not in killed  # base station survives


def test_churn_with_hard_kill_keeps_survivors_complete():
    # Since churn uses Mote.kill(), victims die MCU-and-all (timers
    # guard-suppressed) rather than merely sleeping their radios.
    outcome = run_churn(rows=4, cols=4, kill_fraction=0.2, seed=7,
                        n_segments=1)
    assert outcome.controller.crashed_nodes
    assert outcome.survivor_coverage == 1.0
    assert outcome.corrupt_images == 0
