"""Ablations of the design choices DESIGN.md calls out.

Each benchmark switches one pillar of MNP off (or one optional feature
on) and checks the direction of the effect on the standard grid workload.
All ablations share one baseline run per session.
"""

import pytest

from repro.experiments.ablations import (
    ablation_report,
    run_ablation,
)

from conftest import save_report


@pytest.fixture(scope="module")
def baseline():
    return run_ablation("baseline", seed=1)


def test_ablation_sender_selection(benchmark, baseline):
    """Without the ReqCtr competition, concurrent senders collide more."""
    outcome = benchmark.pedantic(
        run_ablation, args=("no-sender-selection",), kwargs={"seed": 1},
        rounds=1, iterations=1,
    )
    save_report("ablation_sender_selection",
                ablation_report({"baseline": baseline,
                                 "no-sender-selection": outcome}))
    assert baseline.coverage == 1.0
    # More concurrent senders -> more collisions per data packet sent.
    base_rate = baseline.collector.collisions / max(1, baseline.data_tx)
    ablated_rate = outcome.collector.collisions / max(1, outcome.data_tx)
    assert ablated_rate > base_rate


def test_ablation_sleep(benchmark, baseline):
    """Without sleeping, active radio time balloons toward completion
    time -- the entire energy benefit disappears."""
    outcome = benchmark.pedantic(
        run_ablation, args=("no-sleep",), kwargs={"seed": 1},
        rounds=1, iterations=1,
    )
    save_report("ablation_sleep", ablation_report({"baseline": baseline,
                                                   "no-sleep": outcome}))
    assert outcome.coverage == 1.0
    assert outcome.completion_s is not None
    # no-sleep: radio on ~always
    assert outcome.average_active_radio_s() > 0.9 * outcome.completion_s
    # baseline sleeps a meaningful fraction away
    assert baseline.average_active_radio_s() < 0.75 * baseline.completion_s


def test_ablation_forward_vector(benchmark, baseline):
    """Without the ForwardVector, senders stream whole segments even when
    only a few packets were requested -> more data transmissions."""
    outcome = benchmark.pedantic(
        run_ablation, args=("no-forward-vector",), kwargs={"seed": 1},
        rounds=1, iterations=1,
    )
    save_report("ablation_forward_vector",
                ablation_report({"baseline": baseline,
                                 "no-forward-vector": outcome}))
    assert outcome.coverage == 1.0
    assert outcome.data_tx > baseline.data_tx


def test_ablation_pipelining(benchmark):
    """Hop-by-hop whole-image transfer cannot overlap segment transfers
    across hops: slower end-to-end on a long multihop strip.  (The paper:
    pipelining 'would be significantly helpful only when the network is
    large and several non-overlapping communication cells exist', so this
    ablation is measured on a 2x12 strip spanning ~5 hops rather than the
    scale-dependent square grid.)"""
    strip = {"rows": 2, "cols": 12, "n_segments": 3, "segment_packets": 32}
    outcome = benchmark.pedantic(
        run_ablation, args=("no-pipelining",), kwargs={"seed": 1, **strip},
        rounds=1, iterations=1,
    )
    pipelined = run_ablation("baseline", seed=1, **strip)
    save_report("ablation_pipelining",
                ablation_report({"baseline": pipelined,
                                 "no-pipelining": outcome}))
    assert outcome.coverage == 1.0
    assert pipelined.coverage == 1.0
    assert outcome.completion_s > pipelined.completion_s


def test_ablation_query_update(benchmark, baseline):
    """The optional query/update phase repairs within a session; it must
    preserve correctness (and typically trims repair rounds)."""
    outcome = benchmark.pedantic(
        run_ablation, args=("query-update",), kwargs={"seed": 1},
        rounds=1, iterations=1,
    )
    save_report("ablation_query_update",
                ablation_report({"baseline": baseline,
                                 "query-update": outcome}))
    assert outcome.coverage == 1.0


def test_ablation_battery_aware(benchmark, baseline):
    """The §6 battery-aware extension must not break dissemination."""
    outcome = benchmark.pedantic(
        run_ablation, args=("battery-aware",), kwargs={"seed": 1},
        rounds=1, iterations=1,
    )
    save_report("ablation_battery_aware",
                ablation_report({"baseline": baseline,
                                 "battery-aware": outcome}))
    assert outcome.coverage == 1.0
