"""Tests for the chaos experiment and its runner/CLI integration."""

import json

from repro.baselines.xnp import XnpNode
from repro.experiments.chaos import (
    FAULT_CLASSES, FaultedRun, run_chaos, standard_plan,
)
from repro.experiments.common import grid_deployment
from repro.faults import FaultPlan
from repro.runner import Runner, RunSpec, execute_spec
from repro.sim.kernel import SECOND

import pytest

# Full grid/chaos simulations: deselected by `make test-fast`.
pytestmark = pytest.mark.slow


SMOKE = dict(rows=3, cols=3, n_segments=1, segment_packets=16)


# ----------------------------------------------------------------------
# The faulted run's tally is RunResult's
# ----------------------------------------------------------------------
def test_coverage_counts_complete_survivors_over_alive_nodes():
    # Two victims stay down: coverage is over the seven survivors, as the
    # manifest's survivor_coverage and Deployment.settle count it.
    plan = FaultPlan().crash(at_ms=3 * SECOND, nodes=[4, 8])
    out = run_chaos(plan, seed=2, **SMOKE)
    dep = out.deployment
    assert sorted(set(dep.nodes) - set(out.alive)) == [4, 8]
    assert out.coverage == len(out.complete) / len(out.alive) == 1.0
    assert out.all_complete
    assert out.completion_time_ms is not None
    assert out.chaos_manifest()["survivor_coverage"] == out.coverage
    assert dep.settle(dep.sim.now)

    # Cut short: some survivors are still missing the image.
    run = FaultedRun(grid_deployment(3, 3, "mnp", 1, 16, 2),
                     FaultPlan().crash(at_ms=1 * SECOND, nodes=[4]))
    run.settle(2.5 * SECOND)
    run.close()
    assert run.deadline_hit
    assert 4 not in run.alive
    assert run.coverage == len(run.complete) / len(run.alive) < 1.0
    assert not run.all_complete
    assert run.completion_time_ms is None
    assert not run.deployment.settle(run.sim.now)


def test_summary_metrics_of_a_faulted_run_is_the_headline_dict():
    out = run_chaos(FaultPlan(), seed=42, **SMOKE)
    metrics = out.summary_metrics()
    assert "survivors_total" not in metrics
    assert metrics["coverage"] == out.coverage == 1.0
    assert metrics["completion_ms"] == out.completion_time_ms
    assert metrics["completion_s"] == out.completion_s
    assert metrics["messages_sent"] == out.messages
    assert metrics["mean_energy_nah"] == out.mean_energy_nah
    plain = grid_deployment(3, 3, "mnp", 1, 16, 42).run_to_completion()
    assert list(metrics) == list(plain.summary_metrics())


# ----------------------------------------------------------------------
# standard_plan
# ----------------------------------------------------------------------
def test_standard_plan_zero_intensity_is_empty():
    for fault_class in FAULT_CLASSES:
        assert standard_plan(fault_class, intensity=0.0).is_empty


def test_standard_plan_rejects_bad_inputs():
    with pytest.raises(ValueError):
        standard_plan("crash", intensity=1.5)
    with pytest.raises(ValueError):
        standard_plan("gamma-rays", intensity=0.5)


def test_standard_plans_are_distinct_per_class():
    plans = {fc: standard_plan(fc, intensity=0.5).to_dict()
             for fc in FAULT_CLASSES}
    assert len({json.dumps(p, sort_keys=True)
                for p in plans.values()}) == len(FAULT_CLASSES)
    assert all(plans[fc]["salt"] == fc for fc in FAULT_CLASSES)


# ----------------------------------------------------------------------
# run_chaos
# ----------------------------------------------------------------------
def test_clean_chaos_run_completes_with_ok_verdict():
    out = run_chaos(FaultPlan(), seed=42, **SMOKE)
    assert out.coverage == 1.0
    assert out.completion_s is not None
    assert not out.deadline_hit
    assert out.corrupt_images == 0
    assert out.verdict["ok"]
    manifest = out.chaos_manifest()
    assert manifest["watchdog_ok"]
    assert manifest["faults"]["counts"] == {}
    json.dumps(manifest)  # the manifest must be JSON-serialisable


def test_chaos_manifest_is_bit_reproducible():
    spec = RunSpec("chaos", protocol="mnp", scale="smoke", seed=11,
                   fault_class="crash", intensity=0.5, **SMOKE)
    first = execute_spec(spec)
    second = execute_spec(spec)
    assert first["faults"]["counts"]["crash"] >= 1  # the plan really ran
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)


def test_chaos_runs_against_a_baseline_protocol():
    out = run_chaos(standard_plan("crash", 0.5, rows=3, cols=3),
                    protocol="deluge", seed=3, **SMOKE)
    manifest = out.chaos_manifest()
    assert manifest["faults"]["counts"]["crash"] >= 1  # someone really died
    assert "watchdog" in manifest
    json.dumps(manifest)


def test_chaos_gives_coded_mnp_the_mnp_family_config():
    # The coded variant shares MNP's whole control plane, so a chaos
    # comparison of the two must run both on the same MNPConfig.
    out = run_chaos(FaultPlan(), protocol="coded_mnp", seed=3, **SMOKE)
    for node in out.deployment.nodes.values():
        assert node.config.query_update
        assert node.config.fail_backoff_base_ms == 250.0


def test_chaos_moap_survives_a_corrupted_version_number():
    # Decode corruption can flip an announced program id upward; a MOAP
    # sender that adopted it used to read flash it never wrote.
    out = run_chaos(standard_plan("link", 0.7, 3, 3), protocol="moap",
                    seed=0, deadline_min=60, **SMOKE)
    assert out.controller.summary()["counts"]["decode_pass"] > 0
    assert out.verdict["ok"], out.verdict["violations"]
    json.dumps(out.chaos_manifest())


@pytest.mark.parametrize("protocol", ["deluge", "coded_deluge"])
def test_chaos_deluge_node_restarted_mid_page_rejoins(protocol):
    # Node 32 crashes in RX and restarts 90 s later.  Its timers died
    # with it, and a Deluge node asks for pages only from MAINTAIN, so it
    # used to sit in RX with 1 of 2 pages for the rest of the hour.
    out = run_chaos(standard_plan("crash", 0.9, 6, 6), rows=6, cols=6,
                    protocol=protocol, n_segments=2, segment_packets=16,
                    seed=4, deadline_min=60)
    assert 32 in out.controller.restarted_nodes
    assert out.verdict["ok"], out.verdict
    assert out.coverage == 1.0


def test_chaos_moap_sender_restarted_mid_stream_resumes():
    # The base station crashes 300 ms into its stream and restarts 3 s
    # later.  MOAP had no restart path, so it came back in its streaming
    # role with no timer armed, and the event queue drained at 12 s with
    # 1 of 16 nodes holding the image.
    plan = FaultPlan().crash(8601.6, nodes=[0], restart_after_ms=3000.0)
    out = run_chaos(plan, rows=4, cols=4, protocol="moap", n_segments=1,
                    segment_packets=16, seed=0)
    assert 0 in out.controller.restarted_nodes
    assert out.verdict["ok"], out.verdict
    assert out.coverage == 1.0


@pytest.mark.parametrize("crash_ms", [2100.0, 2200.0, 2400.0])
def test_chaos_xnp_base_restarted_mid_broadcast_finishes(crash_ms):
    # The base station crashes during its broadcast pass (it starts at
    # 2 s) and restarts 3 s later.  It came back in BROADCAST with only
    # its timer armed, which moved it on in ANNOUNCE and COLLECT alone,
    # so the run ended at 6 s with 1 of 16 nodes holding the image.
    plan = FaultPlan().crash(crash_ms, nodes=[0], restart_after_ms=3000.0)
    out = run_chaos(plan, rows=4, cols=4, protocol="xnp", n_segments=1,
                    segment_packets=16, seed=0)
    base = out.deployment.nodes[0]
    assert 0 in out.controller.restarted_nodes
    assert out.verdict["ok"], out.verdict
    assert base.state == XnpNode.DONE
    assert base._stream == []
    # The clean run reaches 6 of 16: XNP does not forward.
    assert len(out.complete) >= 6


# ----------------------------------------------------------------------
# Runner integration: cached, parallel, and consistent
# ----------------------------------------------------------------------
def test_chaos_specs_cache_and_survive_worker_counts(tmp_path):
    specs = [
        RunSpec("chaos", protocol="mnp", scale="smoke", seed=seed,
                fault_class="eeprom", intensity=0.5, **SMOKE)
        for seed in (0, 1)
    ]
    serial = Runner(workers=0, cache_dir=str(tmp_path / "a"))
    first = serial.run(specs)
    assert serial.stats.misses == 2
    again = Runner(workers=0, cache_dir=str(tmp_path / "a")).run(specs)
    assert first == again  # cache round-trip is lossless

    parallel = Runner(workers=2, cache_dir=str(tmp_path / "b"))
    fleet = parallel.run(specs)
    assert json.dumps(fleet, sort_keys=True) == \
        json.dumps(first, sort_keys=True)  # REPRO_WORKERS-independent
