"""Unit and acceptance tests for the conformance subsystem.

Covers the four pieces end to end: ScenarioSpec (round-trip, validation,
builders), ScenarioGenerator (determinism, diversity), the oracle
registry (pure-function checks on synthetic metrics), and the shrinking
reducer -- including the ISSUE acceptance demonstration that a
deliberately sabotaged scenario is caught, shrunk to <= 9 nodes, and
fails again on replay.
"""

import json
import math
import os

import pytest

from repro.conformance.generator import ScenarioGenerator
from repro.conformance.harness import (
    evaluate_scenario,
    replay_corpus_spec,
    run_conformance,
    run_specs_for,
    verdict_json,
)
from repro.conformance.oracles import (
    ORACLES,
    evaluate,
    reseg_packets,
    variants_for,
)
from repro.conformance.shrink import (
    ShrinkResult,
    candidates,
    shrink,
    write_failure_artifact,
)
from repro.conformance.spec import ScenarioSpec


def small_spec(**overrides):
    fields = dict(
        seed=5,
        topology={"kind": "grid", "rows": 2, "cols": 2, "spacing_ft": 10.0},
        image={"n_segments": 1, "segment_packets": 4, "tail_packets": 4,
               "trim_bytes": 0},
        loss={"kind": "perfect"},
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


# ----------------------------------------------------------------------
# ScenarioSpec
# ----------------------------------------------------------------------
def test_spec_json_round_trip():
    spec = ScenarioSpec(
        seed=77,
        topology={"kind": "random", "n": 6, "side_ft": 30.0,
                  "placement_seed": 3},
        image={"n_segments": 2, "segment_packets": 8, "tail_packets": 3,
               "trim_bytes": 5},
        power_level=128,
        loss={"kind": "uniform", "ber": 1e-3},
        config={"advertise_count": 2},
    )
    blob = json.dumps(spec.to_dict(), sort_keys=True)
    again = ScenarioSpec.from_dict(json.loads(blob))
    assert again == spec
    assert again.key() == spec.key()
    assert json.dumps(again.to_dict(), sort_keys=True) == blob


def test_spec_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown"):
        ScenarioSpec.from_dict({"seed": 0, "bogus": 1})


@pytest.mark.parametrize("overrides", [
    {"topology": {"kind": "hexagon"}},
    {"topology": {"kind": "grid", "rows": 1, "cols": 1,
                  "spacing_ft": 10.0}},
    {"topology": {"kind": "random", "n": 1, "side_ft": 10.0}},
    {"image": {"n_segments": 0, "segment_packets": 4}},
    {"image": {"n_segments": 1, "segment_packets": 200}},
    {"image": {"n_segments": 1, "segment_packets": 4, "tail_packets": 9}},
    {"image": {"n_segments": 1, "segment_packets": 4, "trim_bytes": 23}},
    {"power_level": 0},
    {"power_level": 999},
    {"range_ft": 0.0},
    {"loss": {"kind": "fog"}},
    {"loss": {"kind": "uniform", "ber": 1.5}},
    {"deadline_min": 0.0},
    {"sabotage": "arson"},
    {"topology": {"kind": "grid", "rows": 2, "cols": 2, "spacing_ft": 0.0}},
    {"topology": {"kind": "grid", "rows": 2, "cols": 2,
                  "spacing_ft": -10.0}},
    # NaN is false against every bound and infinity passes every lower
    # one, so "reject if x <= 0" lets both through.
    {"range_ft": math.nan},
    {"range_ft": math.inf},
    {"deadline_min": math.nan},
    {"deadline_min": math.inf},
    {"topology": {"kind": "grid", "rows": 2, "cols": 2,
                  "spacing_ft": math.nan}},
    {"topology": {"kind": "grid", "rows": 2, "cols": 2,
                  "spacing_ft": math.inf}},
    {"topology": {"kind": "random", "n": 4, "side_ft": math.nan,
                  "placement_seed": 1}},
    {"topology": {"kind": "random", "n": 4, "side_ft": math.inf,
                  "placement_seed": 1}},
    {"topology": {"kind": "clustered", "clusters": 2, "per_cluster": 2,
                  "pitch_ft": math.nan, "placement_seed": 1}},
    {"topology": {"kind": "clustered", "clusters": 2, "per_cluster": 2,
                  "pitch_ft": 0.0, "placement_seed": 1}},
    # A fault plan is checked by building it, as the builders would.
    {"faults": {"specs": [{"kind": "crash", "at_ms": math.inf,
                           "nodes": None, "count": 1,
                           "restart_after_ms": None}]}},
    {"faults": {"specs": [{"kind": "eeprom", "mode": "fail",
                           "probability": 5.0, "nodes": None, "count": 1,
                           "start_ms": 0.0, "end_ms": None}]}},
    {"faults": {"specs": [{"kind": "crash", "at_ms": 1000.0,
                           "nodes": None, "count": 0,
                           "restart_after_ms": None}]}},
    {"faults": {"specs": [{"kind": "meteor"}]}},
])
def test_spec_validation_rejects(overrides):
    with pytest.raises(ValueError):
        small_spec(**overrides)


def test_spec_replace_revalidates():
    spec = small_spec()
    bigger = spec.replace(power_level=100)
    assert bigger.power_level == 100
    assert spec.power_level == 255  # original untouched
    with pytest.raises(ValueError):
        spec.replace(power_level=0)
    with pytest.raises(ValueError):
        spec.replace(bogus=1)


def test_spec_geometry_properties():
    spec = small_spec(image={"n_segments": 3, "segment_packets": 8,
                             "tail_packets": 2, "trim_bytes": 4})
    assert spec.n_nodes == 4
    assert spec.total_packets == 2 * 8 + 2
    assert spec.image_bytes == spec.total_packets * 23 - 4
    image = spec.build_image()
    assert image.n_segments == 3
    assert image.size_bytes == spec.image_bytes
    assert image.segments[-1].n_packets == 2


def test_build_image_resplit_preserves_bytes():
    # The segment-size-invariance oracle depends on this: a different
    # segment_packets re-splits the *same* image bytes.
    spec = small_spec(image={"n_segments": 2, "segment_packets": 8,
                             "tail_packets": 8, "trim_bytes": 0})
    base = spec.build_image()
    resplit = spec.build_image(segment_packets=4)
    assert resplit.to_bytes() == base.to_bytes()
    assert resplit.n_segments == 4


def test_build_topology_is_pure():
    spec = ScenarioSpec(topology={"kind": "random", "n": 8, "side_ft": 40.0,
                                  "placement_seed": 9})
    a = spec.build_topology()
    b = spec.build_topology()
    assert a.positions == b.positions


def test_solvability_gates():
    assert small_spec().is_solvable()
    assert not small_spec(sabotage="double-write").is_solvable()
    # A 2-node grid spaced far beyond radio range is disconnected.
    apart = small_spec(topology={"kind": "grid", "rows": 1, "cols": 2,
                                 "spacing_ft": 500.0})
    assert not apart.is_connected()
    assert not apart.is_solvable()


# ----------------------------------------------------------------------
# ScenarioGenerator
# ----------------------------------------------------------------------
def test_generator_is_deterministic():
    a = [ScenarioGenerator(seed=4).sample(i) for i in range(12)]
    b = [ScenarioGenerator(seed=4).sample(i) for i in range(12)]
    assert a == b
    c = [ScenarioGenerator(seed=5).sample(i) for i in range(12)]
    assert a != c


def test_generator_samples_are_independent_of_order():
    gen = ScenarioGenerator(seed=4)
    assert gen.sample(7) == ScenarioGenerator(seed=4).sample(7)


def test_generator_covers_the_scenario_space():
    specs = [ScenarioGenerator(seed=0, fault_fraction=0.3).sample(i)
             for i in range(60)]
    kinds = {s.topology["kind"] for s in specs}
    assert kinds == {"grid", "random", "clustered"}
    assert any(s.faults is not None for s in specs)
    assert any(s.faults is None for s in specs)
    assert any(s.image["tail_packets"] < s.image["segment_packets"]
               for s in specs)
    assert all(s.sabotage is None for s in specs)  # sabotage is never fuzzed
    for spec in specs:
        # Every generated spec must be valid JSON round-trippable.
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec


# ----------------------------------------------------------------------
# Variant fan-out and oracles (pure functions over synthetic metrics)
# ----------------------------------------------------------------------
def _metrics(**overrides):
    base = dict(
        protocol="mnp", n_nodes=4, alive=4, complete=4, coverage=1.0,
        all_complete=True, completion_ms=1000.0, deadline_hit=False,
        messages_sent=10, collisions=0, content_ok=True,
        content_sha="c" * 16, image_sha="i" * 16, image_bytes=92,
        n_segments=1, watchdog=None, faults=0, sabotaged_node=None,
    )
    base.update(overrides)
    return base


def test_variants_always_include_determinism_pairs():
    spec = small_spec(sabotage="double-write")  # unsolvable
    roles = [role for role, _, _ in variants_for(spec)]
    assert roles == ["base", "replica", "coded", "coded-replica"]


def test_variants_for_solvable_spec():
    spec = small_spec(loss={"kind": "uniform", "ber": 1e-4})
    roles = {role for role, _, _ in variants_for(spec)}
    assert {"base", "replica", "ideal", "reseg",
            "coded", "coded-replica", "coded-ideal",
            "proto:deluge", "proto:coded_deluge", "proto:moap",
            "proto:flood"} <= roles
    # 2x2 grid at 10ft spacing with 25ft range is single-hop.
    assert "proto:xnp" in roles


def test_reseg_packets_always_differs():
    spec = small_spec(image={"n_segments": 1, "segment_packets": 16,
                             "tail_packets": 16, "trim_bytes": 0})
    assert reseg_packets(spec) != 16
    assert reseg_packets(small_spec()) != 4


def test_oracle_determinism_flags_field_diffs():
    spec = small_spec()
    runs = {"base": _metrics(), "replica": _metrics(messages_sent=11)}
    violations = evaluate(spec, runs)
    assert [v["oracle"] for v in violations] == ["determinism"]
    assert "messages_sent" in violations[0]["detail"]
    # The variant field never participates in the comparison.
    runs = {"base": _metrics(), "replica": _metrics(variant={"replica": 1})}
    assert not evaluate(spec, runs)


def test_oracle_invariants_reports_watchdog():
    spec = small_spec()
    bad = _metrics(watchdog={"violations": ["write-once breach"],
                             "stalls": []})
    violations = evaluate(spec, {"base": bad, "replica": bad})
    assert {"invariants"} == {v["oracle"] for v in violations}


def test_oracle_stalls_ignored_under_faults():
    faulty = small_spec().to_dict()
    faulty["faults"] = {"specs": []}
    spec = ScenarioSpec.from_dict(faulty)
    stalled = _metrics(watchdog={"violations": [], "stalls": ["node 3"]},
                       all_complete=False, coverage=0.5, complete=2,
                       content_ok=False)
    assert not evaluate(spec, {"base": stalled, "replica": stalled})


def test_oracle_delivery_on_solvable():
    spec = small_spec()
    incomplete = {
        "base": _metrics(all_complete=False, coverage=0.75, complete=3),
        "replica": _metrics(all_complete=False, coverage=0.75, complete=3),
    }
    oracles = {v["oracle"] for v in evaluate(spec, incomplete)}
    assert "delivery" in oracles


def test_oracle_loss_monotonicity():
    spec = small_spec(loss={"kind": "uniform", "ber": 1e-3})
    runs = {
        "base": _metrics(coverage=1.0),
        "replica": _metrics(coverage=1.0),
        "ideal": _metrics(coverage=0.5, complete=2, all_complete=False),
    }
    oracles = {v["oracle"] for v in evaluate(spec, runs)}
    assert "loss-monotonicity" in oracles


def test_oracle_reseg_invariance():
    spec = small_spec()
    runs = {
        "base": _metrics(),
        "replica": _metrics(),
        "reseg": _metrics(content_sha="different",
                          variant={"segment_packets": 8}),
    }
    oracles = {v["oracle"] for v in evaluate(spec, runs)}
    assert "reseg-invariance" in oracles


def test_oracle_cross_protocol_exempts_flood():
    spec = small_spec()
    runs = {
        "base": _metrics(),
        "replica": _metrics(),
        "proto:flood": _metrics(protocol="flood", all_complete=False,
                                coverage=0.5, complete=2),
    }
    assert not evaluate(spec, runs)
    runs["proto:deluge"] = _metrics(protocol="deluge", all_complete=False,
                                    coverage=0.5, complete=2)
    oracles = {v["oracle"] for v in evaluate(spec, runs)}
    assert "cross-protocol" in oracles


def test_oracle_registry_is_complete():
    assert list(ORACLES) == [
        "determinism", "invariants", "content", "delivery",
        "loss-monotonicity", "reseg-invariance", "cross-protocol",
        "secure-install",
    ]


# ----------------------------------------------------------------------
# Shrinker
# ----------------------------------------------------------------------
def test_candidates_are_valid_and_simpler():
    gen = ScenarioGenerator(seed=0, fault_fraction=1.0)
    spec = next(s for i in range(40)
                if (s := gen.sample(i)).faults is not None)
    cands = list(candidates(spec))
    assert cands
    for cand in cands:
        cand._validate()  # must all be constructible
        assert cand != spec
    # Dropping the whole fault plan comes before dropping single events.
    assert cands[0].faults is None


def test_candidates_skip_invalid_shrinks():
    # A 1x2 grid with a 1-packet image has nowhere left to go on the
    # topology/image axes.
    spec = ScenarioSpec(
        topology={"kind": "grid", "rows": 1, "cols": 2, "spacing_ft": 10.0},
        image={"n_segments": 1, "segment_packets": 1, "tail_packets": 1,
               "trim_bytes": 0},
        loss={"kind": "perfect"},
    )
    assert list(candidates(spec)) == []


def test_shrink_requires_same_oracle():
    # A candidate failing a *different* oracle must not be accepted.
    spec = small_spec(topology={"kind": "grid", "rows": 2, "cols": 3,
                                "spacing_ft": 10.0})
    violations = [{"oracle": "delivery", "detail": "x"}]

    def fake_eval(cand):
        # Every candidate trips a different oracle than the target.
        return [{"oracle": "content", "detail": "y"}]

    result = shrink(spec, violations, fake_eval)
    assert result.shrunk == spec
    assert result.steps == []
    assert result.oracles == ["delivery"]


def test_shrink_respects_eval_budget():
    spec = small_spec(topology={"kind": "grid", "rows": 4, "cols": 4,
                                "spacing_ft": 10.0})
    violations = [{"oracle": "delivery", "detail": "x"}]
    calls = []

    def count_eval(cand):
        calls.append(cand)
        return violations

    result = shrink(spec, violations, count_eval, max_evals=3)
    assert result.evals == 3
    assert len(calls) == 3


@pytest.mark.slow
def test_sabotage_caught_and_shrunk_to_replayable_minimum():
    """ISSUE acceptance: a deliberately seeded invariant violation is
    caught, shrunk to <= 9 nodes, and fails again on replay."""
    spec = ScenarioSpec(
        seed=5,
        topology={"kind": "grid", "rows": 3, "cols": 4, "spacing_ft": 10.0},
        image={"n_segments": 2, "segment_packets": 4, "tail_packets": 4,
               "trim_bytes": 0},
        loss={"kind": "perfect"},
        sabotage="double-write",
    )
    violations, _runs = evaluate_scenario(spec)
    tripped = {v["oracle"] for v in violations}
    assert "invariants" in tripped  # the watchdog's write-once audit

    result = shrink(spec, violations,
                    lambda cand: evaluate_scenario(cand)[0])
    assert result.shrunk.n_nodes <= 9
    assert result.shrunk.n_nodes < spec.n_nodes
    assert result.steps  # it actually simplified something

    # Replay the shrunk spec from its serialized form: must fail again.
    replayed = ScenarioSpec.from_dict(
        json.loads(json.dumps(result.shrunk.to_dict())))
    again, _runs = evaluate_scenario(replayed)
    assert {v["oracle"] for v in again} & set(result.oracles)


def test_corrupt_content_trips_content_oracle():
    spec = small_spec(sabotage="corrupt-content")
    violations, runs = evaluate_scenario(spec)
    assert "content" in {v["oracle"] for v in violations}
    assert not runs["base"]["content_ok"]


def test_write_failure_artifact(tmp_path):
    spec = small_spec(sabotage="double-write")
    shrunk = spec  # artifact writing does not care whether it shrank
    result = ShrinkResult(spec, shrunk, {"invariants"},
                          [{"oracle": "invariants", "detail": "d"}],
                          [], 0)
    json_path, repro_path = write_failure_artifact(result, str(tmp_path))
    assert os.path.exists(json_path) and os.path.exists(repro_path)
    assert replay_corpus_spec(json_path) == spec
    snippet = open(repro_path, encoding="utf-8").read()
    assert "evaluate_scenario" in snippet
    assert f"test_repro_{spec.key()}" in snippet
    # The artifact file name is repro_*, so pytest never auto-collects it.
    assert os.path.basename(repro_path).startswith("repro_")


# ----------------------------------------------------------------------
# Harness end to end
# ----------------------------------------------------------------------
def test_evaluate_scenario_clean_spec_has_no_violations():
    violations, runs = evaluate_scenario(small_spec())
    assert violations == []
    assert runs["base"]["all_complete"]
    assert runs["base"]["content_ok"]


def test_run_scenario_rejects_an_unknown_variant_key():
    # A misspelled axis used to run the base scenario, so the
    # differential twin compared a run with itself.
    from repro.conformance.execute import run_scenario

    with pytest.raises(ValueError, match="segment_packet"):
        run_scenario(small_spec(), variant={"segment_packet": 2})


def test_run_specs_for_pins_scale_and_carries_spec():
    spec = small_spec()
    pairs = run_specs_for(spec)
    assert [role for role, _ in pairs][:2] == ["base", "replica"]
    for _, run_spec in pairs:
        assert run_spec.scale == "smoke"
        assert run_spec.overrides["scenario"] == spec.to_dict()


@pytest.mark.slow
def test_run_conformance_verdict_is_deterministic():
    a = run_conformance(budget=3, seed=123)
    b = run_conformance(budget=3, seed=123)
    assert verdict_json(a) == verdict_json(b)
    assert a["ok"]
    assert a["budget"] == 3
    assert len(a["scenarios"]) == 3
    assert a["total_runs"] == sum(s["runs"] for s in a["scenarios"])
