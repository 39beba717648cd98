"""The runner's executor contract: a spec's overrides are its executor's
keyword arguments.

:func:`repro.runner.execute_spec` calls ``fn(spec, **spec.overrides)``,
so each default lives once, in a signature, and bad input fails instead
of running a default: an override the executor does not take raises
:class:`TypeError` naming it, a baseline handed an MNP config raises
:class:`TypeError`, and a zero count raises :class:`ValueError`.

Every case here must be decided before a simulation starts, so
:meth:`Deployment.start` is replaced by a tripwire: a test that gets as
far as starting a run sees :class:`Started` instead of its expected
error.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.common import Deployment
from repro.faults import FaultPlan
from repro.runner import EXPERIMENTS, RunSpec, execute_spec

SCENARIO = json.loads(
    (Path(__file__).parent / "corpus" / "grid-empirical.json").read_text())

#: Overrides without which an executor cannot run at all.
REQUIRED = {
    "density": {"spacing_ft": 10.0},
    "power": {"level": 255},
    "conformance": {"scenario": SCENARIO},
}

#: Every override key each executor takes, with a value that runs.
ACCEPTED = {
    "grid": dict(rows=2, cols=2, n_segments=1, segment_packets=4,
                 deadline_min=1, config={"query_update": True}),
    "density": dict(spacing_ft=10.0, rows=2, cols=2, n_segments=1),
    "power": dict(level=255, rows=2, cols=2, environment="outdoor",
                  spacing_ft=4.0, program_packets=8),
    "chaos": dict(plan=FaultPlan().to_dict(), fault_class="crash",
                  intensity=0.5, rows=2, cols=2, n_segments=1,
                  segment_packets=4, deadline_min=1,
                  config={"query_update": True}),
    "adversary": dict(plan=FaultPlan().to_dict(), attack_class="forge",
                      intensity=0.5, secured=False, rows=2, cols=2,
                      n_segments=1, segment_packets=4, deadline_min=1,
                      config={"query_update": True}),
    "coding": dict(loss_pct=10, rows=2, cols=2, spacing_ft=10.0,
                   n_segments=1, segment_packets=4, deadline_min=1,
                   config={"query_update": True}),
    "probe": dict(rows=2, cols=2, spacing_ft=10.0, n_segments=1,
                  segment_packets=4, deadline_min=1,
                  config={"query_update": True}),
    "conformance": dict(scenario=SCENARIO, variant={"replica": 1}),
}


class Started(Exception):
    """Raised where a simulation would have started."""


@pytest.fixture(autouse=True)
def tripwire(monkeypatch):
    def start(self):
        raise Started
    monkeypatch.setattr(Deployment, "start", start)


def spec(experiment, protocol="mnp", **overrides):
    return RunSpec(experiment, protocol=protocol, scale="smoke", seed=0,
                   **overrides)


def test_the_accepted_table_covers_every_experiment():
    assert sorted(ACCEPTED) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_every_accepted_override_reaches_the_run(experiment):
    with pytest.raises(Started):
        execute_spec(spec(experiment, **ACCEPTED[experiment]))


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_an_override_nothing_takes_raises_naming_it(experiment):
    bad = spec(experiment, bogus_knob=3, **REQUIRED.get(experiment, {}))
    with pytest.raises(TypeError, match="bogus_knob"):
        execute_spec(bad)


@pytest.mark.parametrize("experiment,key", [
    ("probe", "rowz"),
    ("chaos", "fault_klass"),
    ("chaos", "stall_ms"),
    ("adversary", "stall_ms"),
])
def test_a_misspelled_or_internal_override_raises(experiment, key):
    with pytest.raises(TypeError, match=key):
        execute_spec(spec(experiment, **{key: 1}))


@pytest.mark.parametrize("experiment", ["grid", "coding", "probe"])
def test_a_baseline_handed_a_config_raises(experiment):
    bad = spec(experiment, protocol="deluge", rows=2, cols=2,
               config={"query_update": True})
    with pytest.raises(TypeError, match="takes no protocol config"):
        execute_spec(bad)


@pytest.mark.parametrize("experiment", ["grid", "coding", "probe"])
def test_a_nan_config_field_raises(experiment):
    # JSON specs may carry NaN (json.loads accepts it).
    bad = spec(experiment, rows=2, cols=2,
               config=json.loads('{"adv_interval_ms": NaN}'))
    with pytest.raises(ValueError, match="advertisement interval"):
        execute_spec(bad)


@pytest.mark.parametrize("experiment,overrides", [
    ("grid", {"n_segments": 0}),
    ("grid", {"segment_packets": 0}),
    ("probe", {"rows": 0}),
    ("probe", {"n_segments": 0}),
    ("probe", {"segment_packets": 0}),
])
def test_a_zero_count_raises(experiment, overrides):
    with pytest.raises(ValueError):
        execute_spec(spec(experiment, **overrides))
