"""Tests for the parallel experiment runner (:mod:`repro.runner`).

The load-bearing property is the determinism contract: serial and
parallel execution of the same specs yield bit-identical metric dicts,
which is what makes content-addressed caching sound.
"""

import json
import os

import pytest

from repro.experiments.replication import (
    replicate_specs,
    replication_specs,
)
from repro.runner import (
    CACHE_VERSION,
    Runner,
    RunSpec,
    execute_spec,
    resolve_experiment,
    sweep,
)

# Small enough that a full grid run takes ~0.05 s.
TINY = dict(rows=3, cols=3, n_segments=1, segment_packets=8)


def tiny_specs(seeds, protocol="mnp"):
    return [RunSpec("grid", protocol=protocol, scale="smoke", seed=s,
                    **TINY) for s in seeds]


# ----------------------------------------------------------------------
# RunSpec hashing and round-tripping
# ----------------------------------------------------------------------
def test_cache_key_is_stable_and_param_sensitive():
    a1 = RunSpec("grid", scale="smoke", seed=1, rows=3)
    a2 = RunSpec("grid", scale="smoke", seed=1, rows=3)
    assert a1.cache_key() == a2.cache_key()
    assert a1 == a2
    for other in (
        RunSpec("grid", scale="smoke", seed=2, rows=3),
        RunSpec("grid", scale="smoke", seed=1, rows=4),
        RunSpec("grid", scale="default", seed=1, rows=3),
        RunSpec("grid", protocol="deluge", scale="smoke", seed=1, rows=3),
        RunSpec("density", scale="smoke", seed=1, rows=3, spacing_ft=6.0),
    ):
        assert other.cache_key() != a1.cache_key()


def test_spec_round_trips_through_dict():
    spec = RunSpec("grid", protocol="deluge", scale="smoke", seed=7,
                   rows=5, segment_packets=16)
    clone = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert clone == spec
    assert clone.cache_key() == spec.cache_key()


def test_none_overrides_do_not_perturb_the_key():
    assert (RunSpec("grid", scale="smoke", seed=1, rows=None).cache_key()
            == RunSpec("grid", scale="smoke", seed=1).cache_key())


def test_non_json_override_rejected():
    with pytest.raises(TypeError):
        RunSpec("grid", scale="smoke", seed=1, config=object())


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError):
        resolve_experiment("nope")


def test_negative_worker_count_rejected():
    # It used to be clamped to 0, so a typo ran the fleet serially.
    with pytest.raises(ValueError, match="workers must be >= 0, got -2"):
        Runner(workers=-2)


# ----------------------------------------------------------------------
# Determinism: serial == parallel, bit for bit
# ----------------------------------------------------------------------
def test_serial_and_parallel_metrics_identical():
    specs = tiny_specs(range(3))
    serial = Runner(workers=0).run(specs)
    parallel = Runner(workers=2).run(specs)
    assert serial == parallel  # dict equality over exact float values


def test_replicate_specs_serial_vs_parallel_identical():
    specs = replication_specs((0, 1), rows=3, cols=3, n_segments=1,
                              segment_packets=8)
    serial = replicate_specs(specs, workers=0)
    parallel = replicate_specs(specs, workers=2)
    assert set(serial) == set(parallel)
    for key in serial:
        assert serial[key].values == parallel[key].values


def test_same_seed_same_metrics_across_invocations():
    (one,) = Runner(workers=0).run(tiny_specs([5]))
    (two,) = Runner(workers=0).run(tiny_specs([5]))
    assert one == two


# ----------------------------------------------------------------------
# Caching
# ----------------------------------------------------------------------
def test_cache_round_trip_is_exact(tmp_path):
    specs = tiny_specs(range(2))
    first = Runner(workers=0, cache_dir=str(tmp_path)).run(specs)
    second_runner = Runner(workers=0, cache_dir=str(tmp_path))
    second = second_runner.run(specs)
    assert second == first
    assert second_runner.stats.hits == 2
    assert second_runner.stats.misses == 0


def test_manifest_contents(tmp_path):
    spec = tiny_specs([0])[0]
    runner = Runner(workers=0, cache_dir=str(tmp_path))
    runner.run([spec])
    path = runner.manifest_path(spec)
    assert os.path.exists(path)
    manifest = json.loads(open(path).read())
    assert manifest["cache_version"] == CACHE_VERSION
    assert manifest["spec"] == spec.to_dict()
    assert manifest["key"] == spec.cache_key()
    assert manifest["metrics"]["coverage"] == 1.0


def test_interrupted_sweep_resumes_incrementally(tmp_path):
    specs = tiny_specs(range(3))
    # "Interrupted" sweep: only the first spec's manifest exists.
    Runner(workers=0, cache_dir=str(tmp_path)).run(specs[:1])
    resumed = Runner(workers=0, cache_dir=str(tmp_path))
    results = resumed.run(specs)
    assert resumed.stats.hits == 1
    assert resumed.stats.misses == 2
    assert all(r is not None for r in results)


def test_corrupt_manifest_is_a_miss_not_a_crash(tmp_path):
    spec = tiny_specs([0])[0]
    runner = Runner(workers=0, cache_dir=str(tmp_path))
    (first,) = runner.run([spec])
    with open(runner.manifest_path(spec), "w") as fh:
        fh.write("{ not json")
    rerun = Runner(workers=0, cache_dir=str(tmp_path))
    (again,) = rerun.run([spec])
    assert rerun.stats.misses == 1
    assert again == first


def test_stale_spec_in_manifest_is_a_miss(tmp_path):
    spec = tiny_specs([0])[0]
    runner = Runner(workers=0, cache_dir=str(tmp_path))
    runner.run([spec])
    path = runner.manifest_path(spec)
    manifest = json.loads(open(path).read())
    manifest["spec"]["seed"] = 999  # key/spec mismatch
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    rerun = Runner(workers=0, cache_dir=str(tmp_path))
    rerun.run([spec])
    assert rerun.stats.misses == 1


def test_no_cache_dir_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Runner(workers=0, cache_dir=None).run(tiny_specs([0]))
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Progress and the sweep() convenience
# ----------------------------------------------------------------------
def test_progress_lines_stream(tmp_path):
    lines = []
    runner = Runner(workers=0, cache_dir=str(tmp_path),
                    progress=lines.append)
    runner.run(tiny_specs(range(2)))
    assert any("done" in line for line in lines)
    runner2 = Runner(workers=0, cache_dir=str(tmp_path),
                     progress=lines.append)
    runner2.run(tiny_specs(range(2)))
    assert any("cache hit" in line for line in lines)


def test_sweep_convenience_returns_results_and_runner(tmp_path):
    results, runner = sweep(tiny_specs(range(2)), workers=0,
                            cache_dir=str(tmp_path))
    assert len(results) == 2
    assert runner.stats.misses == 2


# ----------------------------------------------------------------------
# Other experiment executors go through the same machinery
# ----------------------------------------------------------------------
def test_density_experiment_parity_with_sweep_helper():
    from repro.experiments.density import run_density_sweep

    serial = run_density_sweep(spacings=(8.0,), rows=3, cols=3,
                               n_segments=1, seed=1, workers=0)
    parallel = run_density_sweep(spacings=(8.0,), rows=3, cols=3,
                                 n_segments=1, seed=1, workers=2)
    assert serial[0].__dict__ == parallel[0].__dict__


def test_grid_experiment_spec_matches_direct_run():
    spec = tiny_specs([3])[0]
    from repro.experiments.active_radio import run_simulation_grid

    direct = run_simulation_grid(rows=3, cols=3, n_segments=1,
                                 segment_packets=8, seed=3).summary_metrics()
    assert execute_spec(spec) == direct
