"""Lifecycle tests for the dissemination service (:mod:`repro.service`).

Every test here drives a *real* :class:`~repro.service.Service` over
real loopback sockets -- submit, poll, long-poll events, fetch results
-- because the service's whole job is to multiplex many clients onto one
execution engine without corrupting the shared content-hash cache.  The
core lifecycle tests are parametrized over two worker-pool widths so
admission-ordering bugs cannot hide behind one particular concurrency
level.

What must hold:

* submit -> poll -> fetch round-trips and the result carries the job key
  and full metrics;
* duplicate submissions (same client or N concurrent ones) share one
  job key and ONE execution, and every subscriber sees byte-identical
  results;
* cancelling a job -- queued or mid-run -- leaves the disk cache
  untouched, and a resubmission executes cleanly from scratch;
* graceful shutdown drains in-flight jobs to completion (their
  manifests land in the cache) while refusing new work;
* a fresh service instance pointed at the same cache directory serves
  prior results from disk without re-executing.
"""

import asyncio
import json
import math
from pathlib import Path

import pytest

from repro.conformance.execute import run_scenario
from repro.runner import Runner, RunSpec, metrics_digest
from repro.service import Service
from repro.service.client import ServiceClient, ServiceError

pytestmark = pytest.mark.slow  # real sockets + real simulations

WORKER_COUNTS = (1, 3)

#: A fast probe dissemination (~tens of ms warm) used as the job body.
def probe_payload(seed=0, **overrides):
    return {"experiment": "probe", "protocol": "mnp", "scale": "smoke",
            "seed": seed, "overrides": overrides}


#: A deliberately heavier probe, slow enough to cancel mid-run.
def big_probe_payload(seed=9):
    return probe_payload(seed=seed, rows=6, cols=6, n_segments=2,
                         segment_packets=64)


def canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def probe_spec(payload):
    return RunSpec(experiment=payload["experiment"],
                   protocol=payload["protocol"], scale=payload["scale"],
                   seed=payload["seed"], **payload["overrides"])


async def _serve(tmp_path, workers, body, **svc_kwargs):
    """Start a service on an ephemeral port, run ``body``, drain."""
    svc = Service(workers=workers, cache_dir=str(tmp_path / "cache"),
                  **svc_kwargs)
    host, port = await svc.start(port=0)
    try:
        return await body(svc, host, port)
    finally:
        await svc.stop(drain=True)


def manifest_path(tmp_path, key):
    return tmp_path / "cache" / f"{key}.json"


# ----------------------------------------------------------------------
# Round trip + dedup (parametrized over worker counts)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_submit_poll_fetch_round_trip(tmp_path, workers):
    async def body(svc, host, port):
        client = ServiceClient(host, port)
        try:
            submitted = await client.submit(probe_payload(seed=1))
            assert submitted["status"] in ("queued", "running", "done")
            assert submitted["deduped"] is False
            record = await client.wait(submitted["job"], timeout_s=60)
            assert record["status"] == "done"
            result = await client.result(submitted["job"])
        finally:
            await client.close()
        assert result["key"] == submitted["job"]
        assert result["kind"] == "run"
        assert result["spec"] == probe_payload(seed=1)
        assert result["metrics"]["coverage"] == 1.0
        assert result["metrics"]["seed"] == 1
        # The manifest reached the shared disk cache, digest intact.
        manifest = json.loads(
            manifest_path(tmp_path, submitted["job"]).read_text())
        assert manifest["metrics_sha256"] == \
            metrics_digest(manifest["metrics"])
        return None

    asyncio.run(_serve(tmp_path, workers, body))


def test_misspelled_override_fails_the_job_and_caches_nothing(tmp_path):
    # The executor takes its overrides as keywords, so a key it does not
    # take fails the job instead of running (and caching) the default.
    async def body(svc, host, port):
        client = ServiceClient(host, port)
        try:
            submitted = await client.submit(probe_payload(seed=11, rowz=3))
            record = await client.wait(submitted["job"], timeout_s=60)
        finally:
            await client.close()
        assert record["status"] == "failed"
        assert "rowz" in record["error"]
        assert list((tmp_path / "cache").glob("*.json")) == []

    asyncio.run(_serve(tmp_path, 1, body))


@pytest.mark.parametrize("overrides,complaint", [
    ({"config": {"adv_interval_ms": math.nan}}, "advertisement interval"),
    ({"deadline_min": math.nan}, "NaN deadline"),
], ids=["config", "deadline"])
def test_a_nan_field_fails_the_job_and_caches_nothing(tmp_path, overrides,
                                                      complaint):
    # JSON carries NaN both ways.  A NaN config field would run a network
    # whose timers fire at NaN times, and a NaN deadline never passes.
    async def body(svc, host, port):
        client = ServiceClient(host, port)
        try:
            submitted = await client.submit(probe_payload(seed=11,
                                                          **overrides))
            record = await client.wait(submitted["job"], timeout_s=60)
        finally:
            await client.close()
        assert record["status"] == "failed"
        assert complaint in record["error"]
        assert list((tmp_path / "cache").glob("*.json")) == []

    asyncio.run(_serve(tmp_path, 1, body))


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_duplicate_submissions_share_one_execution(tmp_path, workers):
    async def body(svc, host, port):
        payload = probe_payload(seed=2)
        a, b = ServiceClient(host, port), ServiceClient(host, port)
        try:
            first = await a.submit(payload)
            second = await b.submit(payload)
            assert first["job"] == second["job"]
            assert second["deduped"] is True
            ra = await a.wait(first["job"], timeout_s=60)
            rb = await b.wait(second["job"], timeout_s=60)
            assert ra["status"] == rb["status"] == "done"
            result_a = await a.result(first["job"])
            result_b = await b.result(second["job"])
            stats = await a.stats()
        finally:
            await a.close()
            await b.close()
        assert canonical(result_a) == canonical(result_b)
        assert stats["executions"] == 1
        assert stats["dedup_hits"] == 1
        assert stats["submissions"] == 2

    asyncio.run(_serve(tmp_path, workers, body))


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_concurrent_clients_observe_identical_manifests(tmp_path, workers):
    n_clients = 6

    async def body(svc, host, port):
        payload = probe_payload(seed=3)

        async def one_client():
            client = ServiceClient(host, port)
            try:
                submitted = await client.submit(payload)
                await client.wait(submitted["job"], timeout_s=60)
                return canonical(await client.result(submitted["job"]))
            finally:
                await client.close()

        blobs = await asyncio.gather(*(one_client()
                                       for _ in range(n_clients)))
        assert len(set(blobs)) == 1        # byte-identical for everyone
        assert svc.store.executions == 1   # ...from ONE execution
        assert svc.store.submissions == n_clients
        assert svc.store.dedup_hits == n_clients - 1

    asyncio.run(_serve(tmp_path, workers, body))


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_events_stream_is_deterministic(tmp_path, workers):
    """Two cold executions of one spec stream identical event sequences."""

    async def events_of(root):
        async def body(svc, host, port):
            client = ServiceClient(host, port)
            try:
                submitted = await client.submit(probe_payload(seed=4))
                await client.wait(submitted["job"], timeout_s=60)
                chunk = await client.events(submitted["job"])
            finally:
                await client.close()
            assert chunk["events_dropped"] == 0
            return chunk["events"]

        return await _serve(root, 1, body)

    first = asyncio.run(events_of(tmp_path / "a"))
    second = asyncio.run(events_of(tmp_path / "b"))
    assert [e["event"] for e in first] == [e["event"] for e in second]
    assert first == second
    names = [e["event"] for e in first]
    assert names[0] == "queued" and names[-1] == "done"
    assert "trace" in names            # real simulation milestones


def test_baseline_probe_streams_got_code(tmp_path):
    """A baseline's got-code milestones stream under the one name every
    protocol traces them with, carrying the parent as MNP's do: one per
    node of the six-node Deluge probe but its base station."""

    async def body(svc, host, port):
        client = ServiceClient(host, port)
        try:
            payload = dict(probe_payload(seed=3), protocol="deluge")
            submitted = await client.submit(payload)
            await client.wait(submitted["job"], timeout_s=60)
            chunk = await client.events(submitted["job"])
        finally:
            await client.close()
        assert chunk["events_dropped"] == 0
        return [e for e in chunk["events"] if e["event"] == "trace"]

    traces = asyncio.run(_serve(tmp_path, 1, body))
    got_code = [e for e in traces if e["category"] == "mnp.got_code"]
    assert len(got_code) == 5
    assert len({e["node"] for e in got_code}) == 5
    assert all("parent" in e for e in got_code)


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------
def test_cancel_queued_job_never_runs(tmp_path):
    async def body(svc, host, port):
        client = ServiceClient(host, port)
        try:
            # workers=1: the first job occupies the only slot, so the
            # second is deterministically still queued when cancelled.
            blocker = await client.submit(big_probe_payload(seed=8))
            victim = await client.submit(probe_payload(seed=5))
            cancelled = await client.cancel(victim["job"])
            assert cancelled["cancelled"] is True
            record = await client.job(victim["job"])
            assert record["status"] == "cancelled"
            with pytest.raises(ServiceError) as err:
                await client.result(victim["job"])
            assert err.value.status == 410
            assert err.value.error == "job-cancelled"
            await client.wait(blocker["job"], timeout_s=60)
        finally:
            await client.close()
        assert not manifest_path(tmp_path, victim["job"]).exists()
        assert manifest_path(tmp_path, blocker["job"]).exists()

    asyncio.run(_serve(tmp_path, 1, body))


def test_cancel_mid_run_leaves_cache_uncorrupted(tmp_path):
    async def body(svc, host, port):
        payload = big_probe_payload(seed=9)
        client = ServiceClient(host, port)
        try:
            submitted = await client.submit(payload)
            key = submitted["job"]
            # Long-poll until the job is genuinely executing.
            seen = 0
            while True:
                chunk = await client.events(key, since=seen, wait=10)
                seen += len(chunk["events"])
                if chunk["status"] != "queued":
                    break
            assert chunk["status"] == "running"
            cancelled = await client.cancel(key)
            assert cancelled["cancelled"] is True
            record = await client.wait(key, timeout_s=60)
            assert record["status"] == "cancelled"

            # The discarded result never touched the cache...
            assert not manifest_path(tmp_path, key).exists()

            # ...and a resubmission executes from scratch, cleanly.
            again = await client.submit(payload)
            assert again["job"] == key
            assert again["deduped"] is False
            record = await client.wait(key, timeout_s=120)
            assert record["status"] == "done"
            result = await client.result(key)
        finally:
            await client.close()
        assert result["metrics"]["coverage"] == 1.0
        # The fresh manifest round-trips through the runner's
        # integrity-checked loader.
        runner = Runner(workers=0, cache_dir=str(tmp_path / "cache"))
        assert runner.load_cached(probe_spec(payload)) == \
            result["metrics"]

    asyncio.run(_serve(tmp_path, 1, body))


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_shutdown_drains_in_flight_jobs(tmp_path, workers):
    async def body():
        svc = Service(workers=workers, cache_dir=str(tmp_path / "cache"))
        host, port = await svc.start(port=0)
        client = ServiceClient(host, port)
        keys = []
        try:
            for seed in range(4):
                submitted = await client.submit(probe_payload(seed=seed))
                keys.append(submitted["job"])
            # Drain while most of those jobs are still queued/running.
            reply = await client.shutdown(drain=True)
        finally:
            await client.close()
        assert reply["drained"] is True
        by_status = reply["stats"]["jobs"]
        assert by_status["done"] == 4
        assert by_status["queued"] == by_status["running"] == 0
        await svc.serve_forever()      # returns: stop() completed
        return keys

    keys = asyncio.run(body())
    # Every drained job's manifest landed in the cache.
    for key in keys:
        assert manifest_path(tmp_path, key).exists()


def test_draining_service_refuses_new_submissions(tmp_path):
    async def body(svc, host, port):
        svc.store.draining = True
        client = ServiceClient(host, port)
        try:
            with pytest.raises(ServiceError) as err:
                await client.submit(probe_payload(seed=6))
            assert err.value.status == 503
            assert err.value.error == "draining"
        finally:
            await client.close()

    asyncio.run(_serve(tmp_path, 1, body))


# ----------------------------------------------------------------------
# Sweeps + cross-instance cache sharing
# ----------------------------------------------------------------------
def test_sweep_dedups_children_across_tenants(tmp_path):
    async def body(svc, host, port):
        a, b = ServiceClient(host, port), ServiceClient(host, port)
        try:
            # Tenant A runs seeds 0 and 1 individually...
            for seed in (0, 1):
                submitted = await a.submit(probe_payload(seed=seed))
                await a.wait(submitted["job"], timeout_s=60)
            # ...then tenant B asks for the seeds 0..3 campaign.
            sweep = await b.submit(
                {"experiment": "probe", "protocol": "mnp",
                 "scale": "smoke", "seeds": [0, 1, 2, 3],
                 "overrides": {}},
                kind="sweep")
            record = await b.wait(sweep["job"], timeout_s=120)
            assert record["status"] == "done"
            result = await b.result(sweep["job"])
            stats = await b.stats()
        finally:
            await a.close()
            await b.close()
        assert [run["spec"]["seed"] for run in result["runs"]] == \
            [0, 1, 2, 3]
        # Only the two seeds A had not already run were executed.
        assert stats["executions"] == 4
        assert stats["dedup_hits"] == 2

    asyncio.run(_serve(tmp_path, 2, body))


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_fresh_instance_serves_prior_results_from_disk(tmp_path, workers):
    payload = probe_payload(seed=7)

    async def run_once(expect_cached):
        async def body(svc, host, port):
            client = ServiceClient(host, port)
            try:
                submitted = await client.submit(payload)
                await client.wait(submitted["job"], timeout_s=60)
                record = await client.job(submitted["job"])
                result = await client.result(submitted["job"])
            finally:
                await client.close()
            assert record["cache_hit"] is expect_cached
            assert svc.store.executions == (0 if expect_cached else 1)
            return canonical(result)

        return await _serve(tmp_path, workers, body)

    first = asyncio.run(run_once(expect_cached=False))
    second = asyncio.run(run_once(expect_cached=True))
    assert first == second


# ----------------------------------------------------------------------
# Scenario jobs
# ----------------------------------------------------------------------
def test_scenario_job_matches_run_scenario(tmp_path):
    spec = json.loads((Path(__file__).parent / "corpus"
                       / "grid-empirical.json").read_text())

    async def body(svc, host, port):
        client = ServiceClient(host, port)
        try:
            first = await client.submit(spec, kind="scenario")
            second = await client.submit(spec, kind="scenario")
            record = await client.wait(first["job"], timeout_s=60)
            result = await client.result(first["job"])
            with pytest.raises(ServiceError) as refused:
                await client.submit({"topology": {"kind": "nowhere"}},
                                    kind="scenario")
        finally:
            await client.close()
        assert first["kind"] == "scenario" and not first["deduped"]
        assert second["job"] == first["job"] and second["deduped"]
        assert record["status"] == "done"
        assert svc.store.executions == 1
        assert refused.value.status == 400
        assert refused.value.error == "malformed-scenario"
        return result

    result = asyncio.run(_serve(tmp_path, 1, body))
    assert result["kind"] == "scenario"
    metrics = dict(result["metrics"])
    assert metrics.pop("variant") == {}
    assert metrics == run_scenario(spec)
