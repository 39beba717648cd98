"""The ``service_mix`` workload: a real-experiment mix against a live
:class:`repro.Service` in its own process.

``python3 perfbench/service_mix.py serve --cache-dir D [--trace PATH]``
is the service process: default workers (2), a fresh cache directory,
and -- when traced -- every layer instrumented.  It prints one ``ready``
JSON line (port, import and build time) and, after a client asks it to
shut down, one ``final`` JSON line (peak RSS, kernel events its jobs
ran, the code path, and in traced mode its per-layer aggregates).

:func:`run_burst` is the load generator: a closed loop of keep-alive
:class:`~repro.service.client.ServiceClient` s (each submits, waits for
the job, then fetches its result).  Unlike the shipped ``run_loadgen``
it never raises on a bad job: failed, timed-out, refused (503) and
dropped-connection submissions are counted and the burst goes on.
"""

import asyncio
import hashlib
import itertools
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time

CLIENTS = 2
WAIT_TIMEOUT_S = 90.0
SHUTDOWN_TIMEOUT_S = 60.0
BLOCK = 16
#: A block takes about this long on a 2-vCPU host, so a run of S
#: seconds submits round(S / 1.8) blocks ...
SECONDS_PER_BLOCK = 1.8
#: ... but never fewer than 112 submissions (a p90 needs 100 samples).
MIN_BLOCKS = 7
#: Of every 16 submissions, 9 repeat an earlier one: the share of dedup
#: hits in the repository's recorded burst (``BENCH_service.json``: 18
#: of 32 submissions, from ``run_loadgen``'s default duplicate
#: fraction 0.5).
DUPLICATES = 9
#: The unique submissions take turns, in equal shares, because no
#: traffic of these experiments has been recorded: a ``probe`` run, a
#: stock ``grid`` run, a ``coding`` cell with ``coded_mnp`` at 20% loss
#: on the pinned 5x5 grid (one segment), a secured ``adversary`` run
#: under payload tampering, and a campaign shaped like the ``sweep``
#: command's default (stock ``grid`` over 5 seeds), whose children fill
#: both worker slots so other jobs queue.
UNIQUE = (
    ("run", "probe", "mnp", {}),
    ("run", "grid", "mnp", {}),
    ("run", "coding", "coded_mnp", {"loss_pct": 20, "n_segments": 1}),
    ("run", "adversary", "mnp", {"attack_class": "tamper",
                                 "intensity": 0.5, "rows": 4, "cols": 4,
                                 "segment_packets": 16}),
    ("sweep", "grid", "mnp", {}),
)
CAMPAIGN_SEEDS = 5


def blocks_for(seconds):
    return max(MIN_BLOCKS, round(seconds / SECONDS_PER_BLOCK))


def build_mix(seed, blocks):
    """The seeded submission list: ``[(kind, spec), ...]``.

    Each block of 16 holds 9 duplicates and 7 unique submissions, the
    latter continuing the turn through :data:`UNIQUE`, so the work of a
    run depends on its length, not its seed.  As in ``run_loadgen``, a
    duplicate is a uniform draw over earlier unique submissions and the
    first submission is unique; here the draw is over the uniques of
    earlier blocks (in block 0, of those made so far), so whether a
    duplicate finds its original still running, and waits for it, does
    not hang on the host's timing.  The seed picks simulation seeds,
    duplicates and the order within each block.
    """
    rng = random.Random(seed)
    turn = itertools.cycle(UNIQUE)
    sim_seed = seed * 100000
    mix, uniques = [], []
    for block in range(blocks):
        earlier = len(uniques)
        slots = ["dup"] * DUPLICATES + ["new"] * (BLOCK - DUPLICATES)
        rng.shuffle(slots)
        if block == 0:
            slots.remove("new")
            slots.insert(0, "new")
        for slot in slots:
            if slot == "dup":
                mix.append(rng.choice(uniques[:earlier] or uniques))
                continue
            kind, experiment, protocol, overrides = next(turn)
            if kind == "sweep":
                spec = {**_spec(experiment, protocol, None, **overrides),
                        "seeds": [sim_seed + i
                                  for i in range(CAMPAIGN_SEEDS)]}
            else:
                spec = _spec(experiment, protocol, sim_seed, **overrides)
            sim_seed += CAMPAIGN_SEEDS
            uniques.append((kind, spec))
            mix.append((kind, spec))
    return mix


def _spec(experiment, protocol, seed, **overrides):
    spec = {"experiment": experiment, "protocol": protocol,
            "scale": "smoke", "overrides": overrides}
    if seed is not None:
        spec["seed"] = seed
    return spec


def unique_executions(mix):
    """Distinct run specs the mix should execute, sweep children
    included (duplicates must execute once)."""
    from repro.runner import RunSpec

    keys = set()
    for kind, spec in mix:
        seeds = spec["seeds"] if kind == "sweep" else [spec["seed"]]
        for seed in seeds:
            keys.add(RunSpec(spec["experiment"], protocol=spec["protocol"],
                             scale=spec["scale"], seed=seed,
                             **spec["overrides"]).cache_key())
    return len(keys)


def result_problems(result):
    """Correctness of one fetched result payload."""
    runs = result.get("runs") if result.get("kind") == "sweep" \
        else [result]
    problems = []
    for run in runs or []:
        metrics = run.get("metrics", {})
        spec = run.get("spec", {})
        if spec.get("experiment") == "adversary":
            if metrics.get("tampered_installs") != 0 \
                    or not metrics.get("images_intact"):
                problems.append(f"adversary run {run.get('key')}: "
                                f"tampered or corrupt install")
        elif metrics.get("coverage") != 1.0:
            problems.append(f"{spec.get('experiment')} run "
                            f"{run.get('key')}: coverage "
                            f"{metrics.get('coverage')}")
    return problems


async def run_burst(host, port, mix, rec=None):
    """One closed-loop burst over ``mix``; returns the raw outcome.

    With a span recorder ``rec``, each submission's client-side spans
    share one trace, labelled with the job key the service returns."""
    from repro.service.client import ServiceClient, ServiceError

    latencies = [None] * len(mix)
    status = [None] * len(mix)
    results = {}
    next_index = iter(range(len(mix)))

    async def client_loop():
        client = ServiceClient(host, port)
        try:
            for i in next_index:
                kind, spec = mix[i]
                if rec is not None:
                    tid = rec.new_trace(f"submission-{i}")
                    rec.trace.set(tid)
                start = time.perf_counter()
                try:
                    submitted = await client.submit(spec, kind=kind)
                    if rec is not None:
                        rec.relabel_trace(tid, submitted["job"])
                    record = await client.wait(submitted["job"],
                                               timeout_s=WAIT_TIMEOUT_S)
                    status[i] = record["status"]
                    if record["status"] == "done":
                        result = await client.result(submitted["job"])
                        results[submitted["job"]] = result
                        latencies[i] = time.perf_counter() - start
                except ServiceError as exc:
                    status[i] = "refused" if exc.status == 503 \
                        else f"error-{exc.status}"
                except TimeoutError:
                    status[i] = "timeout"
                except (OSError, asyncio.IncompleteReadError):
                    # The connection died twice (ServiceClient retries
                    # once); the next submission reconnects.
                    status[i] = "error-transport"
        finally:
            await client.close()

    control = ServiceClient(host, port)
    before = await control.stats()
    t0 = time.perf_counter()
    await asyncio.gather(*(client_loop() for _ in range(CLIENTS)))
    wall_s = time.perf_counter() - t0
    after = await control.stats()
    await control.shutdown(drain=True)

    digest = hashlib.sha256()
    for key in sorted(results):
        digest.update(key.encode() + b"\x00")
        digest.update(json.dumps(results[key], sort_keys=True,
                                 separators=(",", ":")).encode() + b"\x01")
    return {
        "wall_s": wall_s,
        "latencies_s": [x for x in latencies if x is not None],
        "status": status,
        "results": results,
        "results_sha256": digest.hexdigest(),
        "stats": {k: after[k] - before[k] for k in
                  ("submissions", "dedup_hits", "cache_hits",
                   "executions")},
    }


# ----------------------------------------------------------------------
# The service process
# ----------------------------------------------------------------------
def start_server(env, cache_dir, trace_path=""):
    """Spawn the service process; returns ``(proc, ready, spawned_at)``
    once it listens (``ready`` is its first JSON line)."""
    cmd = [sys.executable, os.path.abspath(__file__), "serve",
           "--cache-dir", cache_dir]
    if trace_path:
        cmd += ["--trace", trace_path]
    spawned_at = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            text=True)
    line = proc.stdout.readline()
    if not line:
        kill_server(proc)
        raise RuntimeError(f"service exited with {proc.returncode} "
                           f"before listening")
    return proc, json.loads(line), spawned_at


def finish_server(proc):
    """Wait for a service asked to shut down; returns its final line."""
    out, _ = proc.communicate(timeout=SHUTDOWN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"service exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def kill_server(proc):
    """Stop a service that did not shut down cleanly (no-op otherwise)."""
    if proc.poll() is None:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def setup_probe(env, cache_dir):
    """Spawn a service, time spawn -> first answered ``/healthz``, and
    stop it; returns ``{"setup_s", "import_s", "build_s"}``."""
    from repro.service.client import ServiceClient

    async def probe(client, spawned_at):
        await client.health()
        setup_s = time.perf_counter() - spawned_at
        await client.shutdown(drain=True)
        return setup_s

    proc, ready, spawned_at = start_server(env, cache_dir)
    try:
        setup_s = asyncio.run(probe(
            ServiceClient(ready["host"], ready["port"]), spawned_at))
        finish_server(proc)
    finally:
        kill_server(proc)
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {"setup_s": setup_s, "import_s": ready["import_s"],
            "build_s": ready["build_s"]}


def _sample_after_executions(speed):
    """Take a host-speed sample in the worker thread after each run the
    service executes (see ``hostspeed.py``)."""
    import repro.runner as runner
    import repro.service.jobs as jobs

    execute = jobs.execute_spec

    def execute_then_sample(spec):
        try:
            return execute(spec)
        finally:
            speed.sample()

    runner.execute_spec = jobs.execute_spec = execute_then_sample


def serve_main(argv):
    import argparse

    t_main = time.perf_counter()
    parser = argparse.ArgumentParser(prog="service_mix.py serve")
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", default="")
    args = parser.parse_args(argv)

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    import hostspeed
    import layers

    from repro.service import Service
    import_s = time.perf_counter() - t_main
    harvest = layers.Harvest()
    speed = hostspeed.HostSpeed()
    rec = None
    if args.trace:
        import spans

        rec = spans.SpanRecorder()
        layers.install(rec, harvest)
    else:
        layers.install_counters(harvest)
        _sample_after_executions(speed)

    async def main():
        t_build = time.perf_counter()
        service = Service(cache_dir=args.cache_dir)
        host, port = await service.start(port=0)
        build_s = time.perf_counter() - t_build
        print(json.dumps({"ready": True, "host": host, "port": port,
                          "import_s": import_s, "build_s": build_s}),
              flush=True)
        await service.serve_forever()
        return service.store.stats()

    stats = asyncio.run(main())
    final = {
        "final": True,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "events": harvest.totals.get("Simulator.events_executed", 0),
        "harvest": harvest.totals,
        "paths": harvest.paths,
        "numpy_imported": "numpy" in sys.modules,
        "stats": stats,
        "host_scale": speed.scale() if speed.times else None,
        "host_samples": len(speed.times),
    }
    if rec is not None:
        import report

        final["spans"] = rec.dump(args.trace)
        final["layers"] = report.span_aggregates(rec)
        final["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(final), flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] != ["serve"]:
        sys.exit("usage: service_mix.py serve --cache-dir DIR "
                 "[--trace PATH]")
    serve_main(sys.argv[2:])
