"""Subprocess entry points of the benchmark (``run.py`` spawns them).

``worker.py setup --workload W --seed N``
    Import the package, build the workload and run its first simulated
    event; print the import and build times and the instant (on the
    system-wide monotonic clock) the first event had run.
``worker.py measure --workload W --seed N --seconds S --trace 0|1 --out D``
    Measure the workload (see ``run.py``) and print one JSON line.

Every run is checked; problems are listed in the output, never hidden.
"""

import time

T_MAIN = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Fewest untraced repetitions a timed simulation run makes.
MIN_REPS = 3
#: A host-speed sample follows every 16th slice of a simulated run
#: (about 7% more work than the run itself).
SAMPLE_EVERY = 16


def environment():
    """Interpreter, machine and escape-hatch settings of this run."""
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "REPRO_NO_VECTOR": os.environ.get("REPRO_NO_VECTOR"),
        "REPRO_NO_LINK_CACHE": os.environ.get("REPRO_NO_LINK_CACHE"),
        "numpy_imported": "numpy" in sys.modules,
    }


def child_env():
    """This environment, with the checkout's package importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
def setup_main(args):
    import workloads

    import_s = time.perf_counter() - T_MAIN
    t0 = time.perf_counter()
    job = workloads.build(args.workload, args.seed)
    build_s = time.perf_counter() - t0
    job.start()
    job.sim.run(max_events=1)
    first_event_at = time.perf_counter()
    print(json.dumps({"import_s": import_s, "build_s": build_s,
                      "first_event_at": first_event_at}))


def timed_run(job, speed, progress=None):
    """Run ``job`` once; returns the host time of each of its slices.

    The slices are cut where the kernel's ``run`` returns: ``run_until``
    calls it once per simulated second it polls, so a seeded run always
    cuts into the same slices.  The first slice includes the nodes'
    power-up, the last one whatever follows the final poll
    (``install_all()``).  Off the slices' clock, ``speed`` takes a
    host-speed sample after every ``SAMPLE_EVERY``-th slice, and a
    ``progress`` list receives the number of nodes holding the image
    after each slice."""
    pieces = []
    run = job.sim.run
    nodes = list(job.deployment.nodes.values())

    def sliced(*args, **kwargs):
        nonlocal start
        executed = run(*args, **kwargs)
        pieces.append(time.perf_counter() - start)
        if progress is not None:
            progress.append(sum(1 for n in nodes if n.has_full_image))
        if len(pieces) % SAMPLE_EVERY == 0:
            speed.sample()
        start = time.perf_counter()
        return executed

    job.sim.run = sliced
    start = time.perf_counter()
    job.run()
    pieces.append(time.perf_counter() - start)
    del job.sim.run
    return pieces


def measure_sim(args):
    import hostspeed
    import workloads

    reference = load_reference()
    name, seed = args.workload, args.seed
    # Traced runs spend about a third of their time on untraced reps
    # (the overhead baseline) and the rest on one traced rep.
    budget = args.seconds / 3 if args.trace else args.seconds
    speed = hostspeed.HostSpeed()
    reps, pieces, problems = [], [], []
    first = code_path = None
    t_end = time.perf_counter() + budget
    while True:
        gc.collect()
        job = workloads.build(name, seed)
        # The run is seeded, so nodes finish in the same slice every
        # time: the first repetition records when.
        progress = [] if first is None else None
        cut = timed_run(job, speed, progress)
        if progress is not None:
            done_after = progress
        outcome = job.outcome()
        problems += workloads.check(name, seed, outcome, reference)
        if first is None:
            first, code_path = outcome, job.code_path()
        elif outcome != first:
            problems.append(f"rep {len(reps) + 1} outcome differs from "
                            f"rep 1: {outcome} vs {first}")
        elif len(cut) != len(pieces[0]):
            problems.append(f"rep {len(reps) + 1} ran {len(cut)} slices, "
                            f"rep 1 {len(pieces[0])}")
        reps.append({"wall_s": sum(cut), "events": outcome["events"]})
        pieces.append(cut)
        del job
        if problems or (time.perf_counter() >= t_end
                        and len(reps) >= (1 if args.trace else MIN_REPS)):
            break
    out = {
        "reps": reps,
        "mean_pieces": [sum(times) / len(times) for times in zip(*pieces)],
        "done_after": done_after,
        "host_scale": speed.scale(),
        "host_samples": len(speed.times),
        "outcome": first,
        "code_path": code_path,
        "env": environment(),
        "attempted": first["nodes"] * len(reps),
        "failed": sum(first["nodes"] - first["nodes_done"]
                      for _ in reps),
        "peak_rss_mb": peak_rss_mb(),
        "problems": problems,
    }
    if args.trace and not problems:
        out.update(trace_sim(args, workloads, first))
    return out


def trace_sim(args, workloads, untraced):
    import layers
    import report
    import spans

    rec = spans.SpanRecorder()
    harvest = layers.Harvest()
    layers.install(rec, harvest)
    gc.collect()
    job = workloads.build(args.workload, args.seed)
    rec.trace.set(rec.new_trace(f"{args.workload}-seed{args.seed}"))
    run = rec.wrap(job.run, "workload.run", "workload")
    t0 = time.perf_counter()
    run()
    traced_wall_s = time.perf_counter() - t0
    harvest.collect()
    outcome = job.outcome()
    problems = []
    if outcome != untraced:
        problems.append(f"traced outcome {outcome} differs from untraced "
                        f"{untraced}")
    path = os.path.join(args.out, f"spans-{args.workload}.bin")
    return {"traced_wall_s": traced_wall_s,
            "layers": report.span_aggregates(rec),
            "harvest": harvest.totals, "spans_file": path,
            "spans": rec.dump(path), "problems": problems,
            "traced_peak_rss_mb": peak_rss_mb()}


# ----------------------------------------------------------------------
def measure_service(args):
    import service_mix

    reference = load_reference().get("service_mix", {})
    # A traced run keeps the smallest mix: every span of the service's
    # simulations is kept in memory (about 4 million at 7 blocks).
    blocks = service_mix.MIN_BLOCKS if args.trace \
        else service_mix.blocks_for(args.seconds)
    mix = service_mix.build_mix(args.seed, blocks)
    expected = service_mix.unique_executions(mix)
    env = child_env()
    work = os.path.join(ROOT, ".bench_work", f"mix-{os.getpid()}")

    def burst(tag, trace_path="", rec=None):
        cache_dir = os.path.join(work, tag)
        proc, ready, _ = service_mix.start_server(env, cache_dir,
                                                  trace_path)
        try:
            raw = asyncio.run(service_mix.run_burst(
                ready["host"], ready["port"], mix, rec=rec))
            raw["server"] = service_mix.finish_server(proc)
        finally:
            service_mix.kill_server(proc)
        return raw

    def check(raw):
        problems = []
        bad = [s for s in raw["status"] if s != "done"]
        if bad:
            problems.append(f"{len(bad)} of {len(mix)} submissions did "
                            f"not end done: {sorted(set(bad))}")
        if raw["stats"]["executions"] != expected:
            problems.append(f"{raw['stats']['executions']} executions "
                            f"for {expected} unique payloads")
        for result in raw["results"].values():
            problems += service_mix.result_problems(result)
        want = reference.get(f"{args.seed}/{blocks}")
        if want is not None and raw["results_sha256"] != want:
            problems.append(f"results digest {raw['results_sha256']} != "
                            f"reference {want}")
        return problems

    try:
        raw = burst("untraced")
        problems = check(raw)
        out = {
            "burst": {k: raw[k] for k in ("wall_s", "latencies_s",
                                          "results_sha256", "stats")},
            "submissions": len(mix),
            "expected_executions": expected,
            "server": {k: v for k, v in raw["server"].items()
                       if k != "layers"},
            "env": {**environment(),
                    "numpy_imported": raw["server"]["numpy_imported"]},
            "attempted": len(mix),
            "failed": sum(1 for s in raw["status"] if s != "done"),
            "problems": problems,
        }
        if args.trace and not problems:
            out.update(trace_service(args, burst, raw, check))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out


def trace_service(args, burst, untraced, check):
    import layers
    import report
    import spans

    rec = spans.SpanRecorder()
    layers.install_client(rec)
    server_path = os.path.join(args.out, "spans-service_mix-server.bin")
    raw = burst("traced", trace_path=server_path, rec=rec)
    problems = check(raw)
    if raw["results_sha256"] != untraced["results_sha256"]:
        problems.append("traced results differ from untraced results")
    client_path = os.path.join(args.out, "spans-service_mix-client.bin")
    rec.dump(client_path)
    server = raw["server"]
    return {
        "traced_wall_s": raw["wall_s"],
        "layers": report.merge(report.span_aggregates(rec),
                               server["layers"]),
        "harvest": server["harvest"],
        "service_stats": raw["stats"],
        "spans_file": [client_path, server_path],
        "spans": len(rec.spans()) + server["spans"],
        "traced_peak_rss_mb": server["peak_rss_mb"],
        "problems": problems,
    }


# ----------------------------------------------------------------------
def main():
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_out"))
    args = parser.parse_args()
    if args.mode == "setup":
        setup_main(args)
        return
    os.makedirs(args.out, exist_ok=True)
    if args.workload == "service_mix":
        out = measure_service(args)
    else:
        out = measure_sim(args)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
