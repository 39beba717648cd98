#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload dissemination --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` (timed run) prints every end-to-end metric; ``--trace 1``
(traced run) prints every per-layer metric instead.  ``--workload all``
runs every workload in turn.  Each run prints a human-readable report,
then, as its last stdout line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A failed output check
prints ``"correct": false`` with no metrics and exits 1; a checkout
without the package exits 2.  See ``perfbench/README.md``.

The run itself happens in subprocesses: ``SETUP_PROBES`` fresh
interpreters time setup (imports included), then one ``worker.py
measure`` process does the measured work, so every number is taken
from a cold start and ``peak_rss_mb`` is the working process's own.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import report  # noqa: E402
import spans  # noqa: E402
from worker import child_env  # noqa: E402

WORKLOADS = ("dissemination", "coded_secure", "service_mix")

#: Fresh processes whose setup time is measured per run (median kept).
SETUP_PROBES = 9
#: Host-speed samples taken after each of them.
SPEED_SAMPLES_PER_PROBE = 3

#: A worker that has not finished by then is killed and the run fails
#: (leaving the setup probes time within the 180 s a run may take).
WORKER_TIMEOUT_S = 160


def setup_probes(workload, seed):
    """Median setup, import and build time over fresh processes, and the
    host-speed scale (``hostspeed.py``) sampled here between them."""
    env = child_env()
    speed = hostspeed.HostSpeed()
    samples = []
    for i in range(SETUP_PROBES):
        if workload == "service_mix":
            import service_mix

            cache_dir = os.path.join(ROOT, ".bench_work",
                                     f"setup-{os.getpid()}-{i}")
            samples.append(service_mix.setup_probe(env, cache_dir))
        else:
            spawned_at = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), "setup",
                 "--workload", workload, "--seed", str(seed)],
                stdout=subprocess.PIPE, env=env, text=True, check=True,
                timeout=60)
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            probe["setup_s"] = probe["first_event_at"] - spawned_at
            samples.append(probe)
        for _ in range(SPEED_SAMPLES_PER_PROBE):
            speed.sample()
    setup = {key: spans.median([s[key] for s in samples])
             for key in ("setup_s", "import_s", "build_s")}
    setup["host_scale"] = speed.scale()
    setup["host_samples"] = len(speed.times)
    return setup


def measure(workload, seed, seconds, trace):
    # Own process group, so a timeout also stops the service process a
    # service_mix worker has started.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), "measure",
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--out", os.path.join(ROOT, ".bench_out")],
        stdout=subprocess.PIPE, env=child_env(), text=True,
        start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def completion_latencies(pieces, done_after, scale):
    """Each node's latency in ms: the scaled host time from the start of
    the run to the end of the slice after which it held the image
    (``done_after[i]`` nodes do after slice ``i``)."""
    latencies, elapsed, done = [], 0.0, 0
    for piece, now_done in zip(pieces, done_after):
        elapsed += piece * 1000.0 * scale
        latencies += [elapsed] * (now_done - done)
        done = now_done
    return latencies


def end_to_end(workload, setup, out):
    """Every END_TO_END metric, plus sample counts for the report.

    Times are scaled to the reference host speed (``hostspeed.py``) by
    the factor the run measured; the report prints it with the raw
    figures."""
    if workload == "service_mix":
        burst = out["burst"]
        scale = out["server"]["host_scale"]
        samples = out["server"]["host_samples"]
        latencies = [x * 1000.0 * scale for x in burst["latencies_s"]]
        raw_wall = burst["wall_s"]
        wall = raw_wall * scale
        values = {
            "wall_s": wall,
            "events_per_s": out["server"]["events"] / wall,
            "jobs_per_s": len(latencies) / wall,
            "peak_rss_mb": out["server"]["peak_rss_mb"],
        }
        counts = {"wall_s": f"one burst, {raw_wall:.4g} s measured",
                  "events_per_s": f"{out['server']['events']} events",
                  "jobs_per_s": f"{len(latencies)} jobs"}
    else:
        # The jobs of a simulation workload are its nodes getting the
        # image: a node's latency is the host time from the start of the
        # run to the end of the slice (one simulated second) in which it
        # got the image, with slice times averaged over the repetitions.
        scale = out["host_scale"]
        samples = out["host_samples"]
        latencies = completion_latencies(out["mean_pieces"],
                                         out["done_after"], scale)
        walls = [r["wall_s"] for r in out["reps"]]
        raw_wall = sum(walls) / len(walls)
        wall = raw_wall * scale
        events = out["outcome"]["events"]
        values = {
            "wall_s": wall,
            "events_per_s": events / wall,
            "jobs_per_s": len(latencies) / wall,
            "peak_rss_mb": out["peak_rss_mb"],
        }
        counts = {"wall_s": f"mean of {len(walls)} runs, {raw_wall:.4g} s "
                            f"measured ({min(walls):.4g}-{max(walls):.4g})",
                  "events_per_s": f"{events} events per run",
                  "jobs_per_s": f"{len(latencies)} nodes per run"}
    p50 = spans.percentile(latencies, 0.5)
    p90 = spans.percentile(latencies, 0.9)
    if p90["value"] is None:
        # Too few jobs for a p90 with ten samples beyond it: the
        # slowest job stands in, and the base says so.
        p90 = {"value": max(latencies), "n": len(latencies)}
        counts["job_latency_p90_ms"] = f"max of {p90['n']} (<100 jobs)"
    else:
        counts["job_latency_p90_ms"] = f"p90 of {p90['n']}"
    values["job_latency_p90_ms"] = p90["value"]
    values["job_latency_p50_ms"] = p50["value"]
    counts["job_latency_p50_ms"] = f"p50 of {p50['n']}"
    values["setup_s"] = setup["setup_s"] * setup["host_scale"]
    counts["setup_s"] = (f"median of {SETUP_PROBES} processes, "
                         f"{setup['setup_s']:.4g} s measured, host scale "
                         f"{setup['host_scale']:.4f} "
                         f"({setup['host_samples']} samples)")
    failed_frac = spans.ratio(out["failed"], out["attempted"])
    host = f"host scale {scale:.4f} ({samples} kernel samples)"
    return values, counts, failed_frac, host


def run_workload(workload, seed, seconds, trace):
    try:
        setup = setup_probes(workload, seed)
        out = measure(workload, seed, seconds, trace)
    except Exception as exc:  # noqa: BLE001 -- any failure fails the run
        # A probe or worker that crashed, hung or printed no result:
        # nothing was measured, so the run counts as one failed attempt.
        out = {"attempted": 1, "failed": 1,
               "problems": [f"{type(exc).__name__}: {exc}"]}
    problems = out["problems"]
    result = {"correct": not problems, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": {}}
    title = f"{workload} (seed {seed}, {'traced' if trace else 'timed'})"
    if problems:
        print(f"{title}: FAILED", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return result, out
    notes = [f"env: {json.dumps(out['env'], sort_keys=True)}"]
    if "code_path" in out:
        notes.append(f"code path: {json.dumps(out['code_path'], sort_keys=True)}")
        notes.append(f"outcome: {json.dumps(out['outcome'], sort_keys=True)}")
    else:
        notes.append(f"code path: {json.dumps(out['server']['paths'], sort_keys=True)}")
        notes.append(f"service: {json.dumps(out['burst']['stats'], sort_keys=True)}, "
                     f"results sha256 {out['burst']['results_sha256']}")
    if trace:
        untraced = out["burst"]["wall_s"] if workload == "service_mix" \
            else sum(r["wall_s"] for r in out["reps"]) / len(out["reps"])
        overhead = spans.ratio(out["traced_wall_s"] - untraced, untraced)
        values, bases = report.per_layer(
            out["layers"], out["harvest"], setup, overhead,
            out.get("service_stats"))
        table = report.PER_LAYER
        notes.append(f"spans: {out['spans']} written to {out['spans_file']}; "
                     f"traced peak RSS {out['traced_peak_rss_mb']:.0f} MB")
        selfs = report.layer_self_s(out["layers"])
        notes.append("self time by layer: " + ", ".join(
            f"{layer} {selfs[layer]:.3f}s" for layer in sorted(
                selfs, key=selfs.get, reverse=True)))
    else:
        values, bases, failed_frac, host = end_to_end(workload, setup, out)
        table = report.END_TO_END
        notes.insert(0, f"failed_frac {failed_frac['value']:.6g} ratio "
                        f"({failed_frac['num']}/{failed_frac['den']})")
        notes.insert(1, host)
    print(report.render(title, values, table, bases, notes))
    result["metrics"] = report.as_metrics(values, table)
    return result, out


def main():
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Repository benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"perfbench: no package under {os.path.join(ROOT, 'src')}; "
              f"run from a checkout of the repository", file=sys.stderr)
        return 2
    ok = True
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result, out = run_workload(name, args.seed, args.seconds,
                                   args.trace)
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        record = os.path.join(
            ROOT, ".bench_out",
            f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(record, "w") as fh:
            json.dump({"result": result, "run": out}, fh, indent=1,
                      sort_keys=True)
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
