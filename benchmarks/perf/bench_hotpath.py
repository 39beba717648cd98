#!/usr/bin/env python
"""Hot-path events/sec microbenchmark against the recorded baseline.

Runs the :mod:`repro.profiling` workload suite on the benchmark grid,
compares it with ``BENCH_hotpath.json`` at the repository root, and (by
default) rewrites that file's ``current`` section and ``speedup`` table.

The committed JSON records two reference points:

* ``pre_pr_baseline`` -- events/sec measured on the tree immediately
  before the hot-path overhaul (interleaved A/B runs on one machine,
  median of three), together with the bit-exact *virtual* outcomes
  (event counts, simulated clock, collision totals) that any correct
  implementation must reproduce;
* ``current`` -- the most recent post-overhaul measurement.

Wall-clock and events/sec depend on the machine, so ``--check`` asserts
only the virtual outcomes (that is what CI's single-CPU perf-smoke job
verifies); speed ratios are informational unless ``--assert-speedup``
is given, which should only be used on the machine the baseline was
recorded on.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_hotpath.py
    PYTHONPATH=src python benchmarks/perf/bench_hotpath.py --check
    PYTHONPATH=src python benchmarks/perf/bench_hotpath.py \
        --assert-speedup 3.0 --phase saturation
"""

import argparse
import json
import os
import sys

BENCH_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..",
    "BENCH_hotpath.json",
)


def _phase_by_name(report):
    return {p["workload"]["name"]: p for p in report["phases"]}


def check_virtual_outcomes(bench, report):
    """Compare the run's virtual outcomes to the recorded baseline.

    Returns a list of mismatch strings (empty = deterministic).
    """
    problems = []
    current = _phase_by_name(report)
    for name, recorded in bench["pre_pr_baseline"]["phases"].items():
        phase = current.get(name)
        if phase is None:
            problems.append(f"{name}: phase missing from this run")
            continue
        if phase["events"] != recorded["events"]:
            problems.append(
                f"{name}: events {phase['events']} != recorded "
                f"{recorded['events']}"
            )
        if phase["sim_ms"] != recorded["sim_ms"]:
            problems.append(
                f"{name}: sim_ms {phase['sim_ms']!r} != recorded "
                f"{recorded['sim_ms']!r}"
            )
        for key, want in recorded.get("checks", {}).items():
            got = phase["checks"].get(key)
            if got != want:
                problems.append(
                    f"{name}: checks[{key}] {got!r} != recorded {want!r}"
                )
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-file", default=BENCH_PATH)
    parser.add_argument("--check", action="store_true",
                        help="verify virtual-outcome determinism only; "
                             "do not rewrite the bench file")
    parser.add_argument("--assert-speedup", type=float, default=None,
                        metavar="RATIO",
                        help="fail unless events/sec >= RATIO x the "
                             "recorded pre-PR baseline (same-machine "
                             "comparisons only)")
    parser.add_argument("--phase", default="saturation",
                        help="phase --assert-speedup applies to "
                             "(default saturation)")
    args = parser.parse_args(argv)

    from repro.profiling import run_profile

    with open(args.bench_file) as fh:
        bench = json.load(fh)

    rows, cols = bench["grid"]
    report = run_profile(rows=rows, cols=cols, seed=bench["seed"])

    problems = check_virtual_outcomes(bench, report)
    baseline_phases = bench["pre_pr_baseline"]["phases"]
    speedup = {}
    print(f"hot-path bench on a {rows}x{cols} grid (seed {bench['seed']})")
    for phase in report["phases"]:
        name = phase["workload"]["name"]
        eps = phase["events_per_sec"]
        base = baseline_phases.get(name, {}).get("events_per_sec")
        line = (f"  {name}: {phase['events']} events, "
                f"{phase['wall_s']:.2f} s, {eps:,.0f} ev/s")
        if base:
            speedup[name] = eps / base
            line += (f"  ({speedup[name]:.2f}x pre-PR baseline of "
                     f"{base:,.0f})")
        print(line)

    if problems:
        print("DETERMINISM MISMATCH against recorded baseline:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("  virtual outcomes: bit-identical to the recorded baseline")

    if args.assert_speedup is not None:
        got = speedup.get(args.phase)
        if got is None:
            print(f"no baseline for phase {args.phase!r}")
            return 1
        if got < args.assert_speedup:
            print(f"FAIL: {args.phase} speedup {got:.2f}x < "
                  f"{args.assert_speedup}x")
            return 1
        print(f"  speedup gate: {args.phase} {got:.2f}x >= "
              f"{args.assert_speedup}x")

    if not args.check:
        bench["current"] = {
            "phases": {p["workload"]["name"]: p for p in report["phases"]},
            "totals": report["totals"],
        }
        bench["speedup"] = speedup
        with open(args.bench_file, "w") as fh:
            json.dump(bench, fh, indent=2)
            fh.write("\n")
        print(f"  wrote {os.path.relpath(args.bench_file)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
