"""Command-line interface: ``python -m repro <command>``.

Eleven commands cover the common workflows:

* ``run``     -- disseminate an image over a grid and print the summary
                 metrics (any protocol);
* ``figure``  -- regenerate one of the paper's tables/figures by name and
                 print its textual rendering;
* ``compare`` -- run several protocols on identical channels and print
                 the Section 5-style comparison table;
* ``sweep``   -- replicate a run across seeds on a parallel, cached
                 worker fleet (see :mod:`repro.runner`) and print
                 per-seed metrics plus aggregates; ``--experiment
                 coding`` instead sweeps the coded protocol family
                 (mnp/coded_mnp/deluge/coded_deluge) across link-loss
                 rates and prints loss x protocol tables;
* ``chaos``   -- disseminate under injected faults (:mod:`repro.faults`)
                 across a protocol x fault-class matrix, with the
                 invariant watchdog attached; cached and parallel like
                 ``sweep``;
* ``adversary`` -- disseminate with the secure OTA pipeline armed while
                 an in-channel adversary forges advertisements, replays
                 stale manifests, tampers payloads, and swaps segments
                 (:mod:`repro.experiments.adversary`); exits 1 if any
                 node installs a tampered or rolled-back image;
* ``profile`` -- run the hot-path profiling workloads
                 (:mod:`repro.profiling`) and report events/sec,
                 wall-clock, and channel counters (text or JSON);
* ``conformance`` -- fuzz a budget of generated scenarios against the
                 oracle registry (:mod:`repro.conformance`), shrink any
                 failure to a minimal replayable spec, and exit 1 if a
                 violation survives;
* ``serve``   -- run the long-lived dissemination service
                 (:mod:`repro.service`): an HTTP/JSON control plane that
                 deduplicates submissions through the content-hash
                 cache, streams progress events, and drains gracefully
                 on SIGINT/SIGTERM;
* ``submit``  -- submit one run/scenario/sweep to a running service,
                 wait for it, and print the deterministic result;
* ``loadgen`` -- drive a seeded multi-client burst of duplicate/unique
                 jobs against a service (or a self-hosted one) and
                 report latency percentiles, throughput, and the
                 cache-hit ratio (conventionally ``BENCH_service.json``).

Examples::

    python -m repro run --grid 10x10 --segments 4 --protocol mnp
    python -m repro figure fig8
    python -m repro compare mnp deluge xnp --grid 8x8
    python -m repro sweep --seeds 0-9 --workers 4 --grid 6x6
    python -m repro sweep --experiment coding --seeds 0-2 --workers 4
    python -m repro chaos --protocols mnp,deluge --intensity 0.6 --workers 4
    python -m repro adversary --attacks tamper,forge --intensity 0.8
    python -m repro profile --grid 20x20 --json
    python -m repro conformance --budget 50 --seed 7 --workers 4
    python -m repro serve --port 8750 --workers 2
    python -m repro submit --url 127.0.0.1:8750 --experiment probe --seed 3
    python -m repro submit --url 127.0.0.1:8750 --seeds 0-4
    python -m repro loadgen --clients 8 --jobs 32 --seed 7 \
        --output BENCH_service.json
"""

import argparse
import collections
import sys

from repro.core.segments import MAX_SEGMENT_PACKETS
from repro.experiments.adversary import ADVERSARY_CLASSES
from repro.experiments.chaos import FAULT_CLASSES
from repro.radio.propagation import FULL_POWER, MIN_POWER
from repro.sim.kernel import MINUTE


def _parse_grid(text):
    try:
        rows, cols = text.lower().split("x")
        rows, cols = int(rows), int(cols)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must look like '10x10', got {text!r}"
        ) from None
    if rows < 1 or cols < 1:
        raise argparse.ArgumentTypeError("grid dimensions must be positive")
    return rows, cols


def _parse_seeds(text):
    """Seed lists: '0-9', '1,2,5', or a mix ('0-3,7')."""
    seeds = []
    try:
        for part in text.split(","):
            part = part.strip()
            if "-" in part.lstrip("-")[1:] or (part.count("-") and
                                               not part.startswith("-")):
                lo, hi = part.split("-")
                lo, hi = int(lo), int(hi)
                if hi < lo:
                    raise ValueError
                seeds.extend(range(lo, hi + 1))
            else:
                seeds.append(int(part))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seeds must look like '0-9' or '1,2,5', got {text!r}"
        ) from None
    if not seeds:
        raise argparse.ArgumentTypeError("empty seed list")
    return seeds


def _parse_loss(text):
    """Loss-percentage lists: '0,10,30' (integers in [0, 99])."""
    try:
        pcts = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"loss must look like '0,10,30', got {text!r}"
        ) from None
    if not pcts or any(p < 0 or p > 99 for p in pcts):
        raise argparse.ArgumentTypeError(
            "loss percentages must be integers in [0, 99]")
    return pcts


def _names(text, default):
    """A comma-list flag's items; ``default`` when the flag was omitted."""
    if text is None:
        return list(default)
    return [name.strip() for name in text.split(",") if name.strip()]


def _bad_names(names, what, known):
    """The complaint about a list of ``what`` names, or None if sound."""
    if not names:
        return f"empty {what} list"
    unknown = [name for name in names if name not in known]
    if unknown:
        return (f"unknown {what}(s) {', '.join(unknown)}; "
                f"known: {', '.join(known)}")
    return None


def _bad_protocols(protocols):
    from repro.experiments.common import PROTOCOLS

    return _bad_names(protocols, "protocol", sorted(PROTOCOLS))


def _at_least(low):
    return (lambda value: value >= low), f">= {low}"


def _within(low, high):
    return (lambda value: low <= value <= high), f"in [{low}, {high}]"


_POSITIVE = (lambda value: value > 0), "> 0"

#: The bounds of every numeric flag: (name in the complaint, argparse
#: dest) -> (test its value must pass, what the value must be).  A flag
#: left at None (its command's own default) is not checked.
_NUMBER_BOUNDS = {
    ("--segments", "segments"): _at_least(1),
    ("--segment-packets", "segment_packets"):
        _within(1, MAX_SEGMENT_PACKETS),
    ("--power", "power"): _within(MIN_POWER, FULL_POWER),
    ("--range", "range_ft"): _POSITIVE,
    ("--spacing", "spacing"): _POSITIVE,
    ("--deadline-min", "deadline_min"): _POSITIVE,
    ("--frames", "frames"): _at_least(1),
    ("--workers", "workers"): _at_least(0),  # runner: 0 = serial
    ("--workers", "service_workers"): _at_least(1),  # serve, loadgen
    ("--queue", "queue"): _at_least(1),
    ("--clients", "clients"): _at_least(1),
    ("--jobs", "jobs"): _at_least(1),
    ("--timeout-s", "timeout_s"): _POSITIVE,
    ("--budget", "budget"): _at_least(1),
    ("intensity", "intensity"): _within(0, 1),
    ("--fault-fraction", "fault_fraction"): _within(0, 1),
    ("--security-fraction", "security_fraction"): _within(0, 1),
    ("--duplicate-fraction", "duplicate_fraction"): _within(0, 1),
}


def _bad_number(args):
    """The complaint about the first numeric flag out of bounds, or None."""
    for (name, dest), (ok, bound) in _NUMBER_BOUNDS.items():
        value = getattr(args, dest, None)
        if value is not None and not ok(value):
            return f"{name} must be {bound}, got {value}"
    return None


def _usage_error(command, message):
    """Report bad input in one stderr line; returns exit code 2."""
    sys.stderr.write(f"repro {command}: error: {message}\n")
    return 2


def _add_runner_args(parser):
    """The worker-fleet and cache flags of every runner-backed command."""
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes; 0/1 = serial (default 0)")
    parser.add_argument("--cache-dir", default="benchmarks/cache",
                        help="manifest directory (default benchmarks/cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="always re-simulate; write nothing")


def _watchdog_cell(verdict):
    """A run's watchdog verdict as one table cell."""
    if verdict["violations"]:
        return f"VIOLATED({len(verdict['violations'])})"
    if verdict["stalls"]:
        return f"stalled({len(verdict['stalls'])})"
    return "ok"


def _chaos_cells(m):
    warnings = m["watchdog"]["warnings"]
    return [
        "-" if m["completion_s"] is None else f"{m['completion_s']:.1f}",
        m["fails"], m["corrupt_images"], m["messages_sent"],
        _watchdog_cell(m["watchdog"])
        + (f" +{len(warnings)}w" if warnings else ""),
    ]


def _adversary_cells(m):
    return [
        m["installs"]["installed"], m["installs"]["rejected"],
        m["auth_rejects"], m["quarantines"], m["tampered_installs"],
        _watchdog_cell(m["watchdog"]),
    ]


#: What one faulted-run matrix command (protocol x fault or attack class)
#: declares: everything in which ``chaos`` and ``adversary`` differ.  One
#: parser builder and one body (:func:`_cmd_fault_matrix`) serve both.
_FaultMatrix = collections.namedtuple("_FaultMatrix", (
    "help",          # subcommand help
    "protocols",     # --protocols default
    "classes_flag",  # the class-list flag
    "noun",          # "<noun> class(es)", "<noun> intensity", <noun>_class
    "known",         # the known classes (the class flag's default: all)
    "extra_flags",   # ((flag, add_argument kwargs), ...) after --intensity
    "spec_fields",   # args -> extra run-spec fields, also in the JSON header
    "title",         # args -> what the table title starts with
    "columns",       # table columns after protocol, class and coverage
    "cells",         # metrics -> the cells of those columns
    "notes",         # printed under the table
    "breached",      # what a run with watchdog violations breached
))

_FAULT_MATRICES = {
    "chaos": _FaultMatrix(
        help="disseminate under injected faults, with invariant watchdog",
        protocols="mnp,deluge",
        classes_flag="--fault-classes",
        noun="fault",
        known=FAULT_CLASSES,
        extra_flags=(),
        spec_fields=lambda args: {},
        title=lambda args: "Chaos",
        columns=("completion_s", "fails", "corrupt", "messages", "watchdog"),
        cells=_chaos_cells,
        notes=(
            "  coverage/completion are over *surviving* nodes; 'w' counts\n"
            "  advisory warnings (concurrent senders) that do not fail a "
            "run\n"
        ),
        breached="protocol invariants",
    ),
    "adversary": _FaultMatrix(
        help="disseminate under attack with the secure OTA pipeline armed",
        protocols="mnp,coded_mnp",
        classes_flag="--attacks",
        noun="attack",
        known=ADVERSARY_CLASSES,
        extra_flags=(("--insecure", dict(
            action="store_true",
            help="disarm the secure pipeline (demonstrates what the "
                 "attacks do to a stock network)")),),
        spec_fields=lambda args: {"secured": not args.insecure},
        title=lambda args:
            f"Adversary ({'insecure' if args.insecure else 'secured'})",
        columns=("installed", "refused", "auth_rej", "quarant", "tampered",
                 "watchdog"),
        cells=_adversary_cells,
        notes=(
            "  auth_rej counts refused advertisements; quarant counts\n"
            "  discarded-and-re-requested segments; tampered counts "
            "installs\n"
            "  of images that were not the authentic one (must be 0)\n"
        ),
        breached="install/protocol invariants",
    ),
}


def _add_fault_matrix_parser(sub, name, matrix):
    parser = sub.add_parser(name, help=matrix.help)
    parser.add_argument(
        "--protocols", default=matrix.protocols,
        help=f"comma list of protocols (default {matrix.protocols})")
    parser.add_argument(
        matrix.classes_flag, default=None, dest="classes",
        metavar=matrix.classes_flag[2:].replace("-", "_").upper(),
        help=f"comma list of {matrix.noun} classes "
             f"(default: all of {','.join(matrix.known)})")
    parser.add_argument(
        "--intensity", type=float, default=0.5,
        help=f"{matrix.noun} intensity in [0,1] (default 0.5)")
    for flag, kwargs in matrix.extra_flags:
        parser.add_argument(flag, **kwargs)
    parser.add_argument("--grid", type=_parse_grid, default=(6, 6),
                        metavar="RxC", help="grid shape (default 6x6)")
    parser.add_argument("--segments", type=int, default=2,
                        help="program size in segments (default 2)")
    parser.add_argument("--segment-packets", type=int, default=32,
                        help="packets per segment (default 32)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--deadline-min", type=float, default=240.0,
                        help="simulated deadline in minutes (default 240)")
    _add_runner_args(parser)
    parser.add_argument("--json", action="store_true",
                        help="emit the full matrix as JSON")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress/heartbeat lines")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MNP (ICDCS 2005) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one dissemination")
    run_p.add_argument("--grid", type=_parse_grid, default=(10, 10),
                       metavar="RxC", help="grid shape (default 10x10)")
    run_p.add_argument("--spacing", type=float, default=10.0,
                       help="inter-node spacing in feet (default 10)")
    run_p.add_argument("--segments", type=int, default=2,
                       help="program size in segments (default 2)")
    run_p.add_argument("--segment-packets", type=int, default=64,
                       help="packets per segment (default 64)")
    run_p.add_argument("--protocol", default="mnp",
                       help="mnp, deluge, moap, xnp, or flood")
    run_p.add_argument("--power", type=int, default=255,
                       help="TinyOS power level 1..255 (default 255)")
    run_p.add_argument("--range", type=float, default=25.0, dest="range_ft",
                       help="full-power radio range in feet (default 25)")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--deadline-min", type=float, default=240.0,
                       help="simulated deadline in minutes (default 240)")
    run_p.add_argument("--query-update", action="store_true",
                       help="enable the query/update repair phase "
                            "(mnp and coded_mnp only)")
    run_p.add_argument("--json", action="store_true",
                       help="emit the summary as JSON instead of text")

    fig_p = sub.add_parser("figure",
                           help="regenerate a table/figure of the paper")
    fig_p.add_argument("name", help="e.g. table1, fig5..fig13, sec5, "
                                    "ablations (or 'list')")
    fig_p.add_argument("--seed", type=int, default=None,
                       help="default: the seed benchmarks/out records "
                            "(0 for table1, else 1)")

    cmp_p = sub.add_parser("compare",
                           help="run protocols on identical channels")
    cmp_p.add_argument("protocols", nargs="+",
                       help="two or more of: mnp deluge moap xnp flood")
    cmp_p.add_argument("--grid", type=_parse_grid, default=(8, 8),
                       metavar="RxC")
    cmp_p.add_argument("--segments", type=int, default=2)
    cmp_p.add_argument("--seed", type=int, default=0)

    swp_p = sub.add_parser(
        "sweep",
        help="replicate runs across seeds on a parallel, cached fleet")
    swp_p.add_argument("--experiment", default="grid",
                       choices=("grid", "coding"),
                       help="grid: seed replication of one protocol; "
                            "coding: coded-vs-stock loss sweep "
                            "(default grid)")
    swp_p.add_argument("--protocol", default=None,
                       help="grid: mnp, deluge, moap, xnp, or flood")
    swp_p.add_argument("--protocols", default=None, metavar="LIST",
                       help="coding: comma list of protocols (default "
                            "mnp,coded_mnp,deluge,coded_deluge)")
    swp_p.add_argument("--loss", type=_parse_loss, default=None,
                       metavar="LIST",
                       help="coding: comma list of data-frame loss "
                            "percentages (default 0,10,20,30,40,50)")
    swp_p.add_argument("--seeds", type=_parse_seeds, default=list(range(5)),
                       metavar="SPEC",
                       help="e.g. '0-9' or '1,2,5' (default 0-4)")
    swp_p.add_argument("--scale", default=None,
                       choices=("smoke", "default", "paper"),
                       help="smoke, default, or paper (default: REPRO_SCALE)")
    swp_p.add_argument("--grid", type=_parse_grid, default=None,
                       metavar="RxC", help="override the scale's grid")
    swp_p.add_argument("--segments", type=int, default=None,
                       help="override the scale's segment count")
    swp_p.add_argument("--segment-packets", type=int, default=None,
                       help="override the scale's packets per segment")
    _add_runner_args(swp_p)
    swp_p.add_argument("--require-cached", action="store_true",
                       help="fail (exit 3) if any spec misses the cache")
    swp_p.add_argument("--json", action="store_true",
                       help="emit per-seed metrics as JSON")
    swp_p.add_argument("--quiet", action="store_true",
                       help="suppress progress/heartbeat lines")

    for name, matrix in _FAULT_MATRICES.items():
        _add_fault_matrix_parser(sub, name, matrix)

    prof_p = sub.add_parser(
        "profile",
        help="profile hot-path events/sec "
             "(saturation + dissemination; megagrid for 100x100)")
    prof_p.add_argument("--grid", type=_parse_grid, default=None,
                        metavar="RxC",
                        help="grid shape (default: per workload -- 20x20, "
                             "megagrid 100x100)")
    prof_p.add_argument("--seed", type=int, default=0)
    prof_p.add_argument("--workloads", "--workload", dest="workloads",
                        default="saturation,dissemination",
                        help="comma list of workloads (default "
                             "saturation,dissemination; also: megagrid)")
    prof_p.add_argument("--frames", type=int, default=None,
                        help="saturation: frames per node (default 96)")
    prof_p.add_argument("--range", type=float, default=None, dest="range_ft",
                        help="radio range in feet (default 13)")
    prof_p.add_argument("--segment-packets", type=int, default=None,
                        help="dissemination: packets per segment "
                             "(default 32)")
    prof_p.add_argument("--json", action="store_true",
                        help="emit the full report as JSON")
    prof_p.add_argument("--output", default=None, metavar="PATH",
                        help="also write the JSON report to PATH")

    conf_p = sub.add_parser(
        "conformance",
        help="fuzz generated scenarios against the oracle registry")
    conf_p.add_argument("--budget", type=int, default=50,
                        help="number of scenarios to generate (default 50)")
    conf_p.add_argument("--seed", type=int, default=0,
                        help="generator master seed (default 0)")
    conf_p.add_argument("--fault-fraction", type=float, default=0.3,
                        help="fraction of scenarios with fault plans "
                             "(default 0.3)")
    conf_p.add_argument("--security-fraction", type=float, default=0.0,
                        help="fraction of scenarios run with the secure "
                             "OTA pipeline enabled, each fanning out an "
                             "adversarial twin (default 0.0)")
    _add_runner_args(conf_p)
    conf_p.add_argument("--no-shrink", action="store_true",
                        help="report failures without minimising them")
    conf_p.add_argument("--artifact-dir", default="tests/corpus/failures",
                        metavar="DIR",
                        help="where shrunk failure artifacts are written "
                             "(default tests/corpus/failures)")
    conf_p.add_argument("--json", action="store_true",
                        help="emit the full verdict manifest as JSON")
    conf_p.add_argument("--output", default=None, metavar="PATH",
                        help="also write the verdict JSON to PATH")
    conf_p.add_argument("--quiet", action="store_true",
                        help="suppress progress/heartbeat lines")

    srv_p = sub.add_parser(
        "serve",
        help="run the long-lived dissemination service (HTTP/JSON)")
    srv_p.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    srv_p.add_argument("--port", type=int, default=8750,
                       help="bind port; 0 = ephemeral (default 8750)")
    srv_p.add_argument("--workers", type=int, default=None,
                       dest="service_workers",
                       help="concurrent job executions "
                            "(default: REPRO_SERVICE_WORKERS or 2)")
    srv_p.add_argument("--queue", type=int, default=None,
                       help="admission queue depth before 503s "
                            "(default: REPRO_SERVICE_QUEUE or 256)")
    srv_p.add_argument("--timeout-s", type=float, default=None,
                       dest="timeout_s",
                       help="per-job wall-clock bound in seconds "
                            "(default: REPRO_SERVICE_TIMEOUT_S or none)")
    srv_p.add_argument("--cache-dir", default="benchmarks/cache",
                       help="manifest directory shared with sweep/chaos "
                            "(default benchmarks/cache)")
    srv_p.add_argument("--no-cache", action="store_true",
                       help="disable the disk cache (dedup still applies)")
    srv_p.add_argument("--quiet", action="store_true",
                       help="suppress per-job progress lines")

    sbm_p = sub.add_parser(
        "submit",
        help="submit one job to a running service and await the result")
    sbm_p.add_argument("--url", default="127.0.0.1:8750",
                       help="service address (default 127.0.0.1:8750)")
    sbm_p.add_argument("--experiment", default="probe",
                       help="registered experiment name (default probe)")
    sbm_p.add_argument("--protocol", default="mnp",
                       help="protocol under test (default mnp)")
    sbm_p.add_argument("--scale", default="smoke",
                       choices=("smoke", "default", "paper"),
                       help="scale preset (default smoke)")
    sbm_p.add_argument("--seed", type=int, default=0)
    sbm_p.add_argument("--seeds", type=_parse_seeds, default=None,
                       metavar="SPEC",
                       help="submit a sweep campaign over these seeds "
                            "instead of one run (e.g. '0-4')")
    sbm_p.add_argument("--spec-json", default=None, metavar="JSON",
                       dest="spec_json",
                       help="raw spec object; overrides the flags above")
    sbm_p.add_argument("--kind", default="run",
                       choices=("run", "scenario", "sweep"),
                       help="submission kind (default run; --seeds "
                            "implies sweep)")
    sbm_p.add_argument("--timeout-s", type=float, default=300.0,
                       dest="timeout_s",
                       help="seconds to wait for the result (default 300)")
    sbm_p.add_argument("--no-wait", action="store_true",
                       help="print the job key and return immediately")

    ldg_p = sub.add_parser(
        "loadgen",
        help="seeded multi-client burst against a service; "
             "records BENCH_service.json-style metrics")
    ldg_p.add_argument("--url", default=None,
                       help="target service; omitted = self-host one "
                            "in-process for the burst")
    ldg_p.add_argument("--clients", type=int, default=8,
                       help="concurrent clients (default 8)")
    ldg_p.add_argument("--jobs", type=int, default=32,
                       help="total submissions across clients (default 32)")
    ldg_p.add_argument("--duplicate-fraction", type=float, default=0.5,
                       dest="duplicate_fraction",
                       help="fraction of submissions duplicating an "
                            "earlier payload (default 0.5)")
    ldg_p.add_argument("--seed", type=int, default=0,
                       help="payload-mix seed; same seed = same burst")
    ldg_p.add_argument("--experiment", default="probe",
                       help="experiment per job (default probe)")
    ldg_p.add_argument("--protocol", default="mnp",
                       help="protocol per job (default mnp)")
    ldg_p.add_argument("--workers", type=int, default=None,
                       dest="service_workers",
                       help="self-hosted service worker count")
    ldg_p.add_argument("--cache-dir", default=None,
                       help="self-hosted service manifest directory "
                            "(default: no disk cache)")
    ldg_p.add_argument("--timeout-s", type=float, default=120.0,
                       dest="timeout_s",
                       help="per-job client wait bound (default 120)")
    ldg_p.add_argument("--output", default=None, metavar="PATH",
                       help="also write the JSON report to PATH")
    ldg_p.add_argument("--json", action="store_true",
                       help="emit the report as JSON instead of text")
    ldg_p.add_argument("--quiet", action="store_true",
                       help="suppress service progress lines")
    return parser


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _cmd_run(args, out):
    from repro.core.config import MNPConfig
    from repro.experiments.common import MNP_FAMILY, grid_deployment
    from repro.hardware.mote import MoteConfig

    problem = _bad_protocols([args.protocol])
    if problem:
        return _usage_error("run", problem)
    mnp_family = args.protocol in MNP_FAMILY
    if args.query_update and not mnp_family:
        return _usage_error(
            "run", f"--query-update applies only to {', '.join(MNP_FAMILY)}")
    rows, cols = args.grid
    config = MNPConfig(query_update=args.query_update) if mnp_family \
        else None
    dep = grid_deployment(
        rows, cols, args.protocol, args.segments, args.segment_packets,
        args.seed, config, spacing_ft=args.spacing, range_ft=args.range_ft,
        mote_config=MoteConfig(power_level=args.power),
    )
    image = dep.image
    result = dep.run_to_completion(deadline_ms=args.deadline_min * MINUTE)
    if args.json:
        import json

        summary = result.to_dict()
        summary["protocol"] = args.protocol
        summary["seed"] = args.seed
        summary["image_bytes"] = image.size_bytes
        out.write(json.dumps(summary, indent=2) + "\n")
        return 0 if result.coverage == 1.0 else 1
    out.write(
        f"{args.protocol} on {rows}x{cols} grid, "
        f"{image.size_bytes} B image (seed {args.seed})\n"
    )
    out.write(f"  coverage:          {result.coverage:.0%}\n")
    if result.completion_time_ms is not None:
        out.write(f"  completion:        "
                  f"{result.completion_time_ms / MINUTE:.1f} min\n")
    else:
        out.write("  completion:        did not complete before deadline\n")
    out.write(f"  avg active radio:  "
              f"{result.average_active_radio_s():.0f} s\n")
    out.write(f"  messages sent:     {result.messages}\n")
    out.write(f"  collisions:        {result.collisions}\n")
    out.write(f"  mean energy:       "
              f"{result.mean_energy_nah / 1000:.1f} uAh\n")
    out.write(f"  images intact:     {result.images_intact(image)}\n")
    return 0 if result.coverage == 1.0 else 1


def _progress(args):
    """Progress/heartbeat lines to stderr, unless ``--quiet``."""
    if args.quiet:
        return None
    return lambda line: print(line, file=sys.stderr, flush=True)


def _fleet_runner(args):
    from repro.runner import Runner

    return Runner(
        workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
        progress=_progress(args),
    )


def _cmd_sweep_coding(args, protocols, out):
    from repro.experiments.coding import LOSS_PCTS
    from repro.experiments.scale import current_scale, get_scale
    from repro.metrics.reports import format_table
    from repro.runner import RunSpec

    scale = get_scale(args.scale) if args.scale else current_scale()
    loss_pcts = args.loss if args.loss else list(LOSS_PCTS)
    rows, cols = args.grid if args.grid else (None, None)
    specs = [
        RunSpec(
            "coding", protocol=protocol, scale=scale.name, seed=seed,
            loss_pct=loss_pct, rows=rows, cols=cols,
            n_segments=args.segments, segment_packets=args.segment_packets,
        )
        for protocol in protocols
        for loss_pct in loss_pcts
        for seed in args.seeds
    ]
    runner = _fleet_runner(args)
    if args.require_cached:
        missing = [s for s in specs if runner.load_cached(s) is None]
        if missing:
            out.write(
                f"{len(missing)}/{len(specs)} spec(s) not cached "
                f"(first: {missing[0].label()})\n"
            )
            return 3
    results = runner.run(specs)
    cells = {}
    for spec, metrics in zip(specs, results):
        cell = (spec.protocol, spec.overrides["loss_pct"])
        cells.setdefault(cell, []).append(metrics)

    def _mean(cell, key):
        values = [m[key] for m in cells[cell] if m.get(key) is not None]
        return sum(values) / len(values) if values else None

    if args.json:
        import json

        payload = {
            "experiment": "coding",
            "protocols": protocols,
            "loss_pcts": loss_pcts,
            "seeds": args.seeds,
            "cache": {"hits": runner.stats.hits,
                      "misses": runner.stats.misses},
            "elapsed_s": runner.stats.elapsed_s,
            "runs": [
                {"protocol": spec.protocol,
                 "loss_pct": spec.overrides["loss_pct"],
                 "seed": spec.seed, "key": spec.cache_key(),
                 "metrics": metrics}
                for spec, metrics in zip(specs, results)
            ],
        }
        out.write(json.dumps(payload, indent=2) + "\n")
        return 0
    for key, title in (("messages_sent", "mean messages sent"),
                       ("mean_energy_nah", "mean energy (nAh/node)")):
        table_rows = []
        for loss_pct in loss_pcts:
            row = [f"{loss_pct}%"]
            for protocol in protocols:
                value = _mean((protocol, loss_pct), key)
                row.append("-" if value is None else f"{value:.0f}")
            table_rows.append(row)
        out.write(format_table(
            ["loss"] + protocols, table_rows,
            title=(f"Coding sweep ({title}): "
                   f"{len(args.seeds)} seed(s) per cell"),
        ) + "\n")
    incomplete = sum(
        1 for m in results if m.get("coverage", 0.0) < 1.0
    )
    if incomplete:
        out.write(f"  WARNING: {incomplete} run(s) did not reach "
                  f"full coverage before the deadline\n")
    out.write(
        f"  cache: {runner.stats.hits} hit(s), "
        f"{runner.stats.misses} miss(es) "
        f"({runner.stats.elapsed_s:.1f}s total)\n"
    )
    return 0


#: ``sweep`` flags that belong to one ``--experiment`` dialect only.
_SWEEP_DIALECT_FLAGS = {"grid": ("protocol",), "coding": ("protocols", "loss")}


def _cmd_sweep(args, out):
    from repro.experiments.coding import CODING_PROTOCOLS
    from repro.experiments.replication import MetricStats
    from repro.experiments.scale import current_scale, get_scale
    from repro.metrics.reports import format_table
    from repro.runner import RunSpec

    for experiment, dests in _SWEEP_DIALECT_FLAGS.items():
        for dest in dests:
            if experiment != args.experiment \
                    and getattr(args, dest) is not None:
                return _usage_error(
                    "sweep",
                    f"--{dest} applies only to --experiment {experiment}")
    if args.experiment == "coding":
        protocols = _names(args.protocols, CODING_PROTOCOLS)
    else:
        protocols = [args.protocol or "mnp"]
    problem = _bad_protocols(protocols)
    if problem:
        return _usage_error("sweep", problem)
    if args.experiment == "coding":
        return _cmd_sweep_coding(args, protocols, out)
    (protocol,) = protocols
    scale = get_scale(args.scale) if args.scale else current_scale()
    rows, cols = args.grid if args.grid else (None, None)
    specs = [
        RunSpec(
            "grid", protocol=protocol, scale=scale.name, seed=seed,
            rows=rows, cols=cols, n_segments=args.segments,
            segment_packets=args.segment_packets,
        )
        for seed in args.seeds
    ]
    runner = _fleet_runner(args)
    if args.require_cached:
        missing = [s for s in specs if runner.load_cached(s) is None]
        if missing:
            out.write(
                f"{len(missing)}/{len(specs)} spec(s) not cached "
                f"(first: {missing[0].label()})\n"
            )
            return 3
    results = runner.run(specs)
    metric_keys = ("coverage", "completion_s", "art_s", "collisions",
                   "messages_sent", "mean_energy_nah")
    if args.json:
        import json

        payload = {
            "protocol": protocol,
            "scale": scale.name,
            "cache": {"hits": runner.stats.hits,
                      "misses": runner.stats.misses},
            "elapsed_s": runner.stats.elapsed_s,
            "runs": [
                {"seed": spec.seed, "key": spec.cache_key(),
                 "metrics": metrics}
                for spec, metrics in zip(specs, results)
            ],
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        def _cell(value):
            if value is None:
                return "-"
            return f"{value:.1f}" if isinstance(value, float) else value

        table_rows = [
            [spec.seed] + [_cell(metrics.get(k)) for k in metric_keys]
            for spec, metrics in zip(specs, results)
        ]
        out.write(format_table(
            ["seed"] + list(metric_keys), table_rows,
            title=(f"Sweep: {protocol} at scale={scale.name}, "
                   f"{len(specs)} seed(s), {args.workers} worker(s)"),
        ) + "\n")
        for key in ("completion_s", "art_s", "collisions"):
            stats = MetricStats(key, [m.get(key) for m in results])
            if stats.mean is not None:
                out.write(f"  {key}: mean {stats.mean:.1f} "
                          f"+/- {stats.stdev:.1f} "
                          f"[{stats.min:.1f}, {stats.max:.1f}]\n")
        out.write(
            f"  cache: {runner.stats.hits} hit(s), "
            f"{runner.stats.misses} miss(es) "
            f"({runner.stats.elapsed_s:.1f}s total)\n"
        )
    return 0


def _cmd_fault_matrix(args, out):
    """``chaos`` and ``adversary``: one run per protocol x class, as
    declared in :data:`_FAULT_MATRICES`."""
    from repro.metrics.reports import format_table
    from repro.runner import RunSpec

    command = args.command
    matrix = _FAULT_MATRICES[command]
    protocols = _names(args.protocols, ())
    classes = _names(args.classes, matrix.known)
    problem = (
        _bad_protocols(protocols)
        or _bad_names(classes, f"{matrix.noun} class", matrix.known)
    )
    if problem:
        return _usage_error(command, problem)
    rows, cols = args.grid
    class_key = f"{matrix.noun}_class"
    fields = matrix.spec_fields(args)
    specs = [
        RunSpec(
            command, protocol=protocol, seed=args.seed,
            intensity=args.intensity, rows=rows, cols=cols,
            n_segments=args.segments, segment_packets=args.segment_packets,
            deadline_min=args.deadline_min, **{class_key: name}, **fields,
        )
        for protocol in protocols
        for name in classes
    ]
    results = _fleet_runner(args).run(specs)
    # The exit code answers one question: did a run breach an invariant
    # (for adversary runs: install a tampered or rolled-back image)?  A
    # fault or an attack that merely costs time is an outcome.
    violating = sum(
        1 for m in results if m["watchdog"]["violations"]
    )
    if args.json:
        import json

        payload = {
            "intensity": args.intensity,
            **fields,
            "grid": f"{rows}x{cols}",
            "seed": args.seed,
            "runs": [
                {"protocol": spec.protocol,
                 class_key: spec.overrides[class_key],
                 "key": spec.cache_key(),
                 "metrics": metrics}
                for spec, metrics in zip(specs, results)
            ],
        }
        out.write(json.dumps(payload, indent=2) + "\n")
        return 1 if violating else 0
    table_rows = [
        [spec.protocol, spec.overrides[class_key],
         f"{m['survivor_coverage']:.0%}"] + matrix.cells(m)
        for spec, m in zip(specs, results)
    ]
    out.write(format_table(
        ["protocol", matrix.noun, "coverage"] + list(matrix.columns),
        table_rows,
        title=(f"{matrix.title(args)}: {rows}x{cols} grid, intensity "
               f"{args.intensity}, seed {args.seed}"),
    ) + "\n")
    out.write(matrix.notes)
    if violating:
        out.write(f"  {violating} run(s) breached {matrix.breached}\n")
    return 1 if violating else 0


def _cmd_profile(args, out):
    import json

    from repro.profiling import (WORKLOADS, UnusedOverride, render_profile,
                                 run_profile)

    rows, cols = args.grid if args.grid else (None, None)
    workloads = tuple(
        name.strip() for name in args.workloads.split(",") if name.strip()
    )
    unknown = [name for name in workloads if name not in WORKLOADS]
    if unknown or not workloads:
        return _usage_error(
            "profile", f"unknown workload(s) "
            f"{', '.join(unknown) or '(none given)'}; "
            f"known: {', '.join(sorted(WORKLOADS))}")
    flags = (("--frames", "frames_per_node", args.frames),
             ("--range", "range_ft", args.range_ft),
             ("--segment-packets", "segment_packets", args.segment_packets))
    overrides = {key: value for _, key, value in flags if value is not None}
    try:
        report = run_profile(workloads=workloads, rows=rows, cols=cols,
                             seed=args.seed, **overrides)
    except UnusedOverride as exc:
        flag = next(flag for flag, key, _ in flags if key == exc.key)
        return _usage_error("profile", f"{flag} applies only to "
                            f"--workloads {', '.join(exc.takers)}")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    if args.json:
        out.write(json.dumps(report, indent=2) + "\n")
    else:
        out.write(render_profile(report) + "\n")
    return 0


def _cmd_conformance(args, out):
    import json

    from repro.conformance.harness import run_conformance, verdict_json

    verdict = run_conformance(
        budget=args.budget, seed=args.seed,
        fault_fraction=args.fault_fraction,
        security_fraction=args.security_fraction,
        workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
        progress=_progress(args),
        do_shrink=not args.no_shrink,
        artifact_dir=None if args.no_shrink else args.artifact_dir,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(verdict_json(verdict))
    if args.json:
        out.write(verdict_json(verdict))
        return 0 if verdict["ok"] else 1
    n = len(verdict["scenarios"])
    ok = sum(1 for s in verdict["scenarios"] if s["ok"])
    out.write(
        f"conformance: {ok}/{n} scenario(s) clean "
        f"({verdict['total_runs']} runs, seed {args.seed})\n"
    )
    for failure in verdict["failures"]:
        out.write(
            f"\nFAIL scenario {failure['index']} ({failure['key']}):\n"
        )
        for violation in failure["violations"]:
            out.write(
                f"  {violation['oracle']}: {violation['detail']}\n")
        shrunk = failure.get("shrunk")
        if shrunk:
            out.write(
                f"  shrunk after {shrunk['shrink_evals']} evaluation(s) "
                f"to:\n")
            out.write("  " + json.dumps(
                shrunk["spec"], indent=2, sort_keys=True,
            ).replace("\n", "\n  ") + "\n")
        for path in failure.get("artifacts", ()):
            out.write(f"  artifact: {path}\n")
    if verdict["ok"]:
        out.write("all oracles satisfied\n")
    return 0 if verdict["ok"] else 1


def _cmd_serve(args, out):
    import asyncio
    import signal

    from repro.service import Service

    async def _serve():
        try:
            service = Service(
                workers=args.service_workers,
                cache_dir=None if args.no_cache else args.cache_dir,
                queue_limit=args.queue,
                job_timeout_s=args.timeout_s,
                progress=_progress(args),
            )
        except ValueError as exc:  # a bad REPRO_SERVICE_* setting
            return _usage_error("serve", exc)
        host, port = await service.start(host=args.host, port=args.port)
        out.write(f"serving on http://{host}:{port}\n")
        out.flush()
        loop = asyncio.get_running_loop()
        stopping = []

        def _request_stop():
            if not stopping:        # second signal: already draining
                stopping.append(True)
                loop.create_task(service.stop(drain=True))

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, _request_stop)
            except (NotImplementedError, RuntimeError):
                pass
        await service.serve_forever()
        return 0

    return asyncio.run(_serve())


def _cmd_submit(args, out):
    import asyncio
    import json

    from repro.service.client import ServiceClient, ServiceError

    if args.spec_json:
        try:
            spec = json.loads(args.spec_json)
        except ValueError as exc:
            sys.stderr.write(f"repro submit: error: bad --spec-json: "
                             f"{exc}\n")
            return 2
    else:
        spec = {"experiment": args.experiment, "protocol": args.protocol,
                "scale": args.scale, "seed": args.seed}
    kind = args.kind
    if args.seeds is not None:
        kind = "sweep"
        spec.pop("seed", None)
        spec["seeds"] = args.seeds

    async def _go():
        client = ServiceClient.from_url(args.url)
        try:
            submitted = await client.submit(spec, kind=kind)
            if args.no_wait:
                out.write(json.dumps(submitted, indent=2, sort_keys=True)
                          + "\n")
                return 0
            record = await client.wait(submitted["job"],
                                       timeout_s=args.timeout_s)
            if record["status"] != "done":
                out.write(json.dumps(record, indent=2, sort_keys=True)
                          + "\n")
                return 1
            result = await client.result(submitted["job"])
            out.write(json.dumps(result, indent=2, sort_keys=True) + "\n")
            return 0
        finally:
            await client.close()

    try:
        return asyncio.run(_go())
    except (ServiceError, ConnectionError, OSError, TimeoutError) as exc:
        sys.stderr.write(f"repro submit: error: {exc}\n")
        return 1


def _cmd_loadgen(args, out):
    import asyncio
    import json

    from repro.service.loadgen import render_report, run_loadgen

    try:
        report = asyncio.run(run_loadgen(
            url=args.url,
            clients=args.clients,
            jobs=args.jobs,
            duplicate_fraction=args.duplicate_fraction,
            seed=args.seed,
            workers=args.service_workers,
            cache_dir=args.cache_dir,
            experiment=args.experiment,
            protocol=args.protocol,
            job_timeout_s=args.timeout_s,
            progress=_progress(args),
        ))
    except ValueError as exc:  # a self-hosted service's bad setting
        return _usage_error("loadgen", exc)
    except (ConnectionError, OSError, TimeoutError, RuntimeError) as exc:
        sys.stderr.write(f"repro loadgen: error: {exc}\n")
        return 1
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.json:
        out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        out.write(render_report(report) + "\n")
    return 0


#: Figure name -> (renderer, the seed its benchmarks/out file records).
_FIGURES = {}


def _figure(name, seed=1):
    def register(fn):
        _FIGURES[name] = (fn, seed)
        return fn
    return register


@_figure("table1", seed=0)
def _fig_table1(seed, out):
    from repro.experiments.energy_table import (
        breakdown_report, measured_breakdown, table1_report,
    )

    out.write(table1_report() + "\n\n")
    out.write(breakdown_report(measured_breakdown(seed=seed)) + "\n")


def _write_levels(results, out, reverse):
    """A mote-grid figure's power levels, joined as benchmarks/out
    records them."""
    out.write("\n\n".join(results[level].render()
                           for level in sorted(results, reverse=reverse))
              + "\n")


@_figure("fig5")
def _fig5(seed, out):
    from repro.experiments.mote_grids import fig5_indoor

    _write_levels(fig5_indoor(seed=seed), out, reverse=False)


@_figure("fig6")
def _fig6(seed, out):
    from repro.experiments.mote_grids import fig6_outdoor

    _write_levels(fig6_outdoor(seed=seed), out, reverse=True)


@_figure("fig7")
def _fig7(seed, out):
    from repro.experiments.mote_grids import fig7_outdoor_line

    _write_levels(fig7_outdoor_line(seed=seed), out, reverse=True)


@_figure("fig8")
def _fig8(seed, out):
    from repro.experiments.active_radio import fig8_report, \
        run_simulation_grid

    out.write(fig8_report(run_simulation_grid(seed=seed)) + "\n")


@_figure("fig9")
def _fig9(seed, out):
    from repro.experiments.active_radio import fig9_report, \
        run_simulation_grid

    out.write(fig9_report(run_simulation_grid(seed=seed)) + "\n")


@_figure("fig10")
def _fig10(seed, out):
    from repro.experiments.size_sweep import fig10_report, run_sweep

    out.write(fig10_report(run_sweep(seed=seed)) + "\n")


@_figure("fig11")
def _fig11(seed, out):
    from repro.experiments.active_radio import fig11_report, \
        run_simulation_grid

    out.write(fig11_report(run_simulation_grid(seed=seed)) + "\n")


@_figure("fig12")
def _fig12(seed, out):
    from repro.experiments.active_radio import fig12_report, \
        run_simulation_grid

    out.write(fig12_report(run_simulation_grid(seed=seed)) + "\n")


@_figure("fig13")
def _fig13(seed, out):
    from repro.experiments.propagation import fig13_report, run_propagation

    out.write(fig13_report(run_propagation(seed=seed),
                           deluge=run_propagation(seed=seed,
                                                  protocol="deluge"))
              + "\n")


@_figure("sec5")
def _sec5(seed, out):
    from repro.experiments.comparison import (
        COMPARISON_DIMS, SECTION5_PROTOCOLS, comparison_report,
        run_comparison,
    )

    runs = run_comparison(SECTION5_PROTOCOLS, seed=seed, **COMPARISON_DIMS)
    out.write(comparison_report(runs) + "\n")


@_figure("ablations")
def _ablations(seed, out):
    from repro.experiments.ablations import ablation_report, run_all

    out.write(ablation_report(run_all(seed=seed)) + "\n")


def _cmd_figure(args, out):
    if args.name == "list":
        out.write("available figures: " + " ".join(sorted(_FIGURES)) + "\n")
        return 0
    if args.name not in _FIGURES:
        out.write(f"unknown figure {args.name!r}; try 'figure list'\n")
        return 2
    fn, recorded_seed = _FIGURES[args.name]
    fn(recorded_seed if args.seed is None else args.seed, out)
    return 0


def _cmd_compare(args, out):
    from repro.experiments.comparison import comparison_report, \
        run_comparison

    problem = _bad_protocols(args.protocols)
    if problem:
        return _usage_error("compare", problem)
    rows, cols = args.grid
    runs = run_comparison(tuple(args.protocols), seed=args.seed,
                          rows=rows, cols=cols, n_segments=args.segments)
    out.write(comparison_report(runs) + "\n")
    return 0


def main(argv=None, out=None):
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    problem = _bad_number(args)
    if problem:
        return _usage_error(args.command, problem)
    if args.command == "run":
        return _cmd_run(args, out)
    if args.command == "figure":
        return _cmd_figure(args, out)
    if args.command == "compare":
        return _cmd_compare(args, out)
    if args.command == "sweep":
        return _cmd_sweep(args, out)
    if args.command in _FAULT_MATRICES:
        return _cmd_fault_matrix(args, out)
    if args.command == "profile":
        return _cmd_profile(args, out)
    if args.command == "conformance":
        return _cmd_conformance(args, out)
    if args.command == "serve":
        return _cmd_serve(args, out)
    if args.command == "submit":
        return _cmd_submit(args, out)
    if args.command == "loadgen":
        return _cmd_loadgen(args, out)
    return 2


if __name__ == "__main__":
    sys.exit(main())
