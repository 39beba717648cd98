"""Events/sec profiling harness for the simulation hot path.

Two workloads bracket the simulator's performance envelope:

* ``dissemination`` -- a complete MNP code dissemination on a multihop
  grid.  This is the end-to-end number: protocol logic, timers, sleep
  scheduling, and the channel all contribute.
* ``saturation`` -- every node's MAC is kept saturated with back-to-back
  broadcasts until a fixed per-node frame budget drains.  No protocol
  logic at all: virtually every event is a carrier-sense poll, a
  transmission start/finish, or a reception resolution, so this phase
  isolates exactly the per-event channel costs the hot-path work targets
  (O(1) carrier counters, cached link budgets, the tuple-keyed event
  heap).

Each workload returns a JSON-ready dict with the executed event count,
wall-clock seconds, events/sec, and the channel's hot-path counters;
:func:`run_profile` aggregates the phases.  Workloads are deterministic
per seed -- the event counts and embedded ``checks`` values are
bit-stable, and ``tests/test_profile_outcomes.py`` pins them (wall-clock
varies with the machine; virtual outcomes must not).

Used by ``python -m repro profile``.
"""

import time

from repro.net.loss_models import EmpiricalLossModel
from repro.net.topology import Topology
from repro.radio.channel import Channel
from repro.radio.mac import CsmaMac
from repro.radio.propagation import PropagationModel
from repro.radio.radio import Radio
from repro.sim.kernel import MINUTE, Simulator


class StressPayload:
    """Minimal broadcast payload for the saturation workload."""

    __slots__ = ()

    WIRE_BYTES = 36  # comparable to an MNP data packet


class _SaturatingSender:
    """Keeps one MAC queue non-empty until its frame budget drains."""

    __slots__ = ("mac", "remaining")

    _PAYLOAD = StressPayload()

    def __init__(self, mac, frames):
        self.mac = mac
        self.remaining = frames
        mac.on_send_done = self._on_send_done

    def start(self):
        if self.remaining > 0:
            self.remaining -= 1
            self.mac.send(self._PAYLOAD, StressPayload.WIRE_BYTES)

    def _on_send_done(self, payload):
        self.start()


def _channel_counters(channel):
    return {
        "transmissions": channel.transmissions,
        "collisions": channel.collisions,
        "bit_error_losses": channel.bit_error_losses,
        "carrier_polls": channel.carrier_polls,
        "link_cache_enabled": channel.link_cache_enabled,
        "link_cache_hits": channel.link_cache_hits,
        "link_cache_misses": channel.link_cache_misses,
    }


def profile_saturation(rows=20, cols=20, spacing_ft=10.0, range_ft=13.0,
                       frames_per_node=96, seed=0):
    """Saturated-medium stress: all nodes broadcast back to back.

    The short radio range maximizes spatial reuse, so on a 20x20 grid
    well over a hundred transmissions are concurrently on the air
    (hidden terminals included) and carrier-sense polls plus reception
    resolutions dominate the event mix.  This is the regime where the
    pre-overhaul per-poll scan over active transmissions was most
    expensive -- a carrier-free poll had to walk every one of them.
    """
    sim = Simulator(seed=seed)
    topology = Topology.grid(rows, cols, spacing_ft)
    channel = Channel(sim, topology, EmpiricalLossModel(seed=seed),
                      PropagationModel(range_ft, 3.0), seed=seed)
    senders = []
    for node_id in topology.node_ids():
        radio = Radio(sim, node_id)
        channel.attach(radio)
        radio.turn_on()
        mac = CsmaMac(sim, radio, channel, seed=seed)
        senders.append(_SaturatingSender(mac, frames_per_node))
    for sender in senders:
        sender.start()
    wall0 = time.perf_counter()
    sim.run()  # drains when every frame budget is spent
    wall_s = time.perf_counter() - wall0
    events = sim.events_executed
    return {
        "workload": {
            "name": "saturation",
            "grid": [rows, cols],
            "spacing_ft": spacing_ft,
            "range_ft": range_ft,
            "frames_per_node": frames_per_node,
            "seed": seed,
        },
        "events": events,
        "wall_s": wall_s,
        "events_per_sec": events / wall_s if wall_s else None,
        "sim_ms": sim.now,
        "counters": _channel_counters(channel),
        "checks": {
            "frames_sent": channel.transmissions,
            "sim_ms": sim.now,
            "collisions": channel.collisions,
        },
    }


def profile_dissemination(rows=20, cols=20, spacing_ft=10.0, range_ft=13.0,
                          n_segments=2, segment_packets=32, seed=0,
                          deadline_min=480.0):
    """End-to-end MNP dissemination on a dense multihop grid.

    The short radio range forces real multihop pipelining (concurrent
    senders in disjoint neighborhoods), which is the contention regime
    the paper's sender-selection design targets.
    """
    from repro.experiments.common import grid_deployment

    deployment = grid_deployment(rows, cols, "mnp", n_segments,
                                 segment_packets, seed,
                                 spacing_ft=spacing_ft, range_ft=range_ft)
    wall0 = time.perf_counter()
    result = deployment.run_to_completion(deadline_ms=deadline_min * MINUTE)
    wall_s = time.perf_counter() - wall0
    events = deployment.sim.events_executed
    return {
        "workload": {
            "name": "dissemination",
            "grid": [rows, cols],
            "spacing_ft": spacing_ft,
            "range_ft": range_ft,
            "n_segments": n_segments,
            "segment_packets": segment_packets,
            "seed": seed,
            "deadline_min": deadline_min,
        },
        "events": events,
        "wall_s": wall_s,
        "events_per_sec": events / wall_s if wall_s else None,
        "sim_ms": deployment.sim.now,
        "counters": _channel_counters(deployment.channel),
        "checks": {
            "coverage": result.coverage,
            "completion_ms": result.completion_time_ms,
            "messages_sent": result.messages,
            "collisions": result.collector.collisions,
        },
    }


def profile_megagrid(rows=100, cols=100, spacing_ft=10.0, range_ft=21.0,
                     n_segments=1, segment_packets=24, seed=0,
                     deadline_min=480.0):
    """Mega-scale MNP dissemination: :func:`profile_dissemination` on a
    100x100 grid with a wider radio range (degree ~12 at 10 ft spacing)
    and one 24-packet segment."""
    phase = profile_dissemination(
        rows=rows, cols=cols, spacing_ft=spacing_ft, range_ft=range_ft,
        n_segments=n_segments, segment_packets=segment_packets, seed=seed,
        deadline_min=deadline_min)
    phase["workload"]["name"] = "megagrid"
    return phase


#: Workload name -> profile function (keyword args: grid + seed).
WORKLOADS = {
    "saturation": profile_saturation,
    "dissemination": profile_dissemination,
    "megagrid": profile_megagrid,
}


class UnusedOverride(ValueError):
    """An override that no selected workload takes; ``takers`` are the
    workloads that would."""

    def __init__(self, key, takers):
        super().__init__(f"{key} applies only to workloads "
                         f"{', '.join(takers) or '(none)'}")
        self.key, self.takers = key, takers


def run_profile(workloads=("saturation", "dissemination"), rows=None,
                cols=None, seed=0, **overrides):
    """Run the requested phases and aggregate events/sec.

    ``rows``/``cols`` default to each workload's own grid (20x20 for
    saturation/dissemination, 100x100 for megagrid) when None.
    ``overrides`` are passed to every selected workload function that
    accepts them; one that no selected workload accepts raises
    :class:`UnusedOverride` before anything runs.
    """
    import inspect

    accepted = {name: inspect.signature(fn).parameters
                for name, fn in WORKLOADS.items()}
    unknown = [name for name in workloads if name not in WORKLOADS]
    if unknown:
        raise ValueError(
            f"unknown workload {unknown[0]!r}; known: {sorted(WORKLOADS)}")
    for key in overrides:
        if not any(key in accepted[name] for name in workloads):
            raise UnusedOverride(key, [name for name in sorted(accepted)
                                       if key in accepted[name]])
    phases = []
    for name in workloads:
        params = accepted[name]
        kwargs = {k: v for k, v in overrides.items() if k in params}
        phase_rows = rows if rows is not None else params["rows"].default
        phase_cols = cols if cols is not None else params["cols"].default
        phases.append(WORKLOADS[name](rows=phase_rows, cols=phase_cols,
                                      seed=seed, **kwargs))
    total_events = sum(p["events"] for p in phases)
    total_wall = sum(p["wall_s"] for p in phases)
    return {
        # None means "per-workload defaults"; each phase records its own.
        "grid": [rows, cols] if rows is not None else None,
        "seed": seed,
        "phases": phases,
        "totals": {
            "events": total_events,
            "wall_s": total_wall,
            "events_per_sec": total_events / total_wall if total_wall
            else None,
        },
    }


def render_profile(report):
    """Human-readable rendering of a :func:`run_profile` report."""
    lines = []
    if report["grid"]:
        rows, cols = report["grid"]
        lines.append(f"hot-path profile on a {rows}x{cols} grid "
                     f"(seed {report['seed']})")
    else:
        lines.append(f"hot-path profile, per-workload grids "
                     f"(seed {report['seed']})")
    for phase in report["phases"]:
        w = phase["workload"]
        c = phase["counters"]
        lines.append(f"  {w['name']} ({w['grid'][0]}x{w['grid'][1]}):")
        lines.append(f"    events:          {phase['events']}")
        lines.append(f"    wall:            {phase['wall_s']:.2f} s")
        lines.append(f"    events/sec:      {phase['events_per_sec']:,.0f}")
        lines.append(f"    sim time:        {phase['sim_ms'] / 1000:.1f} s")
        lines.append(f"    transmissions:   {c['transmissions']}")
        lines.append(f"    carrier polls:   {c['carrier_polls']}")
        lines.append(
            f"    link cache:      "
            + (f"{c['link_cache_hits']} hits, "
               f"{c['link_cache_misses']} misses"
               if c["link_cache_enabled"] else "disabled")
        )
    totals = report["totals"]
    lines.append(f"  total: {totals['events']} events in "
                 f"{totals['wall_s']:.2f} s "
                 f"= {totals['events_per_sec']:,.0f} events/sec")
    return "\n".join(lines)
