"""Transmission-power sweep over a fixed mote grid.

Figures 5-7 sample two power levels each; this sweep fills in the curve:
for a fixed grid, step the TinyOS power level from barely-connecting to
full and measure hops, senders, completion time, and energy.  The §6
observation that power is a tuning knob ("we can adjust the power level
used in the advertisement message...") makes the shape of this curve the
protocol designer's planning tool.  Each point is one Figs. 5-7 run
(:func:`repro.experiments.mote_grids.run_mote_grid`).
"""

from repro.experiments.mote_grids import propagation_for, run_mote_grid
from repro.metrics.reports import format_table, sparkline
from repro.net.connectivity import hop_counts, is_connected, \
    min_connecting_power
from repro.net.topology import Topology


class PowerPoint:
    """One power level's measurements, from a runner metrics dict."""

    def __init__(self, metrics):
        self.power_level = metrics["power_level"]
        self.range_ft = metrics["range_ft"]
        self.coverage = metrics["coverage"]
        self.completion_s = metrics["completion_s"]
        self.senders = metrics["senders"]
        self.max_hops = metrics["max_hops"]
        self.mean_energy_nah = metrics["mean_energy_nah"]


def power_experiment(spec, level, rows=5, cols=5, environment="indoor",
                     spacing_ft=4.0, program_packets=128):
    """Runner executor for one power-level point: one mote-grid run,
    reduced to its JSON-ready point metrics.  The defaults are the
    sweep's indoor grid, not :func:`run_mote_grid`'s, so a cached spec
    that omits them keeps its meaning."""
    grid = run_mote_grid(rows, cols, level, environment=environment,
                         spacing_ft=spacing_ft,
                         program_packets=program_packets, seed=spec.seed)
    dep = grid.deployment
    range_ft = dep.propagation.range_ft(level)
    hops = hop_counts(dep.topology, range_ft, dep.base_id)
    metrics = grid.run.summary_metrics()
    metrics.update({
        "power_level": level,
        "range_ft": range_ft,
        "max_hops": (max(hops.values())
                     if len(hops) == len(dep.topology) else None),
    })
    return metrics


def run_power_sweep(levels=None, rows=5, cols=5, spacing_ft=4.0,
                    environment="indoor", program_packets=128, seed=0,
                    workers=0, cache_dir=None, progress=None):
    """Sweep power levels over the paper's indoor-style grid.

    ``levels`` defaults to a spread from just above the minimum
    connecting level up to full power.  ``workers >= 2`` fans the levels
    out over the parallel runner (:mod:`repro.runner`); ``cache_dir``
    makes re-runs incremental.
    """
    from repro.runner import RunSpec, Runner

    propagation = propagation_for(environment)
    topo = Topology.grid(rows, cols, spacing_ft)
    if levels is None:
        floor = min_connecting_power(topo, propagation) or 1
        levels = sorted({floor, 2 * floor, 16, 64, 255} | {floor})
        levels = [lv for lv in levels if floor <= lv <= 255]
    levels = [lv for lv in levels
              if is_connected(topo, propagation.range_ft(lv))]
    specs = [
        RunSpec("power", protocol="mnp", scale="default", seed=seed,
                level=level, rows=rows, cols=cols, spacing_ft=spacing_ft,
                environment=environment, program_packets=program_packets)
        for level in levels
    ]
    per_run = Runner(workers=workers, cache_dir=cache_dir,
                     progress=progress).run(specs)
    return [PowerPoint(metrics) for metrics in per_run]


def power_report(points):
    rows = [
        [p.power_level, f"{p.range_ft:.0f}",
         p.max_hops if p.max_hops is not None else "-",
         p.senders,
         f"{p.completion_s:.0f}" if p.completion_s else "-",
         f"{p.mean_energy_nah / 1000:.0f}",
         f"{p.coverage:.0%}"]
        for p in points
    ]
    text = format_table(
        ["power", "range(ft)", "max hops", "senders", "completion(s)",
         "energy(uAh)", "coverage"],
        rows, title="Power-level sweep (5x5 indoor grid)",
    )
    text += "\nsenders vs power: " + sparkline(p.senders for p in points)
    return text
