"""Code-propagation dynamics: Figure 13 and the anti-Deluge claim.

Fig. 13 shows the code propagation wavefront for a single segment: which
nodes hold the segment at 30%, 60% and 90% of the completion time.  The
paper's observations:

* data propagates at a fairly constant rate from the base station to the
  far corner;
* the "dynamic behavior" reported for Deluge by Hui & Culler -- where
  propagation along the grid diagonal is significantly slower than along
  the edges, a hidden-terminal artifact -- does **not** appear in MNP,
  because sender selection serializes neighborhoods.

``diagonal_edge_ratio`` quantifies the second claim so it can be compared
between MNP and Deluge on identical channels.
"""

import math

from repro.experiments.active_radio import run_simulation_grid
from repro.metrics.reports import format_grid


def run_propagation(seed=0, protocol="mnp", rows=None, cols=None,
                    segment_packets=None):
    """Single-segment dissemination for wavefront analysis."""
    return run_simulation_grid(rows=rows, cols=cols, n_segments=1,
                               segment_packets=segment_packets, seed=seed,
                               protocol=protocol)


def snapshot(run, fraction):
    """Which nodes held the full (single-segment) image at
    ``fraction * completion_time``; rendered as a 0/1 grid."""
    cutoff = run.completion_time_ms * fraction
    held = {
        node: 1.0 if t <= cutoff else 0.0
        for node, t in run.got_code_times_ms().items()
    }
    return held


def fig13_report(run, fractions=(0.3, 0.6, 0.9), deluge=None):
    """The wavefront snapshots of ``run``; given ``deluge``, the same
    segment's Deluge run on the same channel, a closing line compares
    their diagonal/edge arrival ratios (the anti-Deluge claim)."""
    topo = run.deployment.topology
    parts = ["Fig. 13 -- code propagation progress (1 = segment held)"]
    for fraction in fractions:
        parts.append(f"at {fraction:.0%} of completion time:")
        parts.append(format_grid(snapshot(run, fraction), topo,
                                 fmt="{:1.0f}", missing="."))
    if deluge is not None:
        parts.append(
            f"diagonal/edge arrival ratio: "
            f"MNP {diagonal_edge_ratio(run):.2f}, "
            f"Deluge {diagonal_edge_ratio(deluge):.2f}.  The paper's claim "
            f"-- MNP shows no slow-diagonal dynamic (ratio stays near 1) "
            f"-- reproduces; note that our simplified Deluge does not "
            f"recreate Hui & Culler's pathology either at these densities "
            f"(see EXPERIMENTS.md).")
    return "\n".join(parts)


def arrival_vs_distance(run):
    """(distance from base, arrival time) pairs -- constant propagation
    rate shows as a straight line."""
    topo = run.deployment.topology
    base = run.deployment.base_id
    return sorted(
        (topo.distance(base, node), t)
        for node, t in run.got_code_times_ms().items()
        if node != base
    )


def diagonal_edge_ratio(run, band_ft=None):
    """Mean arrival time of diagonal nodes over edge nodes at matched
    distances from the base corner.

    For each diagonal node (|x - y| small) we find edge nodes (on the
    x- or y-axis) at a similar Euclidean distance from the base and
    compare arrival times; the returned value is the mean ratio.  Deluge's
    hidden-terminal dynamic makes this noticeably > 1; MNP should stay
    near 1.
    """
    topo = run.deployment.topology
    base = run.deployment.base_id
    bx, by = topo.positions[base]
    times = run.got_code_times_ms()
    spacing = band_ft or _grid_spacing(topo)
    edge_nodes = []
    diag_nodes = []
    for node, t in times.items():
        if node == base:
            continue
        x, y = topo.positions[node]
        dx, dy = abs(x - bx), abs(y - by)
        dist = math.hypot(dx, dy)
        if dist <= 2 * spacing:
            continue  # too close to separate edge from diagonal
        if dx < 0.5 * spacing or dy < 0.5 * spacing:
            edge_nodes.append((dist, t))
        elif abs(dx - dy) <= 1.5 * spacing:
            diag_nodes.append((dist, t))
    ratios = []
    for dist, t_diag in diag_nodes:
        matched = [t for d, t in edge_nodes if abs(d - dist) <= 1.5 * spacing]
        if matched:
            mean_edge = sum(matched) / len(matched)
            if mean_edge > 0:
                ratios.append(t_diag / mean_edge)
    return sum(ratios) / len(ratios) if ratios else None


def wavefront_speed_ft_per_s(run):
    """Least-squares slope of distance-from-base vs arrival time -- the
    quantified version of Fig. 13's "fairly constant rate" (returns feet
    per second, None with fewer than two arrivals)."""
    pairs = arrival_vs_distance(run)
    if len(pairs) < 2:
        return None
    n = len(pairs)
    mean_t = sum(t for _, t in pairs) / n
    mean_d = sum(d for d, _ in pairs) / n
    stt = sum((t - mean_t) ** 2 for _, t in pairs)
    std = sum((t - mean_t) * (d - mean_d) for d, t in pairs)
    if stt == 0:
        return None
    return (std / stt) * 1000.0  # ms -> s


def _grid_spacing(topo):
    xs = sorted({p[0] for p in topo.positions})
    gaps = [b - a for a, b in zip(xs, xs[1:]) if b > a]
    return min(gaps) if gaps else 1.0
