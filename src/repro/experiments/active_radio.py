"""The TOSSIM-style large-grid simulation: Figures 8, 9, 11 and 12.

One pipelined MNP run on a large grid (20x20 in the paper, 10 ft spacing,
base at the bottom-left corner) produces all four figures:

* Fig. 8 -- active radio time of each node, by id and by location; center
  nodes accumulate roughly half the active time of edge nodes, and a
  large fraction of would-be idle listening is eliminated by sleeping.
* Fig. 9 -- the same excluding each node's *initial* idle listening (the
  time spent waiting, radio on, before its first advertisement arrived);
  the distribution flattens.
* Fig. 11 -- transmissions and receptions by location; the base station
  transmits the most, center nodes receive the most.
* Fig. 12 -- messages transmitted per one-minute window by type; the data
  rate stays roughly constant while the update is in progress.
"""

from repro.experiments.common import grid_deployment
from repro.experiments.scale import current_scale
from repro.metrics.reports import format_grid, format_timeline, summarize
from repro.sim.kernel import MINUTE, SECOND


def run_simulation_grid(rows=None, cols=None, n_segments=None,
                        segment_packets=None, seed=0, config=None,
                        protocol="mnp", deadline_min=480):
    """One large-grid dissemination run; a size left None is the current
    REPRO_SCALE's."""
    scale = current_scale()
    dep = grid_deployment(
        scale.grid[0] if rows is None else rows,
        scale.grid[1] if cols is None else cols, protocol,
        scale.n_segments if n_segments is None else n_segments,
        scale.segment_packets if segment_packets is None
        else segment_packets, seed, config,
    )
    return dep.run_to_completion(deadline_ms=deadline_min * MINUTE)


# ----------------------------------------------------------------------
# Fig. 8 / Fig. 9
# ----------------------------------------------------------------------
def fig8_report(run):
    """Per-node active radio time, rendered by node id summary and by
    location (paper Fig. 8)."""
    art_s = {n: v / SECOND for n, v in run.active_radio_ms().items()}
    stats = summarize(art_s.values())
    completion = run.completion_time_ms
    lines = [
        "Fig. 8 -- active radio time (s) by location "
        f"[{run.deployment.topology.bounding_box()} ft deployment]",
        format_grid(art_s, run.deployment.topology, fmt="{:5.0f}"),
        f"completion: {completion / MINUTE:.1f} min; "
        f"average active radio time: {stats['mean']:.0f} s "
        f"(min {stats['min']:.0f}, max {stats['max']:.0f})",
        f"idle-listening saved by sleeping: "
        f"{run.idle_listening_savings():.0%}",
    ]
    return "\n".join(lines)


def center_vs_edge_art(run):
    """The Fig. 8 spatial claim: mean ART of interior nodes vs boundary
    nodes.  Returns ``(center_mean_ms, edge_mean_ms)``."""
    topo = run.deployment.topology
    xs = sorted({p[0] for p in topo.positions})
    ys = sorted({p[1] for p in topo.positions})
    art = run.active_radio_ms()
    center, edge = [], []
    for node in topo.node_ids():
        x, y = topo.positions[node]
        on_boundary = x in (xs[0], xs[-1]) or y in (ys[0], ys[-1])
        (edge if on_boundary else center).append(art[node])
    return (sum(center) / len(center) if center else 0.0,
            sum(edge) / len(edge) if edge else 0.0)


def fig9_report(run):
    """ART excluding initial idle listening (paper Fig. 9)."""
    art = {n: v / SECOND
           for n, v in run.active_radio_no_initial_ms().items()}
    stats = summarize(art.values())
    return "\n".join([
        "Fig. 9 -- active radio time without initial idle listening (s)",
        format_grid(art, run.deployment.topology, fmt="{:5.0f}"),
        f"average: {stats['mean']:.0f} s "
        f"(min {stats['min']:.0f}, max {stats['max']:.0f})",
    ])


def spread(values):
    """Max/mean ratio -- the 'flatness' measure used to compare Figs. 8
    and 9 (Fig. 9's distribution is flatter)."""
    values = list(values)
    mean = sum(values) / len(values)
    return max(values) / mean if mean else float("inf")


# ----------------------------------------------------------------------
# Fig. 11
# ----------------------------------------------------------------------
def fig11_report(run):
    """Transmission and reception distribution (paper Fig. 11)."""
    tx = {n: float(v) for n, v in run.messages_sent().items()}
    rx = {n: float(v) for n, v in run.messages_received().items()}
    topo = run.deployment.topology
    mean_tx = sum(tx.values()) / len(topo)
    return "\n".join([
        "Fig. 11a -- messages transmitted, by location",
        format_grid(tx, topo, fmt="{:5.0f}", missing="    0"),
        "Fig. 11b -- messages received, by location",
        format_grid(rx, topo, fmt="{:6.0f}", missing="     0"),
        f"average messages sent per node: {mean_tx:.0f}; "
        f"base station sent {tx.get(run.deployment.base_id, 0):.0f}",
    ])


# ----------------------------------------------------------------------
# Fig. 12
# ----------------------------------------------------------------------
MNP_MESSAGE_KINDS = ("Advertisement", "DownloadRequest", "DataPacket")


def fig12_series(run, window_ms=MINUTE):
    """Per-window transmission counts for the three headline message
    types (paper Fig. 12)."""
    return run.collector.tx_per_window(
        window_ms, kinds=list(MNP_MESSAGE_KINDS),
        until=run.completion_time_ms,
    )


def fig12_report(run, window_ms=MINUTE):
    series = fig12_series(run, window_ms)
    return format_timeline(
        series, window_ms,
        title="Fig. 12 -- messages transmitted per one-minute window",
    )
