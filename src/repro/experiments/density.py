"""Node-density sweep.

The paper varies the *communication range* (power levels) over a fixed
grid and observes: lower power ⇒ smaller neighborhoods ⇒ more senders,
each with fewer followers, and more hops.  Density is the dual knob --
fixing the range and stretching the grid spacing -- and it is the axis
along which Deluge's dynamic-behaviour problems were reported ("when the
network is dense...").  This sweep measures both protocols across
spacings.
"""

from repro.experiments.common import RANGE_FT, grid_deployment
from repro.metrics.reports import format_table
from repro.net.connectivity import hop_counts
from repro.sim.kernel import MINUTE


class DensityPoint:
    """One (protocol, spacing) measurement, from a runner metrics dict."""

    def __init__(self, metrics):
        self.protocol = metrics["protocol"]
        self.spacing_ft = metrics["spacing_ft"]
        self.coverage = metrics["coverage"]
        self.completion_s = metrics["completion_s"]
        self.collisions = metrics["collisions"]
        self.senders = metrics["senders"]
        self.max_hops = metrics["max_hops"]
        self.mean_neighbors = metrics["mean_neighbors"]


def density_experiment(spec, spacing_ft, rows=6, cols=6, n_segments=2):
    """Runner executor for one (protocol, spacing) density point: one
    grid run at ``spacing_ft``, reduced to its JSON-ready point metrics."""
    dep = grid_deployment(rows, cols, spec.protocol, n_segments, 32,
                          spec.seed, spacing_ft=spacing_ft)
    metrics = dep.run_to_completion(
        deadline_ms=4 * 60 * MINUTE).summary_metrics()
    topo = dep.topology
    hops = hop_counts(topo, RANGE_FT, dep.base_id)
    index = topo.grid_index(RANGE_FT)
    neighborhood = [
        len(index.nodes_within(n, RANGE_FT)) for n in topo.node_ids()
    ]
    metrics.update({
        "protocol": spec.protocol,
        "spacing_ft": spacing_ft,
        "max_hops": max(hops.values()) if hops else 0,
        "mean_neighbors": sum(neighborhood) / len(neighborhood),
    })
    return metrics


def run_density_sweep(spacings=(6.0, 10.0, 16.0), protocol="mnp",
                      rows=6, cols=6, n_segments=2, seed=0, workers=0,
                      cache_dir=None, progress=None):
    """Sweep grid spacing at a fixed radio range.

    ``workers >= 2`` fans the spacings out over the parallel runner
    (:mod:`repro.runner`); ``cache_dir`` makes re-runs incremental.
    """
    from repro.runner import RunSpec, Runner

    specs = [
        RunSpec("density", protocol=protocol, scale="default", seed=seed,
                spacing_ft=spacing, rows=rows, cols=cols,
                n_segments=n_segments)
        for spacing in spacings
    ]
    per_run = Runner(workers=workers, cache_dir=cache_dir,
                     progress=progress).run(specs)
    return [DensityPoint(metrics) for metrics in per_run]


def density_report(points):
    rows = [
        [p.protocol, f"{p.spacing_ft:.0f}", f"{p.mean_neighbors:.1f}",
         p.max_hops, p.senders,
         f"{p.completion_s:.0f}" if p.completion_s else "-",
         p.collisions, f"{p.coverage:.0%}"]
        for p in points
    ]
    return format_table(
        ["protocol", "spacing(ft)", "avg neighbors", "max hops",
         "senders", "completion(s)", "collisions", "coverage"],
        rows,
        title="Density sweep (fixed 25 ft range, varying grid spacing)",
    )
