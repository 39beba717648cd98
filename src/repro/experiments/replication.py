"""Multi-seed replication: means, deviations, and paired comparisons.

The paper reports single runs ("we repeated our experiments several
times; we found that the results are similar", §4.1).  This module makes
that claim checkable: run an experiment across seeds, aggregate each
metric, and test paired protocol comparisons seed-by-seed (both
protocols see the identical channel realization for a given seed, so a
sign test over seeds is the right comparison).
"""

import math

from repro.metrics.reports import format_table


class MetricStats:
    """Mean / stdev / min / max of one metric across seeds."""

    def __init__(self, name, values):
        values = [v for v in values if v is not None]
        self.name = name
        self.n = len(values)
        self.values = values
        if values:
            self.mean = sum(values) / len(values)
            self.min = min(values)
            self.max = max(values)
            if len(values) > 1:
                var = sum((v - self.mean) ** 2 for v in values) / \
                    (len(values) - 1)
                self.stdev = math.sqrt(var)
            else:
                self.stdev = 0.0
        else:
            self.mean = self.min = self.max = self.stdev = None

    def __repr__(self):
        if self.mean is None:
            return f"<{self.name}: no data>"
        return (f"<{self.name}: {self.mean:.1f} +/- {self.stdev:.1f} "
                f"[{self.min:.1f}, {self.max:.1f}] n={self.n}>")


#: The headline metrics replicated comparisons aggregate by default.
HEADLINE_METRICS = ("completion_s", "art_s", "collisions", "coverage")


def replication_specs(seeds, rows=6, cols=6, n_segments=2,
                      segment_packets=32, protocol="mnp", scale="default"):
    """Build one grid :class:`repro.runner.RunSpec` per seed.

    Every dimension is pinned explicitly, so the resulting cache keys do
    not depend on the ambient ``REPRO_SCALE``.
    """
    from repro.runner import RunSpec

    return [
        RunSpec("grid", protocol=protocol, scale=scale, seed=seed,
                rows=rows, cols=cols, n_segments=n_segments,
                segment_packets=segment_packets)
        for seed in seeds
    ]


def replicate_specs(specs, workers=0, cache_dir=None, progress=None,
                    metrics=HEADLINE_METRICS):
    """Execute ``specs`` (serially or on a worker fleet) and aggregate.

    Returns ``{metric: MetricStats}`` over the spec list, in spec order.
    ``metrics=None`` aggregates every key the runs produced.  Serial
    (``workers <= 1``) and parallel execution reduce each run through the
    same :meth:`RunResult.summary_metrics`, so the aggregates are
    bit-identical for identical specs.
    """
    from repro.runner import Runner

    per_run = Runner(workers=workers, cache_dir=cache_dir,
                     progress=progress).run(specs)
    keys = metrics
    if keys is None:
        keys = sorted({k for result in per_run for k in result})
    return {
        key: MetricStats(key, [result.get(key) for result in per_run])
        for key in keys
    }


def paired_protocol_wins(metric_a, metric_b):
    """Seed-by-seed sign comparison of two MetricStats measured on paired
    channels: fraction of seeds where A's value is strictly below B's."""
    pairs = list(zip(metric_a.values, metric_b.values))
    if not pairs:
        return None
    return sum(1 for a, b in pairs if a < b) / len(pairs)


def protocol_statistics(protocols, seeds, rows=6, cols=6, n_segments=2,
                        segment_packets=32, workers=0, cache_dir=None,
                        progress=None):
    """Replicated comparison: {protocol: {metric: MetricStats}}.

    With ``workers >= 2`` the full (protocol x seed) matrix fans out over
    a process fleet (see :mod:`repro.runner`) instead of looping
    serially; ``cache_dir`` makes repeated invocations incremental.
    """
    from repro.runner import Runner

    specs = []
    for protocol in protocols:
        specs.extend(replication_specs(
            seeds, rows=rows, cols=cols, n_segments=n_segments,
            segment_packets=segment_packets, protocol=protocol,
        ))
    per_run = Runner(workers=workers, cache_dir=cache_dir,
                     progress=progress).run(specs)
    stats = {}
    for p_index, protocol in enumerate(protocols):
        chunk = per_run[p_index * len(seeds):(p_index + 1) * len(seeds)]
        stats[protocol] = {
            key: MetricStats(key, [result.get(key) for result in chunk])
            for key in HEADLINE_METRICS
        }
    return stats


def statistics_report(stats, metrics=("completion_s", "art_s",
                                      "collisions")):
    rows = []
    for protocol, per_metric in stats.items():
        for metric in metrics:
            ms = per_metric[metric]
            if ms.mean is None:
                rows.append([protocol, metric, "-", "-", "-", ms.n])
            else:
                rows.append([
                    protocol, metric, f"{ms.mean:.1f}", f"{ms.stdev:.1f}",
                    f"[{ms.min:.1f}, {ms.max:.1f}]", ms.n,
                ])
    return format_table(
        ["protocol", "metric", "mean", "stdev", "range", "seeds"],
        rows, title="Replicated results (mean over seeds)",
    )
