"""Program-size sweep: Figure 10.

The paper sends programs of 1..10 segments (2.9..29.4 KB) through the
20x20 grid and reports, per size: completion time, active radio time, and
active radio time without the initial idle listening.  The claims:

* completion time is linear in program size;
* average active radio time stays a roughly constant fraction of the
  completion time (the paper quotes ~30%).
"""

from repro.experiments.scale import current_scale
from repro.metrics.reports import format_table


class SweepPoint:
    """Measurements for one program size, from a runner metrics dict."""

    def __init__(self, n_segments, metrics):
        self.n_segments = n_segments
        self.size_kb = metrics["image_bytes"] / 1024.0
        self.completion_s = metrics["completion_s"]
        self.art_s = metrics["art_s"]
        self.art_no_init_s = metrics["art_no_init_s"]

    @property
    def art_fraction(self):
        if not self.completion_s:
            return None
        return self.art_s / self.completion_s


def run_sweep(sizes=None, seed=0, config=None, workers=0, cache_dir=None,
              progress=None):
    """Run the Fig. 10 sweep; returns a list of SweepPoint.

    ``workers >= 2`` fans the sizes out over the parallel runner
    (:mod:`repro.runner`); ``cache_dir`` makes re-runs incremental.
    """
    from repro.runner import RunSpec, Runner

    sizes = sizes or current_scale().sweep_segments
    scale = current_scale()
    specs = [
        RunSpec("grid", protocol="mnp", scale=scale.name, seed=seed,
                n_segments=n_segments,
                config=_config_overrides(config))
        for n_segments in sizes
    ]
    per_run = Runner(workers=workers, cache_dir=cache_dir,
                     progress=progress).run(specs)
    return [
        SweepPoint(n_segments, metrics)
        for n_segments, metrics in zip(sizes, per_run)
    ]


def _config_overrides(config):
    """An MNPConfig as a JSON-able override dict (None stays None)."""
    if config is None:
        return None
    from repro.core.config import MNPConfig

    defaults = vars(MNPConfig())
    return {k: v for k, v in vars(config).items() if defaults.get(k) != v}


def fig10_report(points):
    rows = [
        [p.n_segments, f"{p.size_kb:.1f}",
         f"{p.completion_s:.0f}" if p.completion_s else "-",
         f"{p.art_s:.0f}", f"{p.art_no_init_s:.0f}",
         f"{p.art_fraction:.0%}" if p.art_fraction else "-"]
        for p in points
    ]
    return format_table(
        ["segments", "size(KB)", "completion(s)", "ART(s)",
         "ART w/o init(s)", "ART/completion"],
        rows,
        title="Fig. 10 -- completion time and active radio time vs "
              "program size",
    )


def linearity_r2(points):
    """R^2 of completion time vs segment count (the paper's 'linear with
    the program size' claim)."""
    xs = [p.n_segments for p in points]
    ys = [p.completion_s for p in points]
    n = len(xs)
    if n < 2:
        return 1.0
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    syy = sum((y - mean_y) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return 1.0
    return (sxy * sxy) / (sxx * syy)
