"""Micro-dissemination probe workload (``experiment="probe"``).

The dissemination service's load generator needs jobs that are *real*
simulations -- they draw from the channel RNG, disseminate an image, and
return the standard summary metrics -- but cost well under a second, so
a burst of hundreds of them exercises the control plane (admission,
dedup, caching, progress streaming) rather than the simulator.  A probe
run is a tiny grid dissemination, fully determined by its
:class:`~repro.runner.RunSpec` like every other experiment.

The spec's overrides are :func:`probe_experiment`'s keyword arguments,
and its signature holds their defaults.
"""

from repro.experiments.common import grid_deployment
from repro.sim.kernel import MINUTE


def probe_experiment(spec, rows=2, cols=3, spacing_ft=10.0, n_segments=1,
                     segment_packets=8, deadline_min=60, config=None):
    """Runner executor for one probe run; returns a JSON-ready dict."""
    # The radio is Deployment's default: the outdoor preset's 60 ft range.
    dep = grid_deployment(rows, cols, spec.protocol, n_segments,
                          segment_packets, spec.seed, config,
                          spacing_ft=spacing_ft, range_ft=60.0)
    metrics = dep.run_to_completion(
        deadline_ms=deadline_min * MINUTE).to_dict()
    metrics["protocol"] = spec.protocol
    metrics["seed"] = spec.seed
    metrics["image_bytes"] = dep.image.size_bytes
    return metrics
