"""The coded-dissemination sweep: messages/energy vs link loss.

Runs one (protocol, loss) cell per :class:`~repro.runner.RunSpec` so the
runner's content-hash cache and worker fleet apply; the CLI drives the
full grid (``python -m repro sweep --experiment coding``).

The experiment pins its own geometry (a dense 5x5 grid, two 24-packet
segments) rather than consulting the scale registry: the question it
answers -- "where does coding beat per-packet retransmission?" -- is a
function of loss rate and neighborhood density, not of deployment size,
and pinning keeps every recorded number comparable across machines.

Loss is expressed as a *data-frame* loss percentage: the per-bit error
rate handed to :class:`~repro.net.loss_models.UniformLossModel` is
back-computed so a full-size 63-byte data frame (45 B coded/uncoded data
packet + 18 B PHY overhead) survives with probability ``1 - loss``.
Smaller control frames see proportionally better odds, exactly as on a
real radio.
"""

from repro.experiments.common import SPACING_FT, grid_deployment
from repro.net.loss_models import PerfectLossModel, UniformLossModel
from repro.sim.kernel import MINUTE

#: Loss percentages of the recorded sweep (EXPERIMENTS.md).
LOSS_PCTS = (0, 10, 20, 30, 40, 50)

#: Protocols of the recorded sweep: each stock protocol next to its
#: coded counterpart.
CODING_PROTOCOLS = ("mnp", "coded_mnp", "deluge", "coded_deluge")

#: Reference frame for the loss <-> BER conversion: a 45-byte data
#: packet plus the channel's 18-byte PHY overhead.
REF_FRAME_BYTES = 63


def loss_to_ber(loss_pct, frame_bytes=REF_FRAME_BYTES):
    """Per-bit error rate at which a ``frame_bytes`` frame is lost with
    probability ``loss_pct``/100."""
    p = loss_pct / 100.0
    if p <= 0:
        return 0.0
    if not p < 1:
        raise ValueError("loss_pct must be < 100")
    return 1.0 - (1.0 - p) ** (1.0 / (8.0 * frame_bytes))


def run_coding_cell(protocol, loss_pct, seed, rows=5, cols=5,
                    spacing_ft=SPACING_FT, n_segments=2, segment_packets=24,
                    deadline_min=480.0, config=None):
    """One cell of the sweep; returns ``summary_metrics()`` plus the
    cell coordinates."""
    loss_model = PerfectLossModel() if loss_pct == 0 \
        else UniformLossModel(loss_to_ber(loss_pct))
    deployment = grid_deployment(
        rows, cols, protocol, n_segments, segment_packets, seed, config,
        spacing_ft=spacing_ft, loss_model=loss_model,
    )
    result = deployment.run_to_completion(deadline_ms=deadline_min * MINUTE)
    metrics = result.summary_metrics()
    metrics["loss_pct"] = loss_pct
    metrics["protocol"] = protocol
    return metrics


def coding_experiment(spec, loss_pct=0, **cell_kwargs):
    """Runner executor (``experiment="coding"``).

    The overrides are :func:`run_coding_cell`'s keyword arguments
    (``loss_pct``, the grid, the image, the deadline, and for the MNP
    family a ``config`` dict of :class:`MNPConfig` keyword arguments),
    and its signature holds their defaults.
    """
    return run_coding_cell(spec.protocol, loss_pct, spec.seed, **cell_kwargs)
