"""The Mica-2 mote experiments: Figures 5, 6, and 7.

The paper deploys motes in small grids at 4 ft spacing and runs the basic
(non-pipelined) MNP at different transmission power levels, recording for
each node the time it got the full code ("get code time") and the node it
downloaded from ("parent ID"); from these it derives the parent-child map
and the order in which nodes became senders.

* Fig. 5 -- indoor 5x5 grid (classroom), power levels 1 and 2.
* Fig. 6 -- outdoor 7x7 grid (grass field), full power and power 10.
* Fig. 7 -- outdoor 2x10 grid, full power and power 10.

The observations to reproduce:

* the sender selection keeps concurrent senders out of each other's
  neighborhoods -- only a handful of nodes ever become senders;
* nodes far from the base station are more likely to become senders
  (they cover the most un-served nodes);
* at lower power, more nodes become senders, each with fewer children,
  and more hops are needed.
"""

from repro.core.config import MNPConfig
from repro.core.segments import CodeImage
from repro.experiments.common import Deployment
from repro.hardware.mote import MoteConfig
from repro.metrics.reports import format_grid, format_parent_arrows
from repro.net.loss_models import EmpiricalLossModel
from repro.net.topology import Topology
from repro.radio.propagation import PropagationModel
from repro.sim.kernel import MINUTE


class MoteGridResult:
    """Outcome of one mote-grid experiment."""

    def __init__(self, name, power_level, run, deployment):
        self.name = name
        self.power_level = power_level
        self.run = run
        self.deployment = deployment

    @property
    def completion_min(self):
        return self.run.completion_time_min

    def parent_map(self):
        return self.run.parent_map()

    def sender_order(self):
        return self.run.sender_order()

    def hops_histogram(self):
        """Number of children per sender (the 'group of followers')."""
        counts = {}
        for child, parent in self.parent_map().items():
            counts[parent] = counts.get(parent, 0) + 1
        return counts

    def render(self):
        """The figure's textual counterpart: the parent grid (each cell
        shows the node's parent id), plus sender order and timing."""
        topo = self.deployment.topology
        parents = {n: float(p) for n, p in self.parent_map().items()}
        parents[self.deployment.base_id] = float(self.deployment.base_id)
        lines = [
            f"{self.name} @ power level {self.power_level}: "
            f"completion {self.completion_min:.1f} min"
            if self.completion_min is not None else
            f"{self.name} @ power level {self.power_level}: incomplete",
            "parent-child map (arrows point to each node's parent; "
            "base = ◎):",
            format_parent_arrows(self.parent_map(), topo,
                                 self.deployment.base_id),
            "parent of each node (base marked with its own id):",
            format_grid(parents, topo, fmt="{:4.0f}"),
            f"sender order: {self.sender_order()}",
        ]
        return "\n".join(lines)


def run_mote_grid(rows, cols, power_level, environment="outdoor",
                  spacing_ft=4.0, program_packets=256, seed=0,
                  deadline_min=240):
    """Run the basic (non-pipelined) MNP on a mote grid, as in §4.1.

    ``environment`` selects the propagation preset (see
    :func:`propagation_for`); the base station sits at the upper-left
    corner, the paper's convention for these figures.
    """
    propagation = propagation_for(environment)
    topo = Topology.grid(rows, cols, spacing_ft)
    image = CodeImage.from_bytes(
        1, bytes((i * 31) % 251 for i in range(program_packets * 23)),
        segment_packets=128,
    )
    # The mote experiments predate pipelining ("these results are based on
    # the basic version of MNP", §4.1); the query/update repair phase
    # keeps a session's own parent repairing its children, as on the real
    # motes.  Short indoor/outdoor links are more reliable than the TOSSIM
    # empirical model's defaults, hence the reduced per-edge variation.
    config = MNPConfig(pipelining=False, query_update=True)
    dep = Deployment(
        topo, image=image, protocol="mnp", protocol_config=config,
        base_id=topo.corner_node("bottom-left"), seed=seed,
        propagation=propagation,
        loss_model=EmpiricalLossModel(seed=seed, sigma=0.3),
        mote_config=MoteConfig(power_level=power_level),
    )
    run = dep.run_to_completion(deadline_ms=deadline_min * MINUTE)
    return MoteGridResult(f"{rows}x{cols} {environment} grid", power_level,
                          run, dep)


def propagation_for(environment):
    """The propagation preset of a mote grid: the 'indoor' classroom or
    the 'outdoor' grass field."""
    if environment == "indoor":
        return PropagationModel.indoor(40.0)
    if environment == "outdoor":
        return PropagationModel.outdoor(60.0)
    raise ValueError(f"unknown environment {environment!r}")


def fig5_indoor(seed=0, program_packets=256):
    """Fig. 5: indoor 5x5 grid at power levels 1 and 2."""
    return {
        level: run_mote_grid(5, 5, level, environment="indoor", seed=seed,
                             program_packets=program_packets)
        for level in (1, 2)
    }


def fig6_outdoor(seed=0, program_packets=256):
    """Fig. 6: outdoor 7x7 grid at full power and power 10."""
    return {
        level: run_mote_grid(7, 7, level, environment="outdoor", seed=seed,
                             program_packets=program_packets)
        for level in (255, 10)
    }


def fig7_outdoor_line(seed=0, program_packets=256):
    """Fig. 7: outdoor 2x10 grid at full power and power 10."""
    return {
        level: run_mote_grid(2, 10, level, environment="outdoor", seed=seed,
                             program_packets=program_packets)
        for level in (255, 10)
    }
