"""The two simulation workloads, built from the package's public API.

Each workload is a function of its seed only.  :func:`build` returns a
:class:`SimJob` whose :meth:`~SimJob.run` executes one complete
simulated run and whose :meth:`~SimJob.outcome` reports the simulated
results the checks compare: these are pure functions of the seed, so a
change that only speeds the simulator up must leave them identical.

* ``dissemination`` -- stock MNP spreads a 2x32-packet image over the
  20x20 grid at 13 ft range until every node holds it, with the metrics
  collector attached (the paper's experiment).
* ``coded_secure`` -- ``coded_mnp`` with the secure OTA pipeline on an
  8x8 multihop grid, where GF(2^8) coding rather than control takes most
  of the time and every advertisement and segment is authenticated; ends
  with ``install_all()`` through the bootloader.
"""

from repro import CodeImage, Deployment, EmpiricalLossModel, \
    PropagationModel, Topology
from repro.core.auth import SecurityConfig
from repro.sim.kernel import MINUTE

SPACING_FT = 10.0
RANGE_FT = 13.0
DEADLINE_MS = 480 * MINUTE

#: Workload geometry (recorded with every run).
SHAPES = {
    "dissemination": {"grid": [20, 20], "protocol": "mnp",
                      "security": False},
    "coded_secure": {"grid": [8, 8], "protocol": "coded_mnp",
                     "security": True},
}
SEGMENTS = 2
SEGMENT_PACKETS = 32


class SimJob:
    """One built (not yet started) simulated run of a workload."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        shape = SHAPES[name]
        rows, cols = shape["grid"]
        self.image = CodeImage.random(1, n_segments=SEGMENTS,
                                      segment_packets=SEGMENT_PACKETS,
                                      seed=seed)
        self.deployment = Deployment(
            Topology.grid(rows, cols, SPACING_FT), image=self.image,
            protocol=shape["protocol"], seed=seed,
            propagation=PropagationModel(RANGE_FT, 3.0),
            loss_model=EmpiricalLossModel(seed=seed),
            security=SecurityConfig(enabled=True) if shape["security"]
            else None)
        self.sim = self.deployment.sim
        self.channel = self.deployment.channel
        self.install = None

    def start(self):
        """Schedule the first events (the nodes' power-up)."""
        self.deployment.start()

    def run(self):
        """Run until every node holds the image (or the deadline)."""
        self.result = self.deployment.run_to_completion(
            deadline_ms=DEADLINE_MS)
        if SHAPES[self.name]["security"]:
            self.install = self.deployment.install_all()

    def outcome(self):
        """Simulated results (identical for every run of one seed)."""
        result = self.result
        out = {
            "events": self.sim.events_executed,
            "sim_ms": self.sim.now,
            "nodes": len(result.nodes),
            "nodes_done": sum(1 for n in result.nodes.values()
                              if n.has_full_image),
            "coverage": result.coverage,
            "completion_ms": result.completion_time_ms,
            "messages_sent": sum(result.messages_sent().values()),
            "collisions": result.collector.collisions,
            "images_intact": result.images_intact(self.image),
        }
        if self.install is not None:
            out["installed"] = self.install["installed"]
            out["install_rejected"] = self.install["rejected"]
        return out

    def code_path(self):
        """Which implementation ran (a silent fallback must show)."""
        node = next(iter(self.deployment.nodes.values()))
        return {
            "channel_class": type(self.channel).__name__,
            "link_cache": "on" if self.channel.link_cache_enabled
            else "off",
            "security": SHAPES[self.name]["security"],
            "coding_field": getattr(node, "field", None),
        }


def build(name, seed):
    if name not in SHAPES:
        raise ValueError(f"unknown simulation workload {name!r}")
    return SimJob(name, seed)


#: Outcome fields compared exactly against ``reference.json`` for the
#: default seed.
REFERENCE_FIELDS = ("events", "sim_ms", "coverage", "completion_ms",
                    "messages_sent", "collisions")


def check(name, seed, outcome, reference):
    """Problems with one run's outcome (an empty list when correct)."""
    problems = []
    if outcome["coverage"] != 1.0:
        problems.append(f"coverage {outcome['coverage']} != 1.0 "
                        f"({outcome['nodes_done']}/{outcome['nodes']})")
    if not outcome["images_intact"]:
        problems.append("an installed image differs from the original")
    if name == "coded_secure":
        if outcome.get("install_rejected") != 0:
            problems.append(f"bootloader rejected "
                            f"{outcome.get('install_rejected')} image(s)")
        if outcome.get("installed") != outcome["nodes"]:
            problems.append(f"{outcome.get('installed')} of "
                            f"{outcome['nodes']} nodes installed")
    expected = reference.get(name, {}).get(str(seed))
    if expected is not None:
        for field in REFERENCE_FIELDS:
            if field in expected and outcome.get(field) != expected[field]:
                problems.append(f"{field} {outcome.get(field)!r} != "
                                f"reference {expected[field]!r}")
    return problems
