"""The protocol-agnostic dissemination runner.

A :class:`Deployment` assembles simulator, channel, motes and protocol
nodes for one run; :meth:`Deployment.run_to_completion` drives the
simulation until every node holds the full image (or a deadline passes)
and returns a :class:`RunResult` exposing the paper's metrics.

Protocols are selected by a factory so MNP and the baselines run on
byte-identical channels (same seed => same per-edge loss factors), making
comparisons paired rather than merely sampled.
"""

from repro.core.config import MNPConfig
from repro.core.mnp import MNPNode
from repro.core.segments import CodeImage
from repro.hardware.mote import Mote, MoteConfig
from repro.metrics.collector import MetricsCollector
from repro.net.loss_models import EmpiricalLossModel
from repro.radio.channel import Channel
from repro.radio.propagation import PropagationModel
from repro.sim.kernel import MINUTE, SECOND, Simulator


def _make_mnp(mote, config, image):
    return MNPNode(mote, config=config, image=image)


#: Known protocol factories: name -> fn(mote, config, image_or_None).
#: Baselines register themselves here on import (see repro.baselines).
PROTOCOLS = {"mnp": _make_mnp}


def register_protocol(name, factory):
    """Register a protocol factory (used by the baselines package)."""
    PROTOCOLS[name] = factory


class RunResult:
    """Everything the evaluation section measures, for one run."""

    def __init__(self, deployment, deadline_hit):
        self.deployment = deployment
        self.sim = deployment.sim
        self.topology = deployment.topology
        self.nodes = deployment.nodes
        self.motes = deployment.motes
        self.collector = deployment.collector
        self.deadline_hit = deadline_hit

    # ------------------------------------------------------------------
    # Reliability (coverage + accuracy)
    # ------------------------------------------------------------------
    @property
    def all_complete(self):
        return all(n.has_full_image for n in self.nodes.values())

    @property
    def coverage(self):
        """Fraction of nodes holding the complete image."""
        done = sum(1 for n in self.nodes.values() if n.has_full_image)
        return done / len(self.nodes)

    # ------------------------------------------------------------------
    # Time metrics
    # ------------------------------------------------------------------
    @property
    def completion_time_ms(self):
        """Time the last node got the code (None if incomplete)."""
        if not self.all_complete:
            return None
        times = [
            n.got_code_time for n in self.nodes.values()
            if n.got_code_time is not None
        ]
        return max(times) if times else None

    @property
    def completion_time_min(self):
        t = self.completion_time_ms
        return None if t is None else t / MINUTE

    def got_code_times_ms(self):
        """node -> time it obtained the full image (base station: 0)."""
        return {
            node_id: n.got_code_time
            for node_id, n in self.nodes.items()
            if n.got_code_time is not None
        }

    # ------------------------------------------------------------------
    # Radio / energy metrics
    # ------------------------------------------------------------------
    def active_radio_ms(self):
        """node -> total time its radio was on (Fig. 8)."""
        return {
            node_id: mote.radio.on_time_ms()
            for node_id, mote in self.motes.items()
        }

    def active_radio_no_initial_ms(self):
        """node -> active radio time excluding the initial idle listening
        before the node's first advertisement arrived (Fig. 9)."""
        totals = self.active_radio_ms()
        out = {}
        for node_id, total in totals.items():
            snapshot = self.collector.first_adv.get(node_id)
            before = snapshot[1] if snapshot is not None else 0.0
            out[node_id] = max(0.0, total - before)
        return out

    def average_active_radio_s(self):
        values = self.active_radio_ms().values()
        return sum(values) / len(self.motes) / SECOND

    def energy_nah(self):
        """node -> total consumed charge per Table 1 accounting."""
        return {node_id: n.energy_nah() for node_id, n in self.nodes.items()}

    def idle_listening_savings(self):
        """Fraction of would-be idle-listening time eliminated by sleeping:
        1 - (mean active radio time / completion time)."""
        completion = self.completion_time_ms
        if not completion:
            return None
        mean_active = sum(self.active_radio_ms().values()) / len(self.motes)
        return 1.0 - mean_active / completion

    # ------------------------------------------------------------------
    # Message metrics
    # ------------------------------------------------------------------
    def messages_sent(self):
        return dict(self.collector.tx_by_node)

    def messages_received(self):
        return dict(self.collector.rx_by_node)

    def parent_map(self):
        """node -> the parent it last downloaded from (Figs. 5-7)."""
        return dict(self.collector.parents)

    def sender_order(self):
        return self.collector.sender_order()

    def to_dict(self):
        """The run's headline metrics as a JSON-ready dict (used by the
        CLI's machine-readable output and by replication tooling)."""
        energy = self.energy_nah()
        return {
            "coverage": self.coverage,
            "all_complete": self.all_complete,
            "completion_ms": self.completion_time_ms,
            "deadline_hit": self.deadline_hit,
            "nodes": len(self.nodes),
            "avg_active_radio_s": self.average_active_radio_s(),
            "idle_listening_savings": self.idle_listening_savings(),
            "messages_sent": sum(self.messages_sent().values()),
            "messages_received": sum(self.messages_received().values()),
            "collisions": self.collector.collisions,
            "mean_energy_nah": sum(energy.values()) / len(energy),
            "senders": len(self.sender_order()),
        }

    def summary_metrics(self):
        """Superset of :meth:`to_dict` used by the parallel runner: adds
        the derived per-run scalars the sweep/replication layers consume,
        so serial and parallel paths reduce runs identically."""
        from repro.sim.kernel import SECOND

        metrics = self.to_dict()
        completion = self.completion_time_ms
        art_ni = self.active_radio_no_initial_ms()
        metrics.update({
            "completion_s": completion / SECOND if completion else None,
            "art_s": metrics["avg_active_radio_s"],
            "art_no_init_s": sum(art_ni.values()) / len(art_ni) / SECOND,
            "image_bytes": self.deployment.image.size_bytes,
            "seed": self.deployment.seed,
        })
        return metrics

    def images_intact(self, reference_image):
        """Accuracy check: every complete node's EEPROM content equals the
        disseminated image byte-for-byte."""
        expected = reference_image.to_bytes()
        for node in self.nodes.values():
            if node.has_full_image and hasattr(node, "assemble_image"):
                if node.assemble_image() != expected:
                    return False
        return True


def grid_experiment(spec):
    """Runner executor for the standard large-grid run (``experiment="grid"``).

    ``spec.overrides`` may carry ``rows``, ``cols``, ``n_segments``,
    ``segment_packets``, ``deadline_min``, and (for MNP) a ``config`` dict
    of :class:`MNPConfig` keyword arguments; anything unspecified falls
    back to the spec's pinned scale.  Returns the run's
    :meth:`RunResult.summary_metrics`.
    """
    from repro.experiments.active_radio import run_simulation_grid
    from repro.experiments.scale import get_scale

    scale = get_scale(spec.scale)
    ov = spec.overrides
    config_kwargs = ov.get("config")
    config = MNPConfig(**config_kwargs) if config_kwargs else None
    run = run_simulation_grid(
        rows=ov.get("rows", scale.grid[0]),
        cols=ov.get("cols", scale.grid[1]),
        n_segments=ov.get("n_segments", scale.n_segments),
        segment_packets=ov.get("segment_packets", scale.segment_packets),
        seed=spec.seed,
        config=config,
        protocol=spec.protocol,
        deadline_min=ov.get("deadline_min", 480),
    )
    return run.summary_metrics()


class Deployment:
    """One simulated deployment of a dissemination protocol.

    Parameters
    ----------
    topology:
        Node placement.
    image:
        The :class:`CodeImage` to disseminate (default: 2 full segments).
    protocol:
        Key into :data:`PROTOCOLS` ("mnp", "deluge", ...).
    protocol_config:
        Passed to the protocol factory (e.g. :class:`MNPConfig`).
    base_id:
        The node that initially holds the image (default: the paper's
        convention, a corner of the deployment).
    propagation / loss_model / mote_config / seed:
        Channel and hardware parameters; the default channel is the
        TOSSIM-like lossy grid at full power.
    groups_by_node:
        §6 multi-subset extension: optional mapping ``node id -> iterable
        of group ids`` assigning group memberships (MNP only); nodes
        absent from the mapping belong to no group and ignore
        group-targeted objects.
    security:
        Optional :class:`repro.core.auth.SecurityConfig`.  When enabled,
        every node is armed with the secure OTA pipeline: the MNP family
        signs/verifies advertisements over the air, while baselines get
        the signed manifest pre-provisioned (their wire formats carry no
        signatures).  ``None`` (default) installs nothing at all.
    """

    def __init__(
        self,
        topology,
        image=None,
        protocol="mnp",
        protocol_config=None,
        base_id=None,
        propagation=None,
        loss_model=None,
        mote_config=None,
        seed=0,
        groups_by_node=None,
        security=None,
    ):
        self.topology = topology
        self.image = image or CodeImage.random(program_id=1, n_segments=2,
                                               seed=seed)
        self.seed = seed
        self.sim = Simulator(seed=seed)
        self.propagation = propagation or PropagationModel.outdoor()
        self.loss_model = loss_model or EmpiricalLossModel(seed=seed)
        self.channel = Channel(
            self.sim, topology, self.loss_model, self.propagation, seed=seed
        )
        self.collector = MetricsCollector(self.sim, self.channel)
        self.mote_config = mote_config or MoteConfig()
        self.base_id = (
            topology.corner_node("bottom-left") if base_id is None else base_id
        )
        try:
            factory = PROTOCOLS[protocol]
        except KeyError:
            raise ValueError(
                f"unknown protocol {protocol!r}; known: {sorted(PROTOCOLS)}"
            ) from None
        if protocol == "mnp" and protocol_config is None:
            protocol_config = MNPConfig()
        self.motes = {}
        self.nodes = {}
        for node_id in topology.node_ids():
            mote = Mote(self.sim, self.channel, node_id,
                        config=self.mote_config, seed=seed)
            self.motes[node_id] = mote
            node_image = self.image if node_id == self.base_id else None
            node = factory(mote, protocol_config, node_image)
            if groups_by_node is not None and hasattr(node, "groups"):
                node.groups = frozenset(groups_by_node.get(node_id, ()))
            self.nodes[node_id] = node
        self.security = security
        if security is not None and security.enabled:
            self._arm_security(security)

    def _arm_security(self, security):
        from repro.core.auth import ImageManifest

        manifest = ImageManifest.of_image(self.image, security.key)
        for node in self.nodes.values():
            if not hasattr(node, "configure_security"):
                continue
            if isinstance(node, MNPNode):
                # The MNP family learns the manifest over the air from
                # verified signed advertisements (bases sign their own).
                node.configure_security(security)
            else:
                node.configure_security(security, manifest=manifest)

    def install_all(self):
        """Drive the external start signal (§3.5) on every alive node
        holding a full image; returns ``{"installed": n, "rejected": n}``
        (nodes whose bootloader refused the staged image)."""
        installed = rejected = 0
        for node_id in sorted(self.nodes):
            if not self.motes[node_id].alive:
                continue
            node = self.nodes[node_id]
            if not node.has_full_image \
                    or not hasattr(node, "install_signal"):
                continue
            if node.install_signal():
                installed += 1
            else:
                rejected += 1
        return {"installed": installed, "rejected": rejected}

    def inject_outages(self, outages, nodes=None):
        """Wrap the channel's loss model with blackout windows (weather
        fades, interference bursts); see
        :class:`repro.net.loss_models.IntermittentLossModel`."""
        from repro.net.loss_models import IntermittentLossModel

        wrapped = IntermittentLossModel(self.sim, self.channel.loss_model,
                                        outages, nodes=nodes)
        self.channel.loss_model = wrapped
        self.loss_model = wrapped
        return wrapped

    def start(self):
        """Start every node (base stations begin advertising)."""
        for node in self.nodes.values():
            node.start()

    def run_to_completion(self, deadline_ms=4 * 60 * MINUTE,
                          check_every_ms=SECOND, settle_ms=0.0):
        """Start, run until all nodes have the image (or deadline), then
        optionally settle for ``settle_ms`` more, and return a RunResult."""
        self.start()
        done = self.sim.run_until(
            lambda: all(n.has_full_image for n in self.nodes.values()),
            check_every=check_every_ms,
            deadline=deadline_ms,
        )
        if done and settle_ms:
            self.sim.run(until=self.sim.now + settle_ms)
        return RunResult(self, deadline_hit=not done)
