"""The protocol-agnostic dissemination runner.

A :class:`Deployment` assembles simulator, channel, motes and protocol
nodes for one run; :meth:`Deployment.settle` drives the simulation until
every alive node holds the full image (or a deadline passes), and
:meth:`Deployment.run_to_completion` starts, settles and returns a
:class:`RunResult` exposing the paper's metrics.  :func:`grid_deployment`
builds the lossy grid of Figs. 8-13 that every grid experiment shares.

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
from repro.net.topology import Topology
from repro.radio.channel import Channel
from repro.radio.propagation import PropagationModel
from repro.sim.kernel import MINUTE, SECOND, Simulator

#: The TOSSIM-era radio reaches a couple of grid rings at 10 ft spacing.
RANGE_FT = 25.0
SPACING_FT = 10.0

#: Protocols that run MNP's control plane (and take an MNPConfig).
MNP_FAMILY = ("mnp", "coded_mnp")


#: Known protocol factories: name -> fn(mote, config, image_or_None),
#: typically the node class itself.  Baselines register themselves here
#: on import (see repro.baselines).
PROTOCOLS = {"mnp": MNPNode}


def register_protocol(name, factory):
    """Register a protocol factory (used by the baselines package)."""
    PROTOCOLS[name] = factory


class RunResult:
    """Everything the evaluation section measures, for one run.

    The one reader of a finished deployment: it decides which nodes
    count (the :attr:`alive` ones, which is every node unless a fault
    plan crashed some) and defines each headline number once.
    """

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
    def alive(self):
        """Ids of the nodes whose mote is up."""
        return [n for n, mote in self.motes.items() if mote.alive]

    @property
    def complete(self):
        """Ids of the alive nodes holding the full image."""
        return [n for n in self.alive if self.nodes[n].has_full_image]

    @property
    def all_complete(self):
        """Every alive node holds the full image (and one is alive)."""
        alive = self.alive
        return bool(alive) and len(self.complete) == len(alive)

    @property
    def coverage(self):
        """Fraction of the alive nodes holding the complete image."""
        alive = self.alive
        return len(self.complete) / len(alive) if alive else 0.0

    def images(self):
        """Complete node id -> its image read back from flash."""
        return {n: self.nodes[n].assemble_image() for n in self.complete}

    @property
    def corrupt_images(self):
        """Complete nodes whose flash differs from the deployment's image."""
        expected = self.deployment.image.to_bytes()
        return sum(1 for image in self.images().values() if image != expected)

    def images_intact(self, reference_image):
        """Accuracy check: every complete node's EEPROM content equals
        ``reference_image`` byte-for-byte."""
        expected = reference_image.to_bytes()
        return all(image == expected for image in self.images().values())

    @property
    def fails(self):
        """Fail-state entries over every node (protocols without a fail
        state count none)."""
        return sum(getattr(n, "fails", 0) for n in self.nodes.values())

    @property
    def auth_rejects(self):
        return sum(n.auth_rejects for n in self.nodes.values())

    @property
    def quarantines(self):
        return sum(n.quarantines for n in self.nodes.values())

    # ------------------------------------------------------------------
    # Time metrics
    # ------------------------------------------------------------------
    @property
    def completion_time_ms(self):
        """Time the last alive node got the code (None if incomplete)."""
        if not self.all_complete:
            return None
        times = [
            self.nodes[n].got_code_time for n in self.complete
            if self.nodes[n].got_code_time is not None
        ]
        return max(times) if times else None

    @property
    def completion_s(self):
        """:attr:`completion_time_ms` in seconds; None when incomplete,
        and for a lone base station, which "completes" at 0 ms."""
        t = self.completion_time_ms
        return t / SECOND if t else None

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

    @property
    def mean_energy_nah(self):
        energy = self.energy_nah()
        return sum(energy.values()) / len(energy)

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
    @property
    def messages(self):
        """Transmissions started, aborted ones included."""
        return len(self.collector.tx_log)

    @property
    def data_tx(self):
        """Data frames sent (``DataPacket``, coded ones excluded)."""
        return sum(
            1 for _, _, kind in self.collector.tx_log if kind == "DataPacket"
        )

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
        return {
            "coverage": self.coverage,
            "all_complete": self.all_complete,
            "completion_ms": self.completion_time_ms,
            "deadline_hit": self.deadline_hit,
            "nodes": len(self.nodes),
            "avg_active_radio_s": self.average_active_radio_s(),
            "idle_listening_savings": self.idle_listening_savings(),
            "messages_sent": self.messages,
            "messages_received": sum(self.messages_received().values()),
            "collisions": self.collector.collisions,
            "mean_energy_nah": self.mean_energy_nah,
            "senders": len(self.sender_order()),
        }

    def summary_metrics(self):
        """Superset of :meth:`to_dict` used by the parallel runner: adds
        the derived per-run scalars the sweep/replication layers consume,
        so serial and parallel paths reduce runs identically."""
        metrics = self.to_dict()
        art_ni = self.active_radio_no_initial_ms()
        metrics.update({
            "completion_s": self.completion_s,
            "art_s": metrics["avg_active_radio_s"],
            "art_no_init_s": sum(art_ni.values()) / len(art_ni) / SECOND,
            "image_bytes": self.deployment.image.size_bytes,
            "seed": self.deployment.seed,
        })
        return metrics


def grid_experiment(spec, **overrides):
    """Runner executor for the standard large-grid run (``experiment="grid"``).

    The overrides are the keyword arguments of
    :func:`~repro.experiments.active_radio.run_simulation_grid` (for the
    MNP family, ``config`` may be a dict of :class:`MNPConfig` keyword
    arguments), whose signature holds their defaults; a grid or image
    size not given is the spec's pinned scale's.  Returns the run's
    :meth:`RunResult.summary_metrics`.
    """
    from repro.experiments.active_radio import run_simulation_grid
    from repro.experiments.scale import get_scale

    scale = get_scale(spec.scale)
    kwargs = {"rows": scale.grid[0], "cols": scale.grid[1],
              "n_segments": scale.n_segments,
              "segment_packets": scale.segment_packets, **overrides}
    return run_simulation_grid(seed=spec.seed, protocol=spec.protocol,
                               **kwargs).summary_metrics()


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
        An :class:`MNPConfig` for the MNP family (default: the stock
        config).  Baselines take none: their parameters are constants on
        their node classes, and they raise :class:`TypeError` if given one.
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
        self.started = False

    def _arm_security(self, security):
        from repro.core.auth import ImageManifest

        manifest = ImageManifest.of_image(self.image, security.key)
        for node in self.nodes.values():
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
            if not node.has_full_image:
                continue
            if node.install_signal():
                installed += 1
            else:
                rejected += 1
        return {"installed": installed, "rejected": rejected}

    def start(self):
        """Start every node (base stations begin advertising), once: a
        second start would re-boot every node mid-run."""
        if self.started:
            raise RuntimeError("deployment already started")
        self.started = True
        for node in self.nodes.values():
            node.start()

    def settle(self, deadline_ms, not_before_ms=0.0):
        """Run until every *alive* node holds the full image, and not
        before ``not_before_ms``, or until ``deadline_ms``.  Polls once
        per simulated second; returns True if the run settled."""
        nodes, motes, sim = self.nodes, self.motes, self.sim

        def settled():
            if sim.now < not_before_ms:
                return False
            return all(
                nodes[n].has_full_image for n in nodes if motes[n].alive
            )

        return sim.run_until(settled, check_every=SECOND,
                             deadline=deadline_ms)

    def run_to_completion(self, deadline_ms=4 * 60 * MINUTE):
        """Start (unless started already), :meth:`settle`, and return a
        RunResult."""
        if not self.started:
            self.start()
        return RunResult(self, deadline_hit=not self.settle(deadline_ms))


def grid_deployment(rows, cols, protocol, n_segments, segment_packets, seed,
                    config=None, security=None, spacing_ft=SPACING_FT,
                    range_ft=RANGE_FT, loss_model=None, mote_config=None):
    """The lossy grid of Figs. 8-13, the one recipe every grid run
    shares: ``rows`` x ``cols`` nodes at ``spacing_ft``, a ``range_ft``
    radio, the empirical loss model (unless ``loss_model`` is given) and
    a random image, all seeded by ``seed``.

    ``config`` (an :class:`MNPConfig` or its kwargs; None is the stock
    config) goes to the protocol unchanged, so a baseline handed one
    raises :class:`TypeError`.  ``security`` and ``mote_config`` are
    :class:`Deployment`'s.
    """
    image = CodeImage.random(1, n_segments=n_segments,
                             segment_packets=segment_packets, seed=seed)
    if isinstance(config, dict):
        config = MNPConfig(**config)
    return Deployment(
        Topology.grid(rows, cols, spacing_ft), image=image,
        protocol=protocol, protocol_config=config, seed=seed,
        propagation=PropagationModel(range_ft, 3.0), loss_model=loss_model,
        mote_config=mote_config, security=security,
    )
