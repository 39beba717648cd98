"""Compact, JSON-round-trippable scenario descriptions.

A :class:`ScenarioSpec` pins down *everything* one conformance scenario
depends on -- topology, image geometry, radio power, channel model, MNP
configuration, optional fault plan -- as plain JSON scalars and dicts, so
a scenario can ride inside a :class:`repro.runner.RunSpec`'s overrides,
be persisted into ``tests/corpus/``, and be rebuilt bit-identically in a
worker process or a later session.

Two properties are load-bearing:

* **Purity** -- the simulation a spec describes is a pure function of the
  spec: :meth:`build_topology` and :meth:`build_image` derive every random
  choice from seeds stored *in* the spec (``placement_seed``, ``seed``),
  never from ambient state.  Same spec, same bits.
* **Shrinkability** -- every field the shrinking reducer wants to
  simplify (node count, image size, fault events, config overrides) is
  individually replaceable via :meth:`replace`, and validation lives in
  ``__init__`` so a malformed shrink candidate fails loudly at
  construction, not mid-simulation.
"""

import hashlib
import json
import math

from repro.core.segments import (
    MAX_SEGMENT_PACKETS,
    PACKET_PAYLOAD_BYTES,
    CodeImage,
)
from repro.net.topology import Topology
from repro.sim.rng import derive_rng

#: Topology kinds the generator samples and the builders understand.
TOPOLOGY_KINDS = ("grid", "random", "clustered")

#: Channel loss-model kinds.
LOSS_KINDS = ("perfect", "uniform", "empirical")

#: Deliberate post-run damage modes used to validate the conformance
#: pipeline itself (oracle self-tests and the shrinker acceptance test):
#: ``double-write`` rewrites one already-stored packet on one node (a
#: write-once invariant breach); ``corrupt-content`` flips one stored
#: payload byte (a content-agreement breach).  ``None`` for real runs.
SABOTAGE_MODES = (None, "double-write", "corrupt-content")


class ScenarioSpec:
    """One conformance scenario, declaratively.

    Parameters
    ----------
    seed:
        Master seed: image bytes, channel realization, and protocol
        jitter all derive from it.
    topology:
        ``{"kind": "grid", "rows": r, "cols": c, "spacing_ft": s}``,
        ``{"kind": "random", "n": n, "side_ft": a, "placement_seed": p}``
        or ``{"kind": "clustered", "clusters": k, "per_cluster": m,
        "pitch_ft": d, "placement_seed": p}``.
    image:
        ``{"n_segments": k, "segment_packets": p, "tail_packets": t,
        "trim_bytes": b}``: ``k - 1`` full segments plus a tail segment
        of ``t <= p`` packets, with the very last packet shortened by
        ``b < PACKET_PAYLOAD_BYTES`` bytes (uneven images, §3.1.2).
    power_level / range_ft:
        TinyOS power level (1..255) and the full-power radio range.
    loss:
        ``{"kind": "perfect"}``, ``{"kind": "uniform", "ber": x}`` or
        ``{"kind": "empirical"}`` (seeded from ``seed``).
    config:
        :class:`repro.core.config.MNPConfig` keyword overrides (possibly
        empty) applied to the MNP runs of the scenario.
    faults:
        A :meth:`repro.faults.FaultPlan.to_dict` dict, or None.
    deadline_min:
        Virtual-time budget per run.
    sabotage:
        One of :data:`SABOTAGE_MODES`; self-test hook, normally None.
    """

    FIELDS = ("seed", "topology", "image", "power_level", "range_ft",
              "loss", "config", "faults", "deadline_min", "sabotage",
              "security")

    def __init__(self, seed=0, topology=None, image=None, power_level=255,
                 range_ft=25.0, loss=None, config=None, faults=None,
                 deadline_min=240.0, sabotage=None, security=None):
        self.seed = int(seed)
        self.topology = dict(topology or {"kind": "grid", "rows": 3,
                                          "cols": 3, "spacing_ft": 10.0})
        self.image = dict(image or {"n_segments": 1, "segment_packets": 8,
                                    "tail_packets": 8, "trim_bytes": 0})
        self.image.setdefault("tail_packets",
                              self.image["segment_packets"])
        self.image.setdefault("trim_bytes", 0)
        self.power_level = int(power_level)
        self.range_ft = float(range_ft)
        self.loss = dict(loss or {"kind": "empirical"})
        self.config = dict(config or {})
        self.faults = None if faults is None else dict(faults)
        self.deadline_min = float(deadline_min)
        self.sabotage = sabotage
        self.security = None if security is None else dict(security)
        self._validate()

    # ------------------------------------------------------------------
    def _validate(self):
        # Lengths and times are checked as the range a valid value lies
        # in, so NaN and infinity fail too.
        topo = self.topology
        if topo.get("kind") not in TOPOLOGY_KINDS:
            raise ValueError(f"unknown topology kind {topo.get('kind')!r}")
        if topo["kind"] == "grid":
            if topo["rows"] < 1 or topo["cols"] < 1:
                raise ValueError("grid dimensions must be positive")
            if topo["rows"] * topo["cols"] < 2:
                raise ValueError("a scenario needs at least two nodes")
            if not 0 < topo["spacing_ft"] < math.inf:
                raise ValueError("spacing_ft must be finite and positive")
        elif topo["kind"] == "random":
            if topo["n"] < 2:
                raise ValueError("a scenario needs at least two nodes")
            if not 0 < topo["side_ft"] < math.inf:
                raise ValueError("side_ft must be finite and positive")
        else:  # clustered
            if topo["clusters"] < 1 or topo["per_cluster"] < 1:
                raise ValueError("cluster counts must be positive")
            if topo["clusters"] * topo["per_cluster"] < 2:
                raise ValueError("a scenario needs at least two nodes")
            if not 0 < topo["pitch_ft"] < math.inf:
                raise ValueError("pitch_ft must be finite and positive")
        img = self.image
        if img["n_segments"] < 1:
            raise ValueError("need at least one segment")
        if not 1 <= img["segment_packets"] <= MAX_SEGMENT_PACKETS:
            raise ValueError(
                f"segment_packets must be 1..{MAX_SEGMENT_PACKETS}")
        if not 1 <= img["tail_packets"] <= img["segment_packets"]:
            raise ValueError("tail_packets must be 1..segment_packets")
        if not 0 <= img["trim_bytes"] < PACKET_PAYLOAD_BYTES:
            raise ValueError(
                f"trim_bytes must be 0..{PACKET_PAYLOAD_BYTES - 1}")
        if not 1 <= self.power_level <= 255:
            raise ValueError("power_level must be 1..255")
        if not 0 < self.range_ft < math.inf:
            raise ValueError("range_ft must be finite and positive")
        if self.loss.get("kind") not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss.get('kind')!r}")
        if self.loss["kind"] == "uniform" and not \
                0.0 <= self.loss.get("ber", -1) < 1.0:
            raise ValueError("uniform loss needs ber in [0,1)")
        if not 0 < self.deadline_min < math.inf:
            raise ValueError("deadline_min must be finite and positive")
        if self.sabotage not in SABOTAGE_MODES:
            raise ValueError(f"unknown sabotage mode {self.sabotage!r}")
        if self.faults is not None:
            # Building the plan runs the builders' checks on every spec.
            from repro.faults.plan import FaultPlan

            FaultPlan.from_dict(self.faults)
        if self.security is not None:
            # Round-trip through SecurityConfig validates the shape (and
            # the hex key) loudly at construction time.
            from repro.core.auth import SecurityConfig

            SecurityConfig.from_dict(self.security)

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def n_nodes(self):
        topo = self.topology
        if topo["kind"] == "grid":
            return topo["rows"] * topo["cols"]
        if topo["kind"] == "random":
            return topo["n"]
        return topo["clusters"] * topo["per_cluster"]

    @property
    def total_packets(self):
        img = self.image
        return (img["n_segments"] - 1) * img["segment_packets"] \
            + img["tail_packets"]

    @property
    def image_bytes(self):
        return self.total_packets * PACKET_PAYLOAD_BYTES \
            - self.image["trim_bytes"]

    # ------------------------------------------------------------------
    # Builders (pure functions of the spec)
    # ------------------------------------------------------------------
    def build_topology(self):
        topo = self.topology
        if topo["kind"] == "grid":
            return Topology.grid(topo["rows"], topo["cols"],
                                 topo["spacing_ft"])
        if topo["kind"] == "random":
            rng = derive_rng(topo.get("placement_seed", 0),
                             "conformance-placement")
            return Topology.random_uniform(topo["n"], topo["side_ft"],
                                           topo["side_ft"], rng)
        # Clustered: cluster centres on a line ``pitch_ft`` apart, nodes
        # scattered gaussianly around their centre.
        rng = derive_rng(topo.get("placement_seed", 0),
                         "conformance-placement")
        spread = topo["pitch_ft"] / 4.0
        positions = []
        for cluster in range(topo["clusters"]):
            cx = cluster * topo["pitch_ft"]
            for _ in range(topo["per_cluster"]):
                positions.append((cx + rng.gauss(0.0, spread),
                                  rng.gauss(0.0, spread)))
        return Topology(positions)

    def build_image(self, segment_packets=None, program_id=1):
        """The scenario's code image.

        The raw bytes depend only on ``(seed, image_bytes)``; passing a
        different ``segment_packets`` re-splits the *same* bytes, which
        is exactly what the segment-size-invariance oracle compares.
        """
        if segment_packets is None:
            segment_packets = self.image["segment_packets"]
        rng = derive_rng(self.seed, "conformance-image", program_id)
        data = bytes(rng.getrandbits(8) for _ in range(self.image_bytes))
        return CodeImage.from_bytes(program_id, data,
                                    segment_packets=segment_packets)

    def build_security(self):
        """The spec's :class:`~repro.core.auth.SecurityConfig` (or None,
        the default, which installs nothing at all)."""
        if self.security is None:
            return None
        from repro.core.auth import SecurityConfig

        return SecurityConfig.from_dict(self.security)

    def build_loss_model(self):
        from repro.net.loss_models import (
            EmpiricalLossModel,
            PerfectLossModel,
            UniformLossModel,
        )

        kind = self.loss["kind"]
        if kind == "perfect":
            return PerfectLossModel()
        if kind == "uniform":
            return UniformLossModel(self.loss["ber"])
        return EmpiricalLossModel(seed=self.seed)

    def effective_range_ft(self):
        """Communication range at this spec's power level."""
        from repro.radio.propagation import PropagationModel

        return PropagationModel(self.range_ft, 3.0).range_ft(
            self.power_level)

    def is_connected(self, margin=1.0):
        """Whether the built topology is connected at ``margin`` times
        the effective range (margin < 1 demands link slack)."""
        from repro.net.connectivity import is_connected

        return is_connected(self.build_topology(),
                            self.effective_range_ft() * margin)

    def is_single_hop(self, margin=1.0):
        """Every node in direct range of the base corner (node XNP can
        serve; XNP is single-hop by design).  ``margin < 1`` demands link
        slack -- XNP's bounded query rounds cannot beat grey-region
        links, so its coverage oracle only applies with room to spare."""
        topo = self.build_topology()
        base = topo.corner_node("bottom-left")
        reach = topo.nodes_within(base, self.effective_range_ft() * margin)
        return len(reach) == len(topo) - 1

    def is_solvable(self):
        """Whether the paper's 100%-delivery guarantee applies: network
        connected (with grey-region slack on the empirical channel), no
        injected faults, no sabotage."""
        if self.faults is not None or self.sabotage is not None:
            return False
        margin = 0.8 if self.loss["kind"] == "empirical" else 1.0
        return self.is_connected(margin=margin)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self):
        data = {
            "seed": self.seed,
            "topology": dict(self.topology),
            "image": dict(self.image),
            "power_level": self.power_level,
            "range_ft": self.range_ft,
            "loss": dict(self.loss),
            "config": dict(self.config),
            "faults": None if self.faults is None else dict(self.faults),
            "deadline_min": self.deadline_min,
            "sabotage": self.sabotage,
        }
        # Omitted when None so every pre-security corpus key (and run
        # cache entry) is unchanged.
        if self.security is not None:
            data["security"] = dict(self.security)
        return data

    @classmethod
    def from_dict(cls, data):
        unknown = set(data) - set(cls.FIELDS)
        if unknown:
            raise ValueError(f"unknown ScenarioSpec fields: {sorted(unknown)}")
        return cls(**data)

    def replace(self, **overrides):
        """A validated copy with the given fields changed (shrinking)."""
        fields = self.to_dict()
        unknown = set(overrides) - set(self.FIELDS)
        if unknown:
            raise ValueError(f"unknown ScenarioSpec fields: {sorted(unknown)}")
        fields.update(overrides)
        return ScenarioSpec(**fields)

    def key(self):
        """Stable short content hash (names corpus artifacts)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    def label(self):
        topo = self.topology
        if topo["kind"] == "grid":
            shape = f"grid {topo['rows']}x{topo['cols']}"
        elif topo["kind"] == "random":
            shape = f"random n={topo['n']}"
        else:
            shape = f"clustered {topo['clusters']}x{topo['per_cluster']}"
        img = self.image
        extras = []
        if self.faults:
            extras.append(f"{len(self.faults.get('specs', ()))} fault(s)")
        if self.sabotage:
            extras.append(f"sabotage={self.sabotage}")
        if self.security is not None and self.security.get("enabled"):
            extras.append("secure")
        tail = f" [{', '.join(extras)}]" if extras else ""
        return (f"{shape} seed={self.seed} "
                f"img={img['n_segments']}x{img['segment_packets']}pk "
                f"pow={self.power_level} loss={self.loss['kind']}{tail}")

    def __eq__(self, other):
        return (isinstance(other, ScenarioSpec)
                and self.to_dict() == other.to_dict())

    def __repr__(self):
        return f"<ScenarioSpec {self.key()} {self.label()}>"
