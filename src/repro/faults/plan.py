"""Declarative fault plans.

A :class:`FaultPlan` is an ordered list of fault *specs* -- plain,
JSON-representable dicts -- describing what should go wrong in a run and
when.  Plans are data, not behaviour: the
:class:`repro.faults.controller.FaultController` compiles a plan against a
concrete :class:`repro.experiments.common.Deployment`, deriving every
random choice (which nodes crash, which writes fail, which bits flip) from
``derive_rng(seed, "faults", plan.salt, ...)`` streams that are disjoint
from the simulation's own randomness.  The same ``(plan, seed)`` therefore
always produces the same faults, and an *empty* plan installs nothing at
all, leaving golden runs bit-identical.

Because a plan round-trips through :meth:`to_dict` / :meth:`from_dict`, it
can ride inside a :class:`repro.runner.RunSpec`'s overrides: chaos sweeps
get the cached, parallel experiment machinery for free.
:meth:`from_dict` rebuilds each spec through its builder, so a plan read
from JSON gets the same checks as one built in code.

Times are milliseconds of virtual time, matching the kernel.  Numbers
are checked as the range a valid value lies in, with a finite upper
bound, so NaN (false against every bound) and infinity fail too.
"""

import math


def _time(value, what):
    if not 0 <= value < math.inf:
        raise ValueError(f"{what} must be finite and >= 0, got {value}")


def _duration(value, what):
    if not 0 < value < math.inf:
        raise ValueError(f"{what} must be finite and positive, got {value}")


def _count(value, what):
    if not 1 <= value < math.inf:
        raise ValueError(f"{what} must be finite and >= 1, got {value}")


def _window(start_ms, end_ms):
    _time(start_ms, "start_ms")
    if end_ms is not None and not start_ms < end_ms < math.inf:
        raise ValueError(f"empty or unbounded fault window "
                         f"({start_ms}, {end_ms})")
    return float(start_ms), None if end_ms is None else float(end_ms)


def _probability(p, what):
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{what} must be in [0,1], got {p}")
    return float(p)


def _node_choice(nodes, count, what):
    """Validate the explicit-nodes / random-count pair of a spec."""
    if nodes is not None and count is not None:
        raise ValueError(f"{what}: give nodes or count, not both")
    if nodes is None and count is None:
        raise ValueError(f"{what}: give nodes=[...] or count=N")
    if count is not None:
        _count(count, f"{what}: count")
    return (None if nodes is None else sorted(nodes),
            None if count is None else int(count))


class FaultPlan:
    """An ordered, composable list of fault specs.

    Builder methods append one spec each and return ``self`` so plans
    chain::

        plan = (FaultPlan()
                .crash(at_ms=30_000, count=2, restart_after_ms=60_000)
                .eeprom_corruption(probability=0.01, count=3)
                .link_degradation(start_ms=0, end_ms=120_000,
                                  ber_factor=30.0))

    ``salt`` namespaces the plan's derived random streams, so two
    otherwise-identical plans can produce independent fault draws.
    """

    def __init__(self, salt=""):
        self.salt = salt
        self.specs = []

    # -- composition ---------------------------------------------------
    @property
    def is_empty(self):
        return not self.specs

    def __len__(self):
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    # -- node faults ---------------------------------------------------
    def crash(self, at_ms, nodes=None, count=None, restart_after_ms=None):
        """Hard node failure at ``at_ms``: MCU dead, radio off, timers
        inert.  ``restart_after_ms`` (optional) revives the node that
        much later; it cold-boots the protocol but keeps its EEPROM."""
        _time(at_ms, "at_ms")
        if restart_after_ms is not None:
            _duration(restart_after_ms, "restart_after_ms")
        nodes, count = _node_choice(nodes, count, "crash")
        self.specs.append({
            "kind": "crash",
            "at_ms": float(at_ms),
            "nodes": nodes,
            "count": count,
            "restart_after_ms": (
                None if restart_after_ms is None else float(restart_after_ms)
            ),
        })
        return self

    def brownout(self, at_ms, duration_ms, nodes=None, count=None,
                 battery_sag=0.0):
        """Supply dip: the radio drops out for ``duration_ms`` (protocol
        state and timers survive -- the MCU stays up), and ``battery_sag``
        of the battery's capacity is lost to the transient."""
        _time(at_ms, "at_ms")
        _duration(duration_ms, "duration_ms")
        _probability(battery_sag, "battery_sag")
        nodes, count = _node_choice(nodes, count, "brownout")
        self.specs.append({
            "kind": "brownout",
            "at_ms": float(at_ms),
            "duration_ms": float(duration_ms),
            "nodes": nodes,
            "count": count,
            "battery_sag": float(battery_sag),
        })
        return self

    # -- storage faults ------------------------------------------------
    def eeprom_failures(self, probability, nodes=None, count=None,
                        start_ms=0.0, end_ms=None):
        """Each EEPROM write on an afflicted node fails (raises
        ``EepromError``, nothing stored) with ``probability`` while the
        window is open.  ``end_ms=None`` leaves it open for the run."""
        _probability(probability, "probability")
        nodes, count = _node_choice(nodes, count, "eeprom_failures")
        start_ms, end_ms = _window(start_ms, end_ms)
        self.specs.append({
            "kind": "eeprom",
            "mode": "fail",
            "probability": float(probability),
            "nodes": nodes,
            "count": count,
            "start_ms": start_ms,
            "end_ms": end_ms,
        })
        return self

    def eeprom_corruption(self, probability, nodes=None, count=None,
                          flips=1, start_ms=0.0, end_ms=None):
        """Each EEPROM write silently stores ``flips`` flipped bits with
        ``probability``; the damage surfaces later as an image CRC
        mismatch (`verify_image` / `images_intact`)."""
        _probability(probability, "probability")
        _count(flips, "flips")
        nodes, count = _node_choice(nodes, count, "eeprom_corruption")
        start_ms, end_ms = _window(start_ms, end_ms)
        self.specs.append({
            "kind": "eeprom",
            "mode": "corrupt",
            "probability": float(probability),
            "flips": int(flips),
            "nodes": nodes,
            "count": count,
            "start_ms": start_ms,
            "end_ms": end_ms,
        })
        return self

    # -- channel faults ------------------------------------------------
    def link_degradation(self, start_ms, end_ms, ber_factor,
                         ber_floor=0.0, nodes=None):
        """Multiply every (or the given nodes') link BER by ``ber_factor``
        (floored at ``ber_floor``) inside the window; see
        :class:`repro.net.loss_models.DegradedLossModel`."""
        start_ms, end_ms = _window(start_ms, end_ms)
        if end_ms is None:
            raise ValueError("link_degradation needs a bounded window")
        if not 1.0 <= ber_factor < math.inf:
            raise ValueError("ber_factor must be finite and >= 1")
        if not 0.0 <= ber_floor <= 0.5:
            raise ValueError("ber_floor must be in [0, 0.5]")
        self.specs.append({
            "kind": "link",
            "start_ms": start_ms,
            "end_ms": end_ms,
            "ber_factor": float(ber_factor),
            "ber_floor": float(ber_floor),
            "nodes": None if nodes is None else sorted(nodes),
        })
        return self

    def partition(self, start_ms, end_ms, groups):
        """Sever all links between the given node groups inside the
        window; see :class:`repro.net.loss_models.PartitionLossModel`."""
        start_ms, end_ms = _window(start_ms, end_ms)
        if end_ms is None:
            raise ValueError("partition needs a bounded window")
        groups = [sorted(g) for g in groups]
        if sum(1 for g in groups if g) < 2:
            raise ValueError("a partition needs at least two groups")
        self.specs.append({
            "kind": "partition",
            "start_ms": start_ms,
            "end_ms": end_ms,
            "groups": groups,
        })
        return self

    def decode_corruption(self, probability, pass_fraction=0.05,
                          start_ms=0.0, end_ms=None):
        """Corrupt received frames with ``probability`` inside the
        window.  The link-layer CRC catches most corruption (the frame is
        dropped); ``pass_fraction`` of corrupted frames slip through with
        one protocol header field damaged, exercising the receivers'
        defensive decode paths."""
        _probability(probability, "probability")
        _probability(pass_fraction, "pass_fraction")
        start_ms, end_ms = _window(start_ms, end_ms)
        self.specs.append({
            "kind": "decode",
            "probability": float(probability),
            "pass_fraction": float(pass_fraction),
            "start_ms": start_ms,
            "end_ms": end_ms,
        })
        return self

    # -- adversarial faults (secure-OTA attack surface) ----------------
    def forged_advertisements(self, probability, version_bump=1,
                              start_ms=0.0, end_ms=None):
        """An in-range attacker rewrites overheard advertisements (or
        Deluge summaries) to claim a "newer" program version it cannot
        sign.  Unsecured nodes chase the phantom version; secured nodes
        reject the bad signature / unpinned version and keep going."""
        _probability(probability, "probability")
        _count(version_bump, "version_bump")
        start_ms, end_ms = _window(start_ms, end_ms)
        self.specs.append({
            "kind": "adversary",
            "attack": "forge_adv",
            "probability": float(probability),
            "version_bump": int(version_bump),
            "start_ms": start_ms,
            "end_ms": end_ms,
        })
        return self

    def payload_tampering(self, probability, flips=1, start_ms=0.0,
                          end_ms=None):
        """Data-packet payload bytes are flipped in flight *after* the
        link-layer CRC is (re)computed, so the frame arrives looking
        valid; only the manifest's per-segment hash chain catches it."""
        _probability(probability, "probability")
        _count(flips, "flips")
        start_ms, end_ms = _window(start_ms, end_ms)
        self.specs.append({
            "kind": "adversary",
            "attack": "tamper_payload",
            "probability": float(probability),
            "flips": int(flips),
            "start_ms": start_ms,
            "end_ms": end_ms,
        })
        return self

    def replayed_manifest(self, probability, start_ms=0.0, end_ms=None):
        """A captured signed advertisement (manifest and all) is replayed
        verbatim later.  The signature is genuine, so only nonce
        freshness / version rollback refusal stops the receiver from
        re-adopting a stale image."""
        _probability(probability, "probability")
        start_ms, end_ms = _window(start_ms, end_ms)
        self.specs.append({
            "kind": "adversary",
            "attack": "replay_adv",
            "probability": float(probability),
            "start_ms": start_ms,
            "end_ms": end_ms,
        })
        return self

    def segment_swap(self, probability, start_ms=0.0, end_ms=None):
        """Individually valid data packets are re-addressed to a sibling
        packet slot, assembling a shuffled image out of authentic pieces;
        per-packet CRCs cannot see it, the hash chain can."""
        _probability(probability, "probability")
        start_ms, end_ms = _window(start_ms, end_ms)
        self.specs.append({
            "kind": "adversary",
            "attack": "swap_segments",
            "probability": float(probability),
            "start_ms": start_ms,
            "end_ms": end_ms,
        })
        return self

    # -- serialisation -------------------------------------------------
    def to_dict(self):
        """JSON-ready representation (rides in RunSpec overrides)."""
        return {"salt": self.salt, "specs": [dict(s) for s in self.specs]}

    @classmethod
    def from_dict(cls, data):
        """Rebuild a :meth:`to_dict` plan through the builders, so each
        spec gets their checks (:class:`ValueError` on a bad one)."""
        plan = cls(salt=data.get("salt", ""))
        for spec in data.get("specs", ()):
            fields = dict(spec)
            key = (fields.pop("kind", None),
                   fields.pop("mode", None) or fields.pop("attack", None))
            builder = _BUILDERS.get(key)
            if builder is None:
                raise ValueError(f"unknown fault spec {spec!r}")
            builder(plan, **fields)
        return plan

    def __repr__(self):
        kinds = ",".join(s["kind"] for s in self.specs) or "empty"
        return f"<FaultPlan [{kinds}]>"


#: ``(kind, mode or attack)`` of a spec -> the builder that makes it.
_BUILDERS = {
    ("crash", None): FaultPlan.crash,
    ("brownout", None): FaultPlan.brownout,
    ("eeprom", "fail"): FaultPlan.eeprom_failures,
    ("eeprom", "corrupt"): FaultPlan.eeprom_corruption,
    ("link", None): FaultPlan.link_degradation,
    ("partition", None): FaultPlan.partition,
    ("decode", None): FaultPlan.decode_corruption,
    ("adversary", "forge_adv"): FaultPlan.forged_advertisements,
    ("adversary", "tamper_payload"): FaultPlan.payload_tampering,
    ("adversary", "replay_adv"): FaultPlan.replayed_manifest,
    ("adversary", "swap_segments"): FaultPlan.segment_swap,
}
