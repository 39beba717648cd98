"""Compiles a :class:`repro.faults.plan.FaultPlan` against a deployment.

The controller is the only piece of the fault subsystem that touches the
simulation: it schedules crash/restart/brownout events, installs EEPROM
write hooks, wraps the channel's loss model, and installs the channel's
decode hook.  Three properties are load-bearing:

* **Determinism** -- every random choice comes from
  ``derive_rng(seed, "faults", plan.salt, spec_index, ...)`` streams.
  The simulation's own RNGs are never touched, so the same ``(plan,
  seed)`` yields the same faults and -- crucially -- an installed hook
  that happens not to fire cannot perturb the clean run's draws.
* **Zero-fault transparency** -- an empty plan installs *nothing*: no
  events, no hooks, no loss-model wrapping.  Golden runs stay
  bit-identical with the fault subsystem imported and armed.
* **Observability** -- every injected fault is published on the tracer
  (``fault.crash`` / ``fault.restart`` / ``fault.brownout`` /
  ``fault.eeprom`` / ``fault.decode`` / ``fault.adversary``) so the
  invariant watchdog and the chaos report see exactly what was done to
  the network.
"""

import copy
from collections import Counter

from repro.faults.plan import FaultPlan
from repro.hardware.eeprom import EepromError
from repro.net.loss_models import DegradedLossModel, PartitionLossModel
from repro.sim.rng import derive_rng


def _in_window(start_ms, end_ms, now):
    return now >= start_ms and (end_ms is None or now < end_ms)


def _flip_bits(data, flips, rng):
    """Return ``data`` with ``flips`` random bits flipped (never a no-op
    for non-empty data)."""
    if not data:
        return data
    out = bytearray(data)
    for _ in range(flips):
        index = rng.randrange(len(out))
        out[index] ^= 1 << rng.randrange(8)
    return bytes(out)


class FaultController:
    """Arms one deployment with one fault plan.

    Parameters
    ----------
    deployment:
        The :class:`repro.experiments.common.Deployment` to afflict.
    plan:
        A :class:`FaultPlan` (or its :meth:`~FaultPlan.to_dict` form).
    seed:
        Fault-stream seed; defaults to the deployment's seed, so a chaos
        run is fully determined by ``(seed, plan)``.

    Call :meth:`install` once, before the simulation starts.
    """

    def __init__(self, deployment, plan, seed=None):
        if isinstance(plan, dict):
            plan = FaultPlan.from_dict(plan)
        self.deployment = deployment
        self.plan = plan
        self.seed = deployment.seed if seed is None else seed
        self.sim = deployment.sim
        self.counts = Counter()
        self.crashed_nodes = set()
        self.restarted_nodes = set()
        self.corrupted_keys = {}  # node -> set of corrupted EEPROM keys
        # Latest virtual time at which this plan can still inject a
        # *bounded* fault; run predicates use it to keep a run alive
        # until the last scheduled fault has had its chance.
        self.last_fault_ms = 0.0
        self._installed = False

    # ------------------------------------------------------------------
    def _rng(self, *labels):
        return derive_rng(self.seed, "faults", self.plan.salt, *labels)

    def _pick_nodes(self, spec, index):
        """The node set a spec afflicts: explicit, or a deterministic
        random draw (never the base station)."""
        if spec["nodes"] is not None:
            return list(spec["nodes"])
        candidates = sorted(
            nid for nid in self.deployment.nodes
            if nid != self.deployment.base_id
        )
        count = min(spec["count"], len(candidates))
        return sorted(self._rng(index, "pick").sample(candidates, count))

    def _note_bound(self, *times):
        for t in times:
            if t is not None:
                self.last_fault_ms = max(self.last_fault_ms, t)

    # ------------------------------------------------------------------
    def install(self):
        """Compile the plan: schedule events and install hooks.

        Idempotence guard: installing twice would double every fault.
        """
        if self._installed:
            raise RuntimeError("fault plan already installed")
        self._installed = True
        eeprom_specs = []  # (index, spec, nodes) needing write hooks
        decode_specs = []  # (index, spec) for the channel decode hook
        for index, spec in enumerate(self.plan):
            kind = spec["kind"]
            if kind == "crash":
                self._install_crash(index, spec)
            elif kind == "brownout":
                self._install_brownout(index, spec)
            elif kind == "eeprom":
                eeprom_specs.append((index, spec, self._pick_nodes(spec,
                                                                   index)))
                self._note_bound(spec["end_ms"])
            elif kind == "link":
                self._install_link(spec)
            elif kind == "partition":
                self._install_partition(spec)
            elif kind == "decode":
                decode_specs.append((index, spec))
                self._note_bound(spec["end_ms"])
            elif kind == "adversary":
                # Adversarial message rewriting rides the same (single)
                # channel decode hook as decode corruption.
                decode_specs.append((index, spec))
                self._note_bound(spec["end_ms"])
            else:
                raise ValueError(f"unknown fault kind {kind!r}")
        if eeprom_specs:
            self._install_eeprom_hooks(eeprom_specs)
        if decode_specs:
            self._install_decode_hook(decode_specs)
        return self

    # ------------------------------------------------------------------
    # Node faults
    # ------------------------------------------------------------------
    def _install_crash(self, index, spec):
        nodes = self._pick_nodes(spec, index)
        restart_after = spec["restart_after_ms"]
        self._note_bound(spec["at_ms"],
                         None if restart_after is None
                         else spec["at_ms"] + restart_after)
        for node_id in nodes:
            self.sim.schedule_at(spec["at_ms"], self._crash_node, node_id)
            if restart_after is not None:
                self.sim.schedule_at(
                    spec["at_ms"] + restart_after, self._restart_node,
                    node_id,
                )

    def _crash_node(self, node_id):
        mote = self.deployment.motes[node_id]
        if not mote.alive:
            return
        mote.kill()
        self.crashed_nodes.add(node_id)
        self.counts["crash"] += 1
        self.sim.tracer.emit("fault.crash", node=node_id)

    def _restart_node(self, node_id):
        mote = self.deployment.motes[node_id]
        if mote.alive:
            return
        mote.revive()
        self.restarted_nodes.add(node_id)
        self.counts["restart"] += 1
        self.sim.tracer.emit("fault.restart", node=node_id)
        self.deployment.nodes[node_id].power_cycle()

    def _install_brownout(self, index, spec):
        nodes = self._pick_nodes(spec, index)
        end = spec["at_ms"] + spec["duration_ms"]
        self._note_bound(end)
        for node_id in nodes:
            self.sim.schedule_at(
                spec["at_ms"], self._brownout_start, node_id,
                spec["battery_sag"],
            )
            self.sim.schedule_at(end, self._brownout_end, node_id)

    def _brownout_start(self, node_id, battery_sag):
        mote = self.deployment.motes[node_id]
        if not mote.alive:
            return
        mote.sleep_radio()
        if battery_sag:
            mote.battery.drain_fraction(battery_sag)
        self.counts["brownout"] += 1
        self.sim.tracer.emit("fault.brownout", node=node_id, phase="start")

    def _brownout_end(self, node_id):
        mote = self.deployment.motes[node_id]
        if not mote.alive:
            return
        mote.wake_radio()
        self.sim.tracer.emit("fault.brownout", node=node_id, phase="end")

    # ------------------------------------------------------------------
    # Storage faults
    # ------------------------------------------------------------------
    def _install_eeprom_hooks(self, eeprom_specs):
        by_node = {}
        for index, spec, nodes in eeprom_specs:
            for node_id in nodes:
                by_node.setdefault(node_id, []).append((index, spec))
        for node_id, specs in by_node.items():
            mote = self.deployment.motes[node_id]
            if mote.eeprom.fault_hook is not None:
                raise RuntimeError(
                    f"node {node_id} already has an EEPROM fault hook"
                )
            mote.eeprom.fault_hook = self._make_eeprom_hook(node_id, specs)

    def _make_eeprom_hook(self, node_id, specs):
        armed = [
            (spec, self._rng(index, "eeprom", node_id))
            for index, spec in specs
        ]

        def hook(key, data):
            now = self.sim.now
            for spec, rng in armed:
                if not _in_window(spec["start_ms"], spec["end_ms"], now):
                    continue
                if rng.random() >= spec["probability"]:
                    continue
                self.counts["eeprom_" + spec["mode"]] += 1
                self.sim.tracer.emit(
                    "fault.eeprom", node=node_id, key=key,
                    mode=spec["mode"],
                )
                if spec["mode"] == "fail":
                    raise EepromError(
                        f"injected write failure at node {node_id}"
                    )
                data = _flip_bits(data, spec["flips"], rng)
                self.corrupted_keys.setdefault(node_id, set()).add(key)
            return data

        return hook

    # ------------------------------------------------------------------
    # Channel faults
    # ------------------------------------------------------------------
    def _install_link(self, spec):
        self._note_bound(spec["end_ms"])
        channel = self.deployment.channel
        wrapped = DegradedLossModel(
            self.sim, channel.loss_model,
            [(spec["start_ms"], spec["end_ms"])],
            ber_factor=spec["ber_factor"], ber_floor=spec["ber_floor"],
            nodes=spec["nodes"],
        )
        channel.loss_model = wrapped
        self.deployment.loss_model = wrapped

    def _install_partition(self, spec):
        self._note_bound(spec["end_ms"])
        channel = self.deployment.channel
        wrapped = PartitionLossModel(
            self.sim, channel.loss_model,
            [(spec["start_ms"], spec["end_ms"])], spec["groups"],
        )
        channel.loss_model = wrapped
        self.deployment.loss_model = wrapped

    def _install_decode_hook(self, decode_specs):
        channel = self.deployment.channel
        if channel.decode_hook is not None:
            raise RuntimeError("channel already has a decode hook")
        armed = [
            (spec, self._rng(index, "decode"), {"captured": []})
            for index, spec in decode_specs
        ]

        def hook(frame, dst):
            now = self.sim.now
            for spec, rng, state in armed:
                if not _in_window(spec["start_ms"], spec["end_ms"], now):
                    continue
                if spec["kind"] == "adversary":
                    attacked = self._attack_frame(spec, rng, state, frame,
                                                  dst)
                    if attacked is not frame:
                        return attacked
                    continue
                if rng.random() >= spec["probability"]:
                    continue
                if rng.random() >= spec["pass_fraction"]:
                    # The link-layer CRC caught the damage: frame lost.
                    self.counts["decode_drop"] += 1
                    self.sim.tracer.emit(
                        "fault.decode", node=dst, outcome="dropped",
                        kind=type(frame.payload).__name__,
                    )
                    return None
                corrupted, field = self._corrupt_message(frame.payload, rng)
                self.counts["decode_pass"] += 1
                self.sim.tracer.emit(
                    "fault.decode", node=dst, outcome="passed",
                    kind=type(frame.payload).__name__, field=field,
                )
                if corrupted is None:
                    return frame
                return frame.clone_with_payload(corrupted)
            return frame

        channel.decode_hook = hook

    # ------------------------------------------------------------------
    # Adversarial message rewriting (secure-OTA attack surface)
    # ------------------------------------------------------------------
    @staticmethod
    def _is_version_bearer(msg):
        """Advertisement-like control traffic: carries a program version
        and a source but no data bytes (MNP advertisements -- signed or
        not -- and Deluge summaries)."""
        return (
            hasattr(msg, "program_id")
            and hasattr(msg, "source_id")
            and not hasattr(msg, "payload")
        )

    def _attack_frame(self, spec, rng, state, frame, dst):
        """Apply one adversary spec to a frame in flight.

        Returns ``frame`` untouched when the spec does not fire (wrong
        message type, or the probability draw misses) and a rewritten
        clone otherwise.  All attacks preserve link-layer validity: the
        rewritten frame *decodes* fine -- only the authentication layer
        (or nothing, in an unsecured run) can tell it was touched."""
        msg = frame.payload
        attack = spec["attack"]
        if attack == "forge_adv":
            if not self._is_version_bearer(msg):
                return frame
            if rng.random() >= spec["probability"]:
                return frame
            bad = copy.copy(msg)
            bad.program_id = msg.program_id + spec["version_bump"]
            if hasattr(bad, "tag"):
                # The attacker holds no key: the tag cannot be right.
                bad.tag = bytes(len(bad.tag))
            manifest = getattr(msg, "manifest", None)
            if manifest is not None:
                bad.manifest = copy.copy(manifest)
                bad.manifest.program_id = bad.program_id
        elif attack == "replay_adv":
            if not self._is_version_bearer(msg):
                return frame
            replayed = None
            if state["captured"] and rng.random() < spec["probability"]:
                replayed = state["captured"][0]
            if len(state["captured"]) < 4:
                captured = copy.copy(msg)
                if getattr(msg, "manifest", None) is not None:
                    captured.manifest = copy.copy(msg.manifest)
                state["captured"].append(captured)
            if replayed is None:
                return frame
            bad = copy.copy(replayed)
        elif attack == "tamper_payload":
            data = getattr(msg, "payload", None)
            if not isinstance(data, (bytes, bytearray)) or not data:
                return frame
            if rng.random() >= spec["probability"]:
                return frame
            bad = copy.copy(msg)
            bad.payload = _flip_bits(bytes(data), spec["flips"], rng)
        elif attack == "swap_segments":
            if not hasattr(msg, "packet_id") \
                    or getattr(msg, "payload", None) is None:
                return frame
            if rng.random() >= spec["probability"]:
                return frame
            bad = copy.copy(msg)
            # Re-address to the sibling packet slot: every byte is
            # authentic, the assembled segment is not.
            bad.packet_id = msg.packet_id ^ 1
        else:
            raise ValueError(f"unknown adversary attack {attack!r}")
        self.counts["adversary_" + attack] += 1
        self.sim.tracer.emit(
            "fault.adversary", node=dst, attack=attack,
            kind=type(msg).__name__,
        )
        return frame.clone_with_payload(bad)

    @staticmethod
    def _corrupt_message(msg, rng):
        """A copy of ``msg`` with one integer header field bit-flipped
        (payload bytes and nested objects are left alone -- bad payload
        bytes are modeled by EEPROM corruption instead).  Fields inherited
        from a slotted base class (a coded packet's ``seg_id``, a signed
        advertisement's ``req_ctr``) are candidates too.  Returns
        ``(copy, field_name)`` or ``(None, None)`` when the message has
        no mutable integer field."""
        fields = [
            name
            for cls in reversed(type(msg).__mro__)
            for name in getattr(cls, "__slots__", ())
            if isinstance(getattr(msg, name), int)
        ]
        if not fields:
            return None, None
        field = fields[rng.randrange(len(fields))]
        bad = copy.copy(msg)
        setattr(bad, field, getattr(msg, field) ^ (1 << rng.randrange(8)))
        return bad, field

    # ------------------------------------------------------------------
    def summary(self):
        """JSON-ready account of what was injected."""
        return {
            "counts": dict(self.counts),
            "crashed": sorted(self.crashed_nodes),
            "restarted": sorted(self.restarted_nodes),
            "corrupted_keys": sum(
                len(keys) for keys in self.corrupted_keys.values()
            ),
            "last_fault_ms": self.last_fault_ms,
        }
