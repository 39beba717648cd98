"""Execute one conformance scenario variant.

The oracles (:mod:`repro.conformance.oracles`) never touch a simulator:
they are pure functions over the *metrics dicts* this module produces.
One scenario fans out into several variants -- the base MNP run, a replica
of it, an ideal-channel twin, a re-segmented twin, and one run per
baseline protocol -- and each variant is one :class:`repro.runner.RunSpec`
(``experiment="conformance"``), so the whole fan-out inherits the
runner's content-addressed cache and process fleet.

The executor is a pure function of ``(scenario, protocol, variant)``:
worker processes, serial runs, and cache replays all produce bit-identical
metrics, which is precisely what the determinism oracle asserts.
"""

import hashlib

from repro.conformance.spec import ScenarioSpec
from repro.core.config import MNPConfig
from repro.experiments.chaos import FaultedRun
from repro.experiments.common import MNP_FAMILY, Deployment
from repro.faults import FaultPlan
from repro.faults.watchdog import STALL_MS
from repro.hardware.mote import MoteConfig
from repro.radio.propagation import PropagationModel
from repro.sim.kernel import MINUTE


def _sabotage(spec, deployment):
    """Apply the spec's deliberate post-run damage (pipeline self-test
    hook; see :data:`repro.conformance.spec.SABOTAGE_MODES`)."""
    candidates = sorted(
        nid for nid in deployment.nodes if nid != deployment.base_id
    )
    for node_id in candidates:
        eeprom = deployment.motes[node_id].eeprom
        packet_keys = sorted(
            key for key in eeprom.write_counts
            if len(key) == 3 and all(isinstance(p, int) for p in key)
        )
        if not packet_keys:
            continue
        key = packet_keys[0]
        if spec.sabotage == "double-write":
            eeprom.write(key, eeprom.read(key))
        else:  # corrupt-content: damage the stored bytes silently
            data = bytearray(eeprom.read(key))
            data[0] ^= 0xFF
            eeprom.preload(key, bytes(data))
        return node_id
    return None


def _content_digest(images):
    """Digest over ``(node id, assembled bytes)`` pairs in id order, so
    two runs agree on it iff the same nodes completed with the same
    flash contents."""
    hasher = hashlib.sha256()
    for node_id, assembled in images.items():
        hasher.update(str(node_id).encode())
        hasher.update(b"\x00")
        hasher.update(assembled or b"")
        hasher.update(b"\x01")
    return hasher.hexdigest()


def run_scenario(scenario, protocol="mnp", variant=None):
    """One simulation run of ``scenario``; returns a JSON-ready metrics
    dict.

    ``variant`` tweaks the run along exactly one oracle axis:
    ``{"replica": k}`` (ignored -- it only defeats the result cache so a
    differential twin really re-executes), ``{"loss": "perfect"}`` (ideal
    channel), ``{"segment_packets": p}`` (re-split the same image
    bytes), or ``{"adversary": plan_dict}`` (an adversarial fault plan
    appended to the scenario's own -- the security-enabled spec must
    survive it without installing a tampered or rolled-back image).  Any
    other key raises :class:`ValueError`.
    """
    spec = scenario if isinstance(scenario, ScenarioSpec) \
        else ScenarioSpec.from_dict(scenario)
    variant = dict(variant or {})
    unknown = set(variant) - {"replica", "loss", "segment_packets",
                              "adversary"}
    if unknown:
        raise ValueError(f"unknown variant key(s) {sorted(unknown)}")
    variant.pop("replica", None)
    faults = spec.faults
    adversary = variant.get("adversary")
    if adversary is not None:
        if faults is None:
            faults = dict(adversary)
        else:
            faults = dict(faults)
            faults["specs"] = list(faults["specs"]) \
                + list(adversary["specs"])

    topo = spec.build_topology()
    image = spec.build_image(
        segment_packets=variant.get("segment_packets"))
    if "loss" in variant:
        loss_model = spec.replace(
            loss={"kind": variant["loss"]}).build_loss_model()
    else:
        loss_model = spec.build_loss_model()
    # The coded variant shares MNP's whole control plane, so it takes
    # the same MNPConfig and the same watchdog audit.
    mnp_family = protocol in MNP_FAMILY
    protocol_config = MNPConfig(**spec.config) if mnp_family else None
    security = spec.build_security()
    dep = Deployment(
        topo, image=image, protocol=protocol,
        protocol_config=protocol_config, seed=spec.seed,
        propagation=PropagationModel(spec.range_ft, 3.0),
        loss_model=loss_model,
        mote_config=MoteConfig(power_level=spec.power_level),
        security=security,
    )
    run = FaultedRun(
        dep, None if faults is None else FaultPlan.from_dict(faults),
        stall_ms=STALL_MS if mnp_family else None,
    )
    run.settle(spec.deadline_min * MINUTE)
    sabotaged_node = None
    if spec.sabotage is not None:
        sabotaged_node = _sabotage(spec, dep)
    # Secure scenarios exercise the whole pipeline end-to-end: the
    # external start signal drives every staged image through the
    # bootloader (emitting boot.install/boot.reject for the watchdog's
    # authentic-install audit) before the end-of-run checks.
    run.close(install=security is not None)
    return {
        "protocol": protocol,
        "n_nodes": len(dep.nodes),
        "alive": len(run.alive),
        "complete": len(run.complete),
        "coverage": run.coverage,
        "all_complete": run.all_complete,
        "completion_ms": run.completion_time_ms,
        "deadline_hit": run.deadline_hit,
        "messages_sent": run.messages,
        "collisions": run.collector.collisions,
        "content_ok": run.corrupt_images == 0,
        "content_sha": _content_digest(run.images()),
        "image_sha": hashlib.sha256(image.to_bytes()).hexdigest(),
        "image_bytes": image.size_bytes,
        "n_segments": image.n_segments,
        "watchdog": run.verdict,
        "faults": run.controller.summary() if run.controller else None,
        "sabotaged_node": sabotaged_node,
        "secured": security is not None,
        "installs": run.installs,
        "auth": None if security is None else {
            "rejects": run.auth_rejects,
            "quarantines": run.quarantines,
        },
    }


def conformance_experiment(run_spec, scenario, variant=None):
    """Runner executor (``experiment="conformance"``).

    Overrides: ``scenario`` (a :meth:`ScenarioSpec.to_dict` dict) and
    ``variant`` (see :func:`run_scenario`); the protocol rides in
    ``run_spec.protocol``.
    """
    metrics = run_scenario(scenario, protocol=run_spec.protocol,
                           variant=variant)
    metrics["variant"] = dict(variant or {})
    return metrics
