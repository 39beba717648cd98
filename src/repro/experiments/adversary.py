"""Adversarial dissemination: the secure OTA pipeline under attack.

One adversary run = one :class:`~repro.experiments.common.Deployment`
(secured by default, deliberately unsecured on request) + an adversarial
:class:`~repro.faults.FaultPlan` (forged advertisements, replayed
manifests, payload tampering, segment swaps) + an
:class:`~repro.faults.InvariantWatchdog` configured with the legitimate
image's SHA-256 digest and version, driven by the faulted-run loop
chaos runs use (:class:`~repro.experiments.chaos.FaultedRun`).  After
dissemination settles, the external start signal drives every staged
image through the bootloader, so the run reports the question the
secure pipeline exists to answer: *did any node install a tampered or
rolled-back image?*

The secured/unsecured pairing is the experiment's point: an unsecured
network under ``tamper`` completes with corrupt flash and gets stuck at
the install CRC check (no recovery), while the secured network
quarantines the tampered segment on arrival, re-requests a clean copy,
and installs everywhere with zero ``authentic-install`` violations.

Registered with the parallel runner as ``experiment="adversary"``, so
attack sweeps (attack class x protocol) are cached and parallel like
every other experiment.
"""

from repro.core.auth import SecurityConfig
from repro.experiments.chaos import FaultedRun, faulted_config
from repro.experiments.common import grid_deployment
from repro.faults import FaultPlan
from repro.faults.watchdog import STALL_MS
from repro.sim.kernel import MINUTE, SECOND

#: Attack classes the CLI sweep exercises; each maps intensity in [0, 1]
#: to a concrete plan (see :func:`attack_plan`).
ADVERSARY_CLASSES = ("forge", "replay", "tamper", "swap", "blended")


def attack_plan(attack_class, intensity=0.5):
    """A canonical adversarial plan for one attack class.

    ``intensity`` scales how aggressively the attacker rewrites traffic;
    0 produces an empty plan for any class.  ``blended`` runs all four
    attacks at once at half strength.
    """
    if not 0.0 <= intensity <= 1.0:
        raise ValueError("intensity must be in [0,1]")
    plan = FaultPlan(salt="adversary-" + attack_class)
    if intensity == 0.0:
        return plan
    if attack_class == "forge":
        plan.forged_advertisements(probability=0.6 * intensity)
    elif attack_class == "replay":
        plan.replayed_manifest(probability=0.6 * intensity)
    elif attack_class == "tamper":
        plan.payload_tampering(probability=0.12 * intensity)
    elif attack_class == "swap":
        plan.segment_swap(probability=0.12 * intensity)
    elif attack_class == "blended":
        plan.forged_advertisements(probability=0.3 * intensity)
        plan.replayed_manifest(probability=0.3 * intensity)
        plan.payload_tampering(probability=0.06 * intensity)
        plan.segment_swap(probability=0.06 * intensity)
    else:
        raise ValueError(
            f"unknown adversary class {attack_class!r}; "
            f"known: {ADVERSARY_CLASSES}"
        )
    return plan


def run_adversary(plan, rows=6, cols=6, protocol="mnp", n_segments=2,
                  segment_packets=32, seed=0, deadline_min=240,
                  config=None, secured=True):
    """One dissemination run under the given adversarial plan.

    The run ends when every alive node holds the (verified) full image,
    or at the deadline; then every staged image is pushed through the
    bootloader and the watchdog's authentic-install audit closes the
    books.  The MNP family runs ``config`` (default
    :data:`~repro.experiments.chaos.FAULTED_CONFIG`); a baseline takes
    none.  Returns the closed :class:`~repro.experiments.chaos.FaultedRun`.
    """
    if isinstance(plan, dict):
        plan = FaultPlan.from_dict(plan)
    run = FaultedRun(
        grid_deployment(
            rows, cols, protocol, n_segments, segment_packets, seed,
            faulted_config(protocol, config),
            security=SecurityConfig(enabled=True) if secured else None,
        ),
        plan, stall_ms=STALL_MS,
    )
    run.settle(deadline_min * MINUTE)
    run.close(install=True)
    return run


def adversary_experiment(spec, plan=None, attack_class=None, intensity=0.5,
                         secured=True, **run_kwargs):
    """Runner executor (``experiment="adversary"``).

    ``plan`` is a :meth:`FaultPlan.to_dict` dict; without one,
    ``attack_class`` + ``intensity`` build an :func:`attack_plan`, and
    with neither the run has no attacker.  The other overrides are
    :func:`run_adversary`'s keyword arguments, and its signature holds
    their defaults.
    """
    if plan is None:
        plan = FaultPlan() if attack_class is None \
            else attack_plan(attack_class, intensity)
    run = run_adversary(plan, protocol=spec.protocol, seed=spec.seed,
                        secured=secured, **run_kwargs)
    corrupt = run.corrupt_images
    return {
        "secured": secured,
        "survivors_total": len(run.alive),
        "survivors_complete": len(run.complete),
        "survivor_coverage": run.coverage,
        "completion_s": run.completion_s,
        "deadline_hit": run.deadline_hit,
        "auth_rejects": run.auth_rejects,
        "quarantines": run.quarantines,
        "installs": dict(run.installs),
        "tampered_installs": run.tampered_installs,
        "corrupt_images": corrupt,
        "images_intact": corrupt == 0,
        "messages_sent": run.messages,
        "collisions": run.collector.collisions,
        "elapsed_s": run.sim.now / SECOND,
        "faults": run.controller.summary(),
        "watchdog_ok": run.verdict["ok"],
        "watchdog": run.verdict,
        "seed": spec.seed,
        "protocol": spec.protocol,
        "attack_class": attack_class,
    }
