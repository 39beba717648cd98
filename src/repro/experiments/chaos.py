"""Chaos harness: dissemination under injected faults, with invariants.

One chaos run = one :class:`~repro.experiments.common.Deployment` + one
:class:`~repro.faults.FaultPlan` + one
:class:`~repro.faults.InvariantWatchdog`, driven by :class:`FaultedRun`.
The run drives the network until every *surviving* node holds the image
(or a deadline passes), then reports the paper's robustness story
quantitatively: survivor coverage, completion time, fail counts, image
integrity, what was injected, and the watchdog's verdict.

:class:`FaultedRun` is also the loop behind adversary runs
(:mod:`repro.experiments.adversary`), churn runs
(:mod:`repro.experiments.robustness`) and conformance runs
(:mod:`repro.conformance.execute`); each caller builds its own
deployment and reports its own fields.

Registered with the parallel runner as ``experiment="chaos"`` so chaos
sweeps (fault class x intensity x protocol) are cached and parallel like
every other experiment; the fault plan rides inside the spec's overrides
as a plain dict, so it participates in the content hash.
"""

import hashlib

from repro.core.config import MNPConfig
from repro.experiments.common import MNP_FAMILY, RunResult, grid_deployment
from repro.faults import FaultController, FaultPlan, InvariantWatchdog
from repro.faults.watchdog import STALL_MS
from repro.sim.kernel import MINUTE, SECOND

#: The MNP family's config under faults and attacks: query/update on, and
#: the fail backoff at 250 ms.
FAULTED_CONFIG = MNPConfig(query_update=True, fail_backoff_base_ms=250.0)

#: Fault classes the CLI sweep exercises; each maps intensity in [0, 1]
#: to a concrete plan (see :func:`standard_plan`).
FAULT_CLASSES = ("crash", "eeprom", "link")


def standard_plan(fault_class, intensity=0.5, rows=6, cols=6):
    """A canonical plan for one fault class at the given intensity.

    ``intensity`` scales how hard the class hits (how many nodes crash,
    how likely writes fail, how badly links degrade); 0 produces an
    empty plan for any class.
    """
    if not 0.0 <= intensity <= 1.0:
        raise ValueError("intensity must be in [0,1]")
    plan = FaultPlan(salt=fault_class)
    if intensity == 0.0:
        return plan
    n_nodes = rows * cols
    if fault_class == "crash":
        victims = max(1, round(intensity * 0.25 * n_nodes))
        # Half the victims stay down; the other half power-cycle and
        # must rejoin via the quiescent-network path.
        stay_down = victims // 2
        restart = victims - stay_down
        if stay_down:
            plan.crash(at_ms=20 * SECOND, count=stay_down)
        if restart:
            plan.crash(at_ms=25 * SECOND, count=restart,
                       restart_after_ms=90 * SECOND)
    elif fault_class == "eeprom":
        afflicted = max(1, round(intensity * 0.2 * n_nodes))
        plan.eeprom_failures(probability=0.3 * intensity, count=afflicted)
        plan.eeprom_corruption(probability=0.1 * intensity,
                               count=afflicted, flips=2)
    elif fault_class == "link":
        plan.link_degradation(
            start_ms=10 * SECOND, end_ms=(10 + 90 * intensity) * SECOND,
            ber_factor=1.0 + 80.0 * intensity,
            ber_floor=0.002 * intensity,
        )
        plan.decode_corruption(probability=0.2 * intensity,
                               start_ms=10 * SECOND,
                               end_ms=(10 + 90 * intensity) * SECOND)
    else:
        raise ValueError(
            f"unknown fault class {fault_class!r}; known: {FAULT_CLASSES}"
        )
    return plan


class FaultedRun(RunResult):
    """One dissemination run under an optional fault plan, audited by an
    optional watchdog: the loop chaos, adversary, churn and conformance
    runs share.  It is a :class:`RunResult`, so its tally (alive and
    complete nodes, coverage, completion, messages, image integrity) is
    every run's; it adds the plan, the watchdog and the install.

    Construction wires the run in a fixed order: the plan's
    :class:`FaultController` installs its hooks, then the
    :class:`InvariantWatchdog` subscribes (armed with the image's digest
    and version, for the authentic-install audit), then the deployment
    starts.  :meth:`settle` runs it; :meth:`close` ends it.  ``plan=None``
    builds no controller (``controller`` stays None); ``stall_ms=None``
    attaches no watchdog (``verdict`` stays None).
    """

    def __init__(self, deployment, plan=None, stall_ms=None):
        super().__init__(deployment, deadline_hit=None)
        self.controller = None
        if plan is not None:
            self.controller = FaultController(deployment, plan)
            self.controller.install()
        self._watchdog = None
        if stall_ms is not None:
            power = deployment.mote_config.power_level
            image = deployment.image
            self._watchdog = InvariantWatchdog(
                deployment.sim, n_nodes=len(deployment.nodes),
                neighbors_fn=lambda nid: deployment.channel.neighbors(
                    nid, power),
                stall_ms=stall_ms,
                expected_digest=hashlib.sha256(image.to_bytes()).hexdigest(),
                expected_version=image.program_id,
            )
        self.verdict = None
        self.installs = None
        deployment.start()

    def settle(self, deadline_ms):
        """Settle the deployment (:meth:`Deployment.settle`), but not
        before the plan's last bounded fault has fired, so a restart
        scheduled after completion still gets exercised."""
        last_fault_ms = self.controller.last_fault_ms \
            if self.controller else 0.0
        self.deadline_hit = not self.deployment.settle(deadline_ms,
                                                       last_fault_ms)

    def close(self, install=False):
        """End the run: the watchdog gives its verdict.

        ``install`` first drives the external start signal (§3.5) through
        every staged image, so the bootloader's rejections (quarantines)
        and the watchdog's authentic-install audit are in the books.
        """
        if install:
            self.installs = self.deployment.install_all()
        if self._watchdog is not None:
            self.verdict = self._watchdog.finish(motes=self.motes)
            self._watchdog.detach()

    @property
    def tampered_installs(self):
        """Installs of an image that was not the authentic one."""
        return sum(
            1 for v in self.verdict["violations"]
            if v["invariant"] == "authentic-install"
        )

    def chaos_manifest(self):
        """JSON-ready chaos manifest (deterministic for a given
        ``(seed, plan)``; the CI chaos-smoke job diffs two of these)."""
        corrupt = self.corrupt_images
        return {
            "survivors_total": len(self.alive),
            "survivors_complete": len(self.complete),
            "survivor_coverage": self.coverage,
            "completion_s": self.completion_s,
            "deadline_hit": self.deadline_hit,
            "fails": self.fails,
            "corrupt_images": corrupt,
            "images_intact": corrupt == 0,
            "messages_sent": self.messages,
            "collisions": self.collector.collisions,
            "elapsed_s": self.sim.now / SECOND,
            "faults": self.controller.summary(),
            "watchdog_ok": self.verdict["ok"],
            "watchdog": self.verdict,
        }


def faulted_config(protocol, config):
    """The config a faulted run of ``protocol`` takes: ``config``, or
    :data:`FAULTED_CONFIG` for the MNP family when none is given."""
    if config is None and protocol in MNP_FAMILY:
        return FAULTED_CONFIG
    return config


def run_chaos(plan, rows=6, cols=6, protocol="mnp", n_segments=2,
              segment_packets=32, seed=0, deadline_min=240, config=None):
    """One dissemination run under the given fault plan, settled (see
    :meth:`FaultedRun.settle`) and closed without installing.  The MNP
    family runs ``config`` (default :data:`FAULTED_CONFIG`); a baseline
    takes none.  Returns the closed :class:`FaultedRun`.
    """
    run = FaultedRun(
        grid_deployment(rows, cols, protocol, n_segments, segment_packets,
                        seed, faulted_config(protocol, config)),
        plan, stall_ms=STALL_MS,
    )
    run.settle(deadline_min * MINUTE)
    run.close()
    return run


def chaos_experiment(spec, plan=None, fault_class=None, intensity=0.5,
                     **run_kwargs):
    """Runner executor (``experiment="chaos"``).

    ``plan`` is a :meth:`FaultPlan.to_dict` dict; without one,
    ``fault_class`` + ``intensity`` build a :func:`standard_plan`, and
    with neither the run has no faults.  The other overrides are
    :func:`run_chaos`'s keyword arguments, and its signature holds their
    defaults.
    """
    if plan is not None:
        plan = FaultPlan.from_dict(plan)
    elif fault_class is not None:
        # The plan sizes its victim sets by the run's grid.
        shape = {k: run_kwargs[k] for k in ("rows", "cols")
                 if k in run_kwargs}
        plan = standard_plan(fault_class, intensity, **shape)
    else:
        plan = FaultPlan()
    outcome = run_chaos(plan, protocol=spec.protocol, seed=spec.seed,
                        **run_kwargs)
    metrics = outcome.chaos_manifest()
    metrics["seed"] = spec.seed
    metrics["protocol"] = spec.protocol
    return metrics
