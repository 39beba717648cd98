"""Protocol invariant watchdog.

The watchdog is a pure tracer consumer: it subscribes to the protocol,
timer, and fault categories and checks, online, the invariants the paper's
design promises (§3.4) plus the hygiene rules the fault layer must not
break.  Because it only *observes* -- it never schedules events and never
draws randomness -- attaching it cannot perturb a run; a clean run with the
watchdog attached is bit-identical to one without.

Invariants checked:

* **Edge legality** -- every ``mnp.state`` record is an edge of its
  protocol's table: Fig. 4 for the MNP family, or the one Deluge, MOAP or
  XNP declares beside its node class, merged in
  :data:`repro.core.states.EDGES`.  Out-of-band resets (``load_image``,
  ``power_cycle``, adopting a newer version) go through ``_reset_state``,
  which does not trace them, and are invisible here by design.
* **FAIL is transient** -- a node entering FAIL must leave it for IDLE in
  the same synchronous step: its next state record must be FAIL -> IDLE,
  and no node may end the run parked in FAIL.
* **Dead nodes are silent** -- after ``fault.crash`` (until
  ``fault.restart``) a node must produce no timer fires and no protocol
  records (``mnp.*`` and the baselines' ``proto.*`` alike): its timers
  are guard-suppressed and its radio is off.
* **One sender per neighborhood** -- two nodes in radio range of each
  other streaming simultaneously (both in FORWARD/QUERY with their
  radios up) is what the §3.1 sender-selection competition exists to
  prevent.  The competition is best-effort, though: its suppression
  messages travel the same lossy links as everything else, so hidden
  terminals and grey-region losses let occasional concurrent senders
  through even in a healthy network (observed in clean 10x10 runs).
  Breaches are therefore recorded as *warnings* -- visible in the
  verdict, never failing it.
* **Write-once EEPROM** -- at :meth:`finish`, no image packet key has
  been written more than once (the paper's energy argument, §2/§3.3).
* **Liveness** -- a gap of more than ``stall_ms`` with no observed
  protocol activity while coverage is below 100% is recorded as a stall
  (kept separate from violations: a stall under faults is an *outcome*,
  in a clean run a *bug*).
* **Authentic install** -- a tampered or rolled-back image is never
  installed or booted: per-node installed versions are strictly
  monotonic, and when ``expected_digest`` / ``expected_version`` are
  configured every ``boot.install`` must carry exactly that image
  digest and program version.  Rejections (``boot.reject``) are the
  defence working and never violations.
"""

from repro.core.states import MNPState, is_allowed
from repro.sim.kernel import MINUTE

#: The liveness bound: a gap this long with no protocol activity while
#: coverage is below 100% is a stall.
STALL_MS = 10 * MINUTE

#: Categories the watchdog listens to.
WATCHED = (
    "mnp.state", "mnp.sender", "mnp.sender_done", "mnp.sleep",
    "mnp.got_code", "proto.got_code", "mnp.adv", "mnp.request",
    "mnp.parent", "mnp.got_segment", "mnp.fail",
    "proto.sender", "proto.parent",
    "timer.fire", "timer.suppressed",
    "fault.crash", "fault.restart", "fault.brownout",
    "boot.install", "boot.reject", "auth.reject", "auth.quarantine",
)

_STREAMING = (MNPState.FORWARD, MNPState.QUERY)


def _timer_node(name):
    """Node id from a mote timer name (``n<id>:<label>``), else None."""
    if not name.startswith("n"):
        return None
    head, _, _ = name.partition(":")
    try:
        return int(head[1:])
    except ValueError:
        return None


class InvariantWatchdog:
    """Online invariant checker for one simulation run.

    Parameters
    ----------
    sim:
        The simulator whose tracer to subscribe to.
    n_nodes:
        Total node count (drives the liveness monitor's notion of
        coverage); None disables the liveness check.
    neighbors_fn:
        ``fn(node_id) -> iterable of node ids`` in radio range; None
        disables the concurrent-sender check.
    stall_ms:
        Liveness threshold: a longer gap with no protocol activity while
        coverage < 100% is a stall (default :data:`STALL_MS`, 10 virtual
        minutes).
    expected_digest:
        SHA-256 hex digest of the one legitimate image; when set, any
        ``boot.install`` carrying a different digest is an
        ``authentic-install`` violation (a tampered image booted).
    expected_version:
        The one legitimate program id; when set, booting any other
        version is an ``authentic-install`` violation.
    """

    def __init__(self, sim, n_nodes=None, neighbors_fn=None,
                 stall_ms=STALL_MS, expected_digest=None,
                 expected_version=None):
        self.sim = sim
        self.n_nodes = n_nodes
        self.neighbors_fn = neighbors_fn
        self.stall_ms = stall_ms
        self.expected_digest = expected_digest
        self.expected_version = expected_version
        self._installed_versions = {}  # node -> highest installed version
        self.violations = []
        self.warnings = []
        self.stalls = []
        self.records_seen = 0
        self._dead = set()
        self._pending_fail = {}  # node -> time it entered FAIL
        self._streaming = set()  # nodes in FORWARD/QUERY
        self._browned = set()  # nodes mid-brownout (radio forced off)
        self._complete = set()  # nodes that reported got_code
        self._last_activity_ms = 0.0
        self._finished = False
        # One stable bound-method object: the tracer unsubscribes by
        # identity, and each `self._on_record` access is a fresh object.
        self._callback = self._on_record
        sim.tracer.subscribe(self._callback, categories=WATCHED)

    # ------------------------------------------------------------------
    def _violate(self, invariant, detail, **fields):
        self.violations.append({
            "invariant": invariant,
            "time_ms": self.sim.now,
            "detail": detail,
            **fields,
        })

    def _check_dead(self, node, category):
        """Any protocol-originated record from a dead node is a breach of
        crash semantics (its MCU is off)."""
        if node in self._dead:
            self._violate(
                "dead-node-silent",
                f"{category} from crashed node {node}", node=node,
            )

    # ------------------------------------------------------------------
    def _on_record(self, rec):
        self.records_seen += 1
        category = rec.category
        if not category.startswith("fault."):
            gap = rec.time - self._last_activity_ms
            if gap > self.stall_ms and not self._covered():
                self.stalls.append({
                    "from_ms": self._last_activity_ms,
                    "to_ms": rec.time,
                    "gap_ms": gap,
                })
            self._last_activity_ms = rec.time
        if category == "mnp.state":
            self._on_state(rec)
        elif category == "timer.fire":
            node = _timer_node(rec.name)
            if node is not None and node in self._dead:
                self._violate(
                    "dead-node-silent",
                    f"timer {rec.name!r} fired on crashed node {node}",
                    node=node,
                )
        elif category in ("mnp.got_code", "proto.got_code"):
            self._check_dead(rec.node, category)
            self._complete.add(rec.node)
        elif category == "fault.crash":
            self._dead.add(rec.node)
            self._streaming.discard(rec.node)
            self._pending_fail.pop(rec.node, None)
        elif category == "fault.restart":
            self._dead.discard(rec.node)
        elif category == "fault.brownout":
            if rec.phase == "start":
                self._browned.add(rec.node)
            else:
                self._browned.discard(rec.node)
                if rec.node in self._streaming:
                    # Back on the air mid-stream: re-check exclusivity.
                    self._check_concurrent(rec.node)
        elif category == "boot.install":
            self._check_dead(rec.node, category)
            self._on_install(rec)
        elif category == "timer.suppressed":
            pass  # the alive-guard working as intended
        else:
            # Remaining protocol categories: liveness + dead-node audit.
            node = rec.fields.get("node")
            if node is not None:
                self._check_dead(node, category)

    def _on_state(self, rec):
        node, frm, to = rec.node, rec.frm, rec.to
        self._check_dead(node, "mnp.state")
        # FAIL transience: the only state record allowed for a node with
        # a pending FAIL is the synchronous FAIL -> IDLE drain.
        pending = self._pending_fail.pop(node, None)
        if frm is MNPState.FAIL:
            if to is not MNPState.IDLE:
                self._violate(
                    "fail-transient",
                    f"node {node} left FAIL to {to} instead of IDLE",
                    node=node,
                )
        elif pending is not None:
            self._violate(
                "fail-transient",
                f"node {node} moved {frm} -> {to} while a FAIL entered at "
                f"{pending:.1f}ms had not drained", node=node,
            )
        if not is_allowed(frm, to):
            self._violate(
                "edge-legality",
                f"node {node}: {frm} -> {to} is not an edge of its "
                f"protocol's state machine",
                node=node,
            )
        if to is MNPState.FAIL:
            self._pending_fail[node] = rec.time
        # Sender exclusivity: FORWARD/QUERY with the radio up means
        # "streaming on the air".
        streaming = to in _STREAMING
        was_streaming = frm in _STREAMING
        if streaming and not was_streaming:
            if node not in self._browned:
                self._check_concurrent(node)
            self._streaming.add(node)
        elif was_streaming and not streaming:
            self._streaming.discard(node)

    def _on_install(self, rec):
        """Authentic-install audit on a successful ``boot.install``."""
        node, version = rec.node, rec.version
        prev = self._installed_versions.get(node)
        if prev is not None and version <= prev:
            self._violate(
                "authentic-install",
                f"node {node} installed version {version} after already "
                f"running version {prev} (rollback)", node=node,
            )
        self._installed_versions[node] = version if prev is None \
            else max(version, prev)
        if self.expected_version is not None \
                and version != self.expected_version:
            self._violate(
                "authentic-install",
                f"node {node} booted version {version}, expected "
                f"{self.expected_version}", node=node,
            )
        if self.expected_digest is not None \
                and rec.fields.get("digest") != self.expected_digest:
            self._violate(
                "authentic-install",
                f"node {node} booted an image whose digest does not match "
                f"the disseminated image", node=node,
            )

    def _check_concurrent(self, node):
        if self.neighbors_fn is None:
            return
        on_air = self._streaming - self._browned - self._dead - {node}
        if not on_air:
            return
        hood = set(self.neighbors_fn(node))
        for other in sorted(on_air & hood):
            self.warnings.append({
                "invariant": "single-sender",
                "time_ms": self.sim.now,
                "detail": (f"nodes {other} and {node} streaming "
                           f"concurrently in one neighborhood"),
                "node": node,
                "other": other,
            })

    def _covered(self):
        if self.n_nodes is None:
            return True
        # The base station holds the image from t=0 without a got_code
        # trace, hence the - 1.
        return len(self._complete) >= self.n_nodes - 1

    # ------------------------------------------------------------------
    def finish(self, motes=None):
        """End-of-run checks; call once, after the simulation stops.

        ``motes`` (``node_id -> Mote``) enables the write-once EEPROM
        audit.  Returns :meth:`verdict`.
        """
        if self._finished:
            return self.verdict()
        self._finished = True
        for node, entered in sorted(self._pending_fail.items()):
            self._violate(
                "fail-transient",
                f"node {node} still in FAIL at end of run "
                f"(entered {entered:.1f}ms)", node=node,
            )
        gap = self.sim.now - self._last_activity_ms
        if gap > self.stall_ms and not self._covered():
            self.stalls.append({
                "from_ms": self._last_activity_ms,
                "to_ms": self.sim.now,
                "gap_ms": gap,
            })
        if motes is not None:
            self._audit_write_once(motes)
        return self.verdict()

    def _audit_write_once(self, motes):
        """No image packet (3-int key: program, segment, packet) may be
        written twice; EepromMissingLog bookkeeping lines (4-tuples with a
        string tag) are exempt -- they are *designed* to be rewritten."""
        for node_id, mote in sorted(motes.items()):
            for key, count in mote.eeprom.write_counts.items():
                if count <= 1:
                    continue
                if len(key) != 3 or not all(
                        isinstance(part, int) for part in key):
                    continue
                self._violate(
                    "write-once",
                    f"node {node_id} wrote packet key {key} "
                    f"{count} times", node=node_id,
                )

    def verdict(self):
        """JSON-ready outcome: ``ok`` means no violations and no stalls
        (warnings are informational and do not fail a run)."""
        return {
            "ok": not self.violations and not self.stalls,
            "violations": list(self.violations),
            "warnings": list(self.warnings),
            "stalls": list(self.stalls),
            "records_seen": self.records_seen,
            "nodes_complete": len(self._complete),
        }

    def detach(self):
        """Unsubscribe from the tracer (tests attach several watchdogs to
        one simulator)."""
        self.sim.tracer.unsubscribe(self._callback)
