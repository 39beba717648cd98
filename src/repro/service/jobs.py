"""Job lifecycle, dedup, and progress streaming for the service.

One :class:`Job` per distinct piece of work, keyed by the same content
hash the runner's disk cache uses (:meth:`repro.runner.RunSpec.cache_key`
for run/scenario jobs, a canonical hash over the child keys for sweep
campaigns).  Submitting a key that is already queued, running, or done
does not create work: the existing job gains a subscriber (``refs``) and
every subscriber observes the same byte-identical result -- this is the
multi-tenant story, N clients asking for the same campaign pay for one
execution.

Lifecycle::

    queued -> running -> done
                      -> failed      (executor raised, or job timeout)
           -> cancelled              (POST /cancel; queued or mid-run)

Cancellation is *cooperative*: the job is marked terminal immediately
and its result, if the simulation thread still produces one, is
discarded -- in particular it is never written to the disk cache, so a
cancelled job can never corrupt or pollute the cache.  A thread-local
tracer tap (:func:`repro.sim.tracing.push_tap`) raises inside the
simulation at the next milestone event, so most cancelled runs also stop
burning CPU early.

Progress events: every status transition appends an event, and the same
tracer tap forwards simulation milestones (``mnp.got_code``,
``boot.install``, ...) with their *virtual* timestamps, so two
executions of the same spec stream identical event sequences.
"""

import asyncio
import functools
import hashlib
import json
import threading

from repro.runner import Runner, execute_spec
from repro.service.admission import JobTimeout, QueueFull  # noqa: F401
from repro.sim import tracing

#: Trace categories forwarded into a job's event stream.  Milestones
#: only -- subscribing to hot categories (radio.tx, ...) would defeat the
#: tracer's unwatched-category fast path and slow every job down.
PROGRESS_CATEGORIES = (
    "mnp.got_code",
    "boot.install", "boot.reject",
    "fault.crash", "fault.restart",
)

#: Per-job cap on buffered events; overflow increments ``events_dropped``
#: instead of growing without bound.
MAX_EVENTS = 500


class JobAborted(Exception):
    """Raised by the tracer tap inside a cancelled job's simulation."""


class ServiceDraining(Exception):
    """Raised on submission after graceful shutdown has begun."""


def sweep_key(child_keys):
    """Content hash of a sweep campaign (order-insensitive)."""
    canonical = json.dumps({"kind": "sweep",
                            "children": sorted(child_keys)},
                           sort_keys=True, separators=(",", ":"))
    return "s" + hashlib.sha256(canonical.encode()).hexdigest()[:19]


class Job:
    """One unit of work plus its subscribers and event stream."""

    __slots__ = ("key", "kind", "spec", "payload", "status", "result",
                 "error", "events", "events_dropped", "refs", "cache_hit",
                 "seq", "task", "child_keys", "_flag", "_abort",
                 "_cancelled")

    def __init__(self, key, kind, spec, payload, seq):
        self.key = key
        self.kind = kind            # "run" | "scenario" | "sweep"
        self.spec = spec            # RunSpec (None for sweeps)
        self.payload = payload      # canonical submission dict
        self.status = "queued"
        self.result = None          # deterministic result payload dict
        self.error = None
        self.events = []
        self.events_dropped = 0
        self.refs = 1
        self.cache_hit = False
        self.seq = seq
        self.task = None
        self.child_keys = None      # sweep jobs: keys of child runs
        self._flag = asyncio.Event()
        self._abort = threading.Event()
        self._cancelled = False

    # ------------------------------------------------------------------
    @property
    def terminal(self):
        return self.status in ("done", "failed", "cancelled")

    def pulse(self):
        """Wake every waiter (status change or new event)."""
        flag, self._flag = self._flag, asyncio.Event()
        flag.set()

    async def wait_change(self, timeout=None):
        """Block until the next pulse (or timeout); returns True on pulse."""
        flag = self._flag
        if timeout is None:
            await flag.wait()
            return True
        try:
            await asyncio.wait_for(flag.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def wait_terminal(self):
        while not self.terminal:
            await self.wait_change()
        return self.status

    def add_event(self, event_name, **fields):
        if len(self.events) >= MAX_EVENTS:
            self.events_dropped += 1
            return
        event = {"seq": len(self.events), "event": event_name}
        event.update(fields)
        self.events.append(event)
        self.pulse()

    def to_summary(self):
        """JSON-ready status record (no wall-clock fields)."""
        return {
            "key": self.key,
            "kind": self.kind,
            "status": self.status,
            "refs": self.refs,
            "cache_hit": self.cache_hit,
            "events": len(self.events),
            "events_dropped": self.events_dropped,
            "error": self.error,
        }


class JobStore:
    """Dedup, execute, and observe jobs (single event loop, any thread).

    Parameters
    ----------
    admission:
        The :class:`~repro.service.admission.AdmissionControl` bounding
        concurrent executions and queue depth.
    cache_dir:
        Shared manifest directory -- the *same* content-hash cache the
        CLI sweeps use, so service jobs and offline sweeps serve each
        other.  ``None`` disables disk caching (in-store dedup still
        applies).
    progress:
        Optional ``fn(line)`` receiving human-readable lines.
    """

    def __init__(self, admission, cache_dir=None, progress=None):
        self.admission = admission
        self.cache_dir = cache_dir
        self.progress = progress
        self.jobs = {}
        self.draining = False
        self._seq = 0
        self._loop = None
        # Counters (exposed via /v1/stats; loadgen computes its
        # cache-hit ratio from deltas of these).
        self.submissions = 0
        self.dedup_hits = 0
        self.cache_hits = 0
        self.executions = 0

    # ------------------------------------------------------------------
    def _say(self, line):
        if self.progress is not None:
            self.progress(line)

    def _runner(self):
        """A fresh Runner sharing the store's cache directory.

        Runner instances are cheap and stateless apart from counters;
        one per use keeps worker threads free of shared mutable state
        (manifest writes are atomic at the filesystem level).
        """
        return Runner(workers=0, cache_dir=self.cache_dir)

    def stats(self):
        by_status = {"queued": 0, "running": 0, "done": 0, "failed": 0,
                     "cancelled": 0}
        for job in self.jobs.values():
            by_status[job.status] += 1
        return {
            "submissions": self.submissions,
            "dedup_hits": self.dedup_hits,
            "cache_hits": self.cache_hits,
            "executions": self.executions,
            "jobs": by_status,
            "workers": self.admission.workers,
            "queue_limit": self.admission.queue_limit,
            "waiting": self.admission.waiting,
            "running": self.admission.running,
            "draining": self.draining,
        }

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _register(self, key, kind, spec, payload):
        """Dedup-or-create; returns ``(job, deduped)``."""
        if self.draining:
            raise ServiceDraining("service is draining")
        self.submissions += 1
        existing = self.jobs.get(key)
        if existing is not None and existing.status not in ("failed",
                                                            "cancelled"):
            existing.refs += 1
            self.dedup_hits += 1
            return existing, True
        self._seq += 1
        job = Job(key, kind, spec, payload, self._seq)
        self.jobs[key] = job
        job.add_event("queued", kind=kind)
        return job, False

    def submit_run(self, spec, kind="run", payload=None):
        """Submit one RunSpec; returns ``(job, deduped)``.

        Raises :class:`QueueFull` (admission) or
        :class:`ServiceDraining`; both leave the store untouched apart
        from the submission counter.
        """
        job, deduped = self._register(spec.cache_key(), kind, spec,
                                      payload if payload is not None
                                      else spec.to_dict())
        if not deduped:
            try:
                self.admission.admit()
            except QueueFull:
                del self.jobs[job.key]
                raise
            self._loop = asyncio.get_running_loop()
            job.task = self._loop.create_task(self._run_job(job))
        return job, deduped

    def submit_sweep(self, child_specs, payload):
        """Submit a sweep campaign over ``child_specs``.

        The parent job holds no worker slot; it subscribes to one child
        job per unique child spec (children dedup against *everything*
        in the store, including other tenants' runs) and completes when
        they all do.
        """
        child_keys = [spec.cache_key() for spec in child_specs]
        job, deduped = self._register(sweep_key(child_keys), "sweep",
                                      None, payload)
        if not deduped:
            job.child_keys = child_keys
            self._loop = asyncio.get_running_loop()
            job.task = self._loop.create_task(
                self._run_sweep(job, list(child_specs)))
        return job, deduped

    # ------------------------------------------------------------------
    # Cancellation / drain
    # ------------------------------------------------------------------
    def cancel(self, key):
        """Cancel a job; returns True if it was non-terminal.

        The job is terminal immediately; any in-flight simulation result
        is discarded and never cached.
        """
        job = self.jobs.get(key)
        if job is None or job.terminal:
            return False
        job._cancelled = True
        job._abort.set()
        self._finalize(job, "cancelled", error="cancelled by client")
        if job.kind == "sweep" and job.child_keys:
            for child_key in job.child_keys:
                child = self.jobs.get(child_key)
                if child is not None and not child.terminal:
                    child.refs -= 1
                    if child.refs <= 0:
                        self.cancel(child_key)
        return True

    async def drain(self):
        """Stop accepting work, then wait for every job task to finish.

        In-flight and queued jobs run to completion (their manifests are
        cached as usual); only *new* submissions are refused.
        """
        self.draining = True
        tasks = [job.task for job in list(self.jobs.values())
                 if job.task is not None]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _finalize(self, job, status, error=None):
        if job.terminal:
            return
        job.status = status
        job.error = error
        job.add_event(status, **({"error": error} if error else {}))
        job.pulse()
        self._say(f"[service] {status:<9} {job.kind} {job.key}"
                  + (f"  ({error})" if error else ""))

    def _result_payload(self, job, metrics):
        return {
            "key": job.key,
            "kind": job.kind,
            "spec": job.payload,
            "metrics": metrics,
        }

    async def _run_job(self, job):
        try:
            async with self.admission:
                if job.terminal:        # cancelled while queued
                    return
                job.status = "running"
                job.add_event("running")
                runner = self._runner()
                cached = await asyncio.to_thread(runner.load_cached,
                                                 job.spec)
                if job.terminal:
                    return
                if cached is not None:
                    self.cache_hits += 1
                    job.cache_hit = True
                    job.result = self._result_payload(job, cached)
                    self._finalize(job, "done")
                    return
                self.executions += 1
                metrics = await self.admission.run_bounded(
                    asyncio.to_thread(self._execute, job))
                if job.terminal:        # cancelled mid-run: discard
                    return
                await asyncio.to_thread(runner.store, job.spec, metrics,
                                        0.0)
                job.result = self._result_payload(job, metrics)
                self._finalize(job, "done")
        except JobTimeout as exc:
            job._abort.set()
            self._finalize(job, "failed", error=str(exc))
        except JobAborted:
            self._finalize(job, "cancelled", error="cancelled by client")
        except asyncio.CancelledError:
            self._finalize(job, "cancelled", error="service stopped")
            raise
        except Exception as exc:        # executor raised: a failed job,
            self._finalize(job, "failed",  # never a dead accept loop
                           error=f"{type(exc).__name__}: {exc}")

    def _execute(self, job):
        """Worker-thread body: run the spec with a progress tap."""
        loop = self._loop

        def tap(record):
            if job._abort.is_set():
                raise JobAborted()
            fields = {
                k: v for k, v in record.fields.items()
                if isinstance(v, (str, int, float, bool, type(None)))
            }
            loop.call_soon_threadsafe(functools.partial(
                job.add_event, "trace", category=record.category,
                t_ms=record.time, **fields))

        tracing.push_tap(tap, categories=PROGRESS_CATEGORIES)
        try:
            return execute_spec(job.spec)
        finally:
            tracing.pop_tap(tap)

    async def _run_sweep(self, job, child_specs):
        try:
            children = []
            for spec in child_specs:
                child, _ = self.submit_run(spec)
                children.append(child)
            job.status = "running"
            job.add_event("running", children=len(children))
            for child in children:
                status = await child.wait_terminal()
                if job.terminal:
                    return
                job.add_event("child", key=child.key, status=status)
            if job.terminal:
                return
            bad = [c for c in children if c.status != "done"]
            if bad:
                self._finalize(
                    job, "failed",
                    error=f"{len(bad)} child job(s) did not complete "
                          f"(first: {bad[0].key} {bad[0].status})")
                return
            job.result = {
                "key": job.key,
                "kind": "sweep",
                "spec": job.payload,
                "runs": [
                    {"key": c.key, "spec": c.payload,
                     "metrics": c.result["metrics"]}
                    for c in children
                ],
            }
            self._finalize(job, "done")
        except (QueueFull, ServiceDraining) as exc:
            self._finalize(job, "failed", error=str(exc))
        except asyncio.CancelledError:
            self._finalize(job, "cancelled", error="service stopped")
            raise
        except Exception as exc:
            self._finalize(job, "failed",
                           error=f"{type(exc).__name__}: {exc}")
