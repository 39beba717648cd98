"""Bounded admission for the dissemination service.

Two limits, both enforced *before* any simulation work happens:

* **worker pool** -- at most ``workers`` jobs execute concurrently;
  admitted jobs queue on an :class:`asyncio.Semaphore` in submission
  order.
* **queue depth** -- at most ``queue_limit`` jobs may be waiting for a
  worker slot; beyond that, submissions are refused outright (the HTTP
  layer maps the refusal to ``503 queue-full``), so a flood of unique
  work degrades into fast rejections instead of unbounded memory growth.

A third knob, ``job_timeout_s``, bounds how long one job may *run*; the
job store uses it via :meth:`AdmissionControl.run_bounded` and marks
overruns failed (their result is discarded, never cached).

Defaults come from ``REPRO_SERVICE_WORKERS``, ``REPRO_SERVICE_QUEUE``,
and ``REPRO_SERVICE_TIMEOUT_S``.
"""

import asyncio
import os

#: Fallbacks when neither constructor args nor env vars say otherwise.
DEFAULT_WORKERS = 2
DEFAULT_QUEUE_LIMIT = 256


def _env_int(name, fallback):
    raw = os.environ.get(name, "").strip()
    if not raw:
        return fallback
    try:
        return int(raw)
    except ValueError:
        return fallback


def default_workers():
    """Worker-pool width: ``REPRO_SERVICE_WORKERS`` or 2."""
    return max(1, _env_int("REPRO_SERVICE_WORKERS", DEFAULT_WORKERS))


def default_queue_limit():
    """Admission queue depth: ``REPRO_SERVICE_QUEUE`` or 256."""
    return max(1, _env_int("REPRO_SERVICE_QUEUE", DEFAULT_QUEUE_LIMIT))


def default_job_timeout_s():
    """Per-job wall-clock bound: ``REPRO_SERVICE_TIMEOUT_S`` or None."""
    raw = os.environ.get("REPRO_SERVICE_TIMEOUT_S", "").strip()
    if not raw:
        return None
    try:
        timeout = float(raw)
    except ValueError:
        return None
    return timeout if timeout > 0 else None


class QueueFull(Exception):
    """Raised when the admission queue is at capacity."""


class JobTimeout(Exception):
    """Raised inside the store when a job overruns its wall-clock bound."""


class AdmissionControl:
    """Semaphore-bounded worker pool with a hard queue-depth cap."""

    def __init__(self, workers=None, queue_limit=None, job_timeout_s=None):
        if workers is None:
            workers = default_workers()
        elif workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.queue_limit = queue_limit if queue_limit is not None \
            else default_queue_limit()
        self.job_timeout_s = job_timeout_s if job_timeout_s is not None \
            else default_job_timeout_s()
        self._slots = asyncio.Semaphore(self.workers)
        #: jobs admitted but not yet holding a worker slot
        self.waiting = 0
        #: jobs currently holding a worker slot
        self.running = 0

    def admit(self):
        """Reserve a queue position or raise :class:`QueueFull`.

        Must be called (synchronously, before any await) at submission
        time so over-capacity submissions are refused immediately.
        """
        if self.waiting >= self.queue_limit:
            raise QueueFull(
                f"admission queue at capacity ({self.queue_limit})")
        self.waiting += 1

    async def __aenter__(self):
        await self._slots.acquire()
        self.waiting = max(0, self.waiting - 1)
        self.running += 1
        return self

    async def __aexit__(self, *exc):
        self.running -= 1
        self._slots.release()
        return False

    async def run_bounded(self, coro):
        """Await ``coro`` under the per-job timeout (if configured)."""
        if self.job_timeout_s is None:
            return await coro
        try:
            return await asyncio.wait_for(coro, timeout=self.job_timeout_s)
        except asyncio.TimeoutError:
            raise JobTimeout(
                f"job exceeded {self.job_timeout_s:.1f}s") from None
