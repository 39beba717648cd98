"""The dissemination service's HTTP/1.1 front end (stdlib asyncio only).

A deliberately small, hand-rolled HTTP server over ``asyncio`` streams --
no new dependencies -- speaking JSON on every endpoint:

====== =============================== =================================
method path                            meaning
====== =============================== =================================
GET    ``/healthz``                    liveness + store stats
GET    ``/v1/stats``                   same stats, stable shape
POST   ``/v1/jobs``                    submit ``{"kind", "spec"}``
GET    ``/v1/jobs``                    job summaries (submission order)
GET    ``/v1/jobs/<key>``              one job's status record
GET    ``/v1/jobs/<key>/result``       deterministic result payload
GET    ``/v1/jobs/<key>/events``       progress events (``?since=N``,
                                       ``?wait=SECONDS`` long-poll)
POST   ``/v1/jobs/<key>/cancel``       cancel (queued or mid-run)
POST   ``/v1/shutdown``                ``{"drain": true}`` = graceful
====== =============================== =================================

Every error -- truncated body, malformed JSON, unknown experiment,
oversized spec, full queue, draining -- returns a structured
``{"error": ..., "detail": ...}`` body with an appropriate status code
and *never* wedges the accept loop: the offending connection is closed,
the listener keeps accepting.

Submission kinds:

* ``run`` -- a :class:`repro.runner.RunSpec` dict (``experiment``,
  ``protocol``, ``scale``, ``seed``, ``overrides``); the experiment must
  be registered.
* ``scenario`` -- a :class:`repro.conformance.spec.ScenarioSpec` dict
  (plus optional top-level ``protocol``), executed through the
  conformance executor.
* ``sweep`` -- a campaign: the run shape but with ``seeds`` (a list)
  instead of ``seed``; fans out one child run job per seed and completes
  when they all do.  Children dedup against every other tenant's jobs.

Body size is bounded by ``REPRO_SERVICE_MAX_BODY`` (default 1 MiB).
"""

import asyncio
import json
from urllib.parse import parse_qs, urlsplit

from repro.runner import EXPERIMENTS, RunSpec
from repro.service.admission import AdmissionControl, QueueFull, \
    env_setting
from repro.service.jobs import JobStore, ServiceDraining

#: Upper bound on request bodies (and a related stream buffer limit).
DEFAULT_MAX_BODY = 1 << 20

#: Seconds a started body may dribble before the request is rejected.
DEFAULT_BODY_TIMEOUT_S = 5.0

#: Hard cap on sweep fan-out per submission.
MAX_SWEEP_SEEDS = 256

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 408: "Request Timeout",
            409: "Conflict", 410: "Gone", 413: "Payload Too Large",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}


def default_max_body():
    """Request-body byte cap: ``REPRO_SERVICE_MAX_BODY`` or 1 MiB."""
    return env_setting("REPRO_SERVICE_MAX_BODY", DEFAULT_MAX_BODY, int,
                       lambda n: n >= 1024, "an integer >= 1024")


class _HttpError(Exception):
    """Maps straight to a structured JSON error response."""

    def __init__(self, status, error, detail=None, close=False):
        super().__init__(error)
        self.status = status
        self.error = error
        self.detail = detail
        self.close = close  # connection state unknown: hang up after

    def body(self):
        payload = {"error": self.error}
        if self.detail is not None:
            payload["detail"] = self.detail
        return payload


class Service:
    """The long-running control plane: job store + HTTP listener."""

    def __init__(self, workers=None, cache_dir=None, queue_limit=None,
                 job_timeout_s=None, max_body=None,
                 body_timeout_s=DEFAULT_BODY_TIMEOUT_S, progress=None):
        self.admission = AdmissionControl(workers=workers,
                                          queue_limit=queue_limit,
                                          job_timeout_s=job_timeout_s)
        self.store = JobStore(self.admission, cache_dir=cache_dir,
                              progress=progress)
        self.max_body = max_body if max_body is not None \
            else default_max_body()
        self.body_timeout_s = body_timeout_s
        self.progress = progress
        self._server = None
        self._connections = set()
        self._conn_tasks = set()
        self._shutdown = asyncio.Event()
        self.host = None
        self.port = None

    # ------------------------------------------------------------------
    def _say(self, line):
        if self.progress is not None:
            self.progress(line)

    async def start(self, host="127.0.0.1", port=0):
        """Bind and start accepting; returns ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port,
            limit=self.max_body + 65536,
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        self._say(f"[service] listening on http://{self.host}:{self.port}")
        return self.host, self.port

    async def serve_forever(self):
        """Block until :meth:`stop` (or a drain via POST /v1/shutdown)."""
        await self._shutdown.wait()

    async def stop(self, drain=True):
        """Shut down; ``drain=True`` finishes in-flight jobs first."""
        if self._server is not None:
            self._server.close()          # stop accepting new connections
        if drain:
            await self.store.drain()
        # Hang up idle keep-alive connections so wait_closed() cannot
        # stall on a client that never disconnects.
        for writer in list(self._connections):
            writer.close()
        here = asyncio.current_task()
        pending = [t for t in self._conn_tasks if t is not here]
        if pending:
            _done, stuck = await asyncio.wait(pending, timeout=5.0)
            for task in stuck:       # e.g. parked in a long-poll
                task.cancel()
            if stuck:
                await asyncio.gather(*stuck, return_exceptions=True)
        self._conn_tasks.clear()
        if self._server is not None:
            await self._server.wait_closed()
        self._shutdown.set()
        self._say("[service] stopped")

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer):
        self._connections.add(writer)
        self._conn_tasks.add(asyncio.current_task())
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, query, body = request
                try:
                    status, payload = await self._route(method, path,
                                                        query, body)
                except _HttpError as exc:
                    await self._respond(writer, exc.status, exc.body())
                    if exc.close:
                        break
                    continue
                except Exception as exc:  # route bug: report, keep serving
                    await self._respond(writer, 500, {
                        "error": "internal",
                        "detail": f"{type(exc).__name__}: {exc}",
                    })
                    continue
                await self._respond(writer, status, payload)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except _HttpError as exc:   # malformed head/body: answer + hang up
            try:
                await self._respond(writer, exc.status, exc.body())
            except ConnectionError:
                pass
        finally:
            self._connections.discard(writer)
            self._conn_tasks.discard(asyncio.current_task())
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader):
        """One request, or None on clean EOF.  Raises _HttpError."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None           # clean close between requests
            raise _HttpError(400, "truncated-request",
                             "connection closed inside the request head",
                             close=True) from None
        except asyncio.LimitOverrunError:
            raise _HttpError(431, "oversized-head",
                             "request head exceeds the buffer limit",
                             close=True) from None
        try:
            head_text = head.decode("latin-1")
            request_line, *header_lines = head_text.split("\r\n")
            method, target, version = request_line.split(" ", 2)
            if not version.startswith("HTTP/") or not method.isalpha():
                raise ValueError
        except ValueError:
            raise _HttpError(400, "malformed-request-line",
                             "expected 'METHOD PATH HTTP/1.1'",
                             close=True) from None
        headers = {}
        for line in header_lines:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _HttpError(400, "malformed-header", line[:80],
                                 close=True)
            headers[name.strip().lower()] = value.strip()
        parts = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}

        body = b""
        raw_length = headers.get("content-length")
        if raw_length is not None:
            try:
                length = int(raw_length)
                if length < 0:
                    raise ValueError
            except ValueError:
                raise _HttpError(400, "malformed-content-length",
                                 raw_length[:40], close=True) from None
            if length > self.max_body:
                raise _HttpError(413, "oversized-body",
                                 f"{length} bytes > limit {self.max_body}",
                                 close=True)
            if length:
                try:
                    body = await asyncio.wait_for(
                        reader.readexactly(length),
                        timeout=self.body_timeout_s)
                except asyncio.IncompleteReadError as exc:
                    raise _HttpError(
                        400, "truncated-body",
                        f"Content-Length {length}, got "
                        f"{len(exc.partial)} bytes", close=True) from None
                except asyncio.TimeoutError:
                    raise _HttpError(
                        408, "body-timeout",
                        f"body not received within "
                        f"{self.body_timeout_s:.1f}s", close=True) \
                        from None
        return method.upper(), parts.path, query, body

    async def _respond(self, writer, status, payload):
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        reason = _REASONS.get(status, "Unknown")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"\r\n".encode() + body
        )
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(self, method, path, query, body):
        if path == "/healthz" and method == "GET":
            return 200, {"ok": True, "stats": self.store.stats()}
        if path == "/v1/stats" and method == "GET":
            return 200, self.store.stats()
        if path == "/v1/jobs":
            if method == "POST":
                return self._submit(self._parse_json(body))
            if method == "GET":
                jobs = sorted(self.store.jobs.values(),
                              key=lambda j: j.seq)
                return 200, {"jobs": [j.to_summary() for j in jobs]}
            raise _HttpError(405, "method-not-allowed", method)
        if path == "/v1/shutdown" and method == "POST":
            payload = self._parse_json(body) if body else {}
            drain = bool(payload.get("drain", True))
            if drain:
                self.store.draining = True   # refuse new work at once
                await self.store.drain()
            summary = self.store.stats()
            asyncio.get_running_loop().create_task(self.stop(drain=False))
            return 200, {"ok": True, "drained": drain, "stats": summary}
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            key, _, action = rest.partition("/")
            job = self.store.jobs.get(key)
            if job is None:
                raise _HttpError(404, "unknown-job", key[:64])
            if not action and method == "GET":
                return 200, job.to_summary()
            if action == "result" and method == "GET":
                if job.status == "done":
                    return 200, job.result
                if job.terminal:
                    raise _HttpError(410, f"job-{job.status}", job.error)
                raise _HttpError(409, "job-pending", job.status)
            if action == "events" and method == "GET":
                return await self._events(job, query)
            if action == "cancel" and method == "POST":
                changed = self.store.cancel(key)
                return 200, {"key": key, "status": job.status,
                             "cancelled": changed}
            raise _HttpError(404, "unknown-endpoint", path[:80])
        raise _HttpError(404, "unknown-endpoint", path[:80])

    def _parse_json(self, body):
        if not body:
            raise _HttpError(400, "empty-body",
                             "expected a JSON object body")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise _HttpError(400, "malformed-json", str(exc)[:120]) \
                from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "malformed-json",
                             f"expected an object, got "
                             f"{type(payload).__name__}")
        return payload

    async def _events(self, job, query):
        try:
            since = int(query.get("since", 0))
            wait_s = float(query.get("wait", 0))
        except ValueError:
            raise _HttpError(400, "malformed-query",
                             "since/wait must be numeric") from None
        if wait_s > 0 and len(job.events) <= since and not job.terminal:
            await job.wait_change(timeout=min(wait_s, 60.0))
        return 200, {
            "key": job.key,
            "status": job.status,
            "events": job.events[max(0, since):],
            "events_dropped": job.events_dropped,
        }

    # ------------------------------------------------------------------
    # Submission parsing
    # ------------------------------------------------------------------
    def _submit(self, payload):
        kind = payload.get("kind", "run")
        spec = payload.get("spec")
        if not isinstance(spec, dict):
            raise _HttpError(400, "malformed-spec",
                             "'spec' must be a JSON object")
        try:
            if kind == "run":
                job, deduped = self.store.submit_run(
                    self._build_runspec(spec))
            elif kind == "scenario":
                job, deduped = self._submit_scenario(payload, spec)
            elif kind == "sweep":
                job, deduped = self._submit_sweep(spec)
            else:
                raise _HttpError(400, "unknown-kind",
                                 f"{kind!r} not in run/scenario/sweep")
        except QueueFull as exc:
            raise _HttpError(503, "queue-full", str(exc)) from None
        except ServiceDraining as exc:
            raise _HttpError(503, "draining", str(exc)) from None
        return 200, {"job": job.key, "status": job.status,
                     "deduped": deduped, "kind": job.kind}

    def _build_runspec(self, spec):
        experiment = spec.get("experiment", "probe")
        if experiment not in EXPERIMENTS:
            raise _HttpError(400, "unknown-experiment",
                             f"{str(experiment)[:40]!r}; known: "
                             f"{sorted(EXPERIMENTS)}")
        overrides = spec.get("overrides", {})
        if not isinstance(overrides, dict):
            raise _HttpError(400, "malformed-spec",
                             "'overrides' must be an object")
        try:
            return RunSpec(
                experiment=experiment,
                protocol=spec.get("protocol", "mnp"),
                scale=spec.get("scale", "smoke"),
                seed=spec.get("seed", 0),
                **overrides,
            )
        except (TypeError, ValueError) as exc:
            raise _HttpError(400, "malformed-spec", str(exc)[:160]) \
                from None

    def _submit_scenario(self, payload, spec):
        from repro.conformance.spec import ScenarioSpec

        try:
            scenario = ScenarioSpec.from_dict(spec)
        except (TypeError, ValueError, KeyError) as exc:
            raise _HttpError(400, "malformed-scenario", str(exc)[:160]) \
                from None
        protocol = payload.get("protocol", "mnp")
        run_spec = RunSpec(experiment="conformance", protocol=protocol,
                           scale="smoke", seed=scenario.seed,
                           scenario=scenario.to_dict())
        return self.store.submit_run(
            run_spec, kind="scenario",
            payload={"scenario": scenario.to_dict(),
                     "protocol": protocol})

    def _submit_sweep(self, spec):
        seeds = spec.get("seeds")
        if not isinstance(seeds, list) or not seeds \
                or not all(isinstance(s, int) for s in seeds):
            raise _HttpError(400, "malformed-spec",
                             "'seeds' must be a non-empty list of ints")
        if len(seeds) > MAX_SWEEP_SEEDS:
            raise _HttpError(413, "oversized-sweep",
                             f"{len(seeds)} seeds > limit "
                             f"{MAX_SWEEP_SEEDS}")
        child_template = dict(spec)
        del child_template["seeds"]
        child_specs = [
            self._build_runspec({**child_template, "seed": seed})
            for seed in seeds
        ]
        payload = {
            "experiment": child_specs[0].experiment,
            "protocol": child_specs[0].protocol,
            "scale": child_specs[0].scale,
            "seeds": seeds,
            "overrides": child_specs[0].overrides,
        }
        return self.store.submit_sweep(child_specs, payload)
