"""Parallel experiment orchestration with content-addressed result caching.

The paper's evaluation (20x20 TOSSIM grids, Figs. 5-13) is reproduced by
simulation runs that each cost seconds to minutes of wall clock.  This
module turns collections of such runs -- seed ensembles, size/density/
power sweeps -- into *specs* that can be executed in parallel across
worker processes and cached by content hash, so repeated invocations are
incremental and interrupted sweeps resume where they stopped.

Three pieces:

* :class:`RunSpec` -- a declarative description of one run (experiment
  kind, protocol, scale, seed, parameter overrides).  Specs hash to a
  stable cache key; two specs with the same key produce bit-identical
  metrics because every simulation is a pure function of its spec.
* :class:`Runner` -- executes a list of specs.  Cached specs are loaded
  from JSON manifests under the cache directory; uncached specs run
  either in-process (``workers <= 1``) or on a
  :class:`~concurrent.futures.ProcessPoolExecutor` fleet.  Each
  completed run persists its manifest immediately, and progress /
  heartbeat lines are streamed through a callback.
* the experiment registry -- maps ``spec.experiment`` names to functions
  ``fn(spec, **spec.overrides) -> dict`` living in
  :mod:`repro.experiments`; entries are import paths so worker processes
  resolve them regardless of start method.  The overrides are the
  executor's keyword arguments, so its signature holds every default and
  an override it does not take raises :class:`TypeError`.

Determinism contract: the serial and parallel paths execute the *same*
experiment function on the *same* spec, so they produce identical metric
dicts -- this is what makes the cache sound (see
``tests/test_runner.py``).

Integrity contract: manifests carry a ``metrics_sha256`` digest over the
canonical metrics JSON, and :meth:`Runner.load_cached` recomputes it on
every load -- a truncated, bit-flipped, or hand-edited cache entry is a
miss (the spec re-executes), never a silently served wrong answer.

Sharing contract: identical specs appearing more than once in a single
:meth:`Runner.run` batch execute once; every duplicate index subscribes
to the one execution and receives its own deep copy of the metrics.
This is what lets multi-tenant callers (the :mod:`repro.service` control
plane, conformance fan-outs) submit overlapping work without paying for
it twice.
"""

import copy
import hashlib
import importlib
import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

#: Bump when the meaning of cached metrics changes incompatibly.
CACHE_VERSION = 1

#: Default manifest location (relative to the working directory).
DEFAULT_CACHE_DIR = os.path.join("benchmarks", "cache")

#: Wall-clock seconds between "still running" lines while waiting on the
#: fleet.
HEARTBEAT_S = 15.0

#: experiment name -> "module:function"; the function takes a RunSpec and
#: the spec's overrides as keywords, and returns a JSON-ready metrics
#: dict.  Import paths (rather than function objects) keep specs
#: picklable and workers start-method agnostic.
EXPERIMENTS = {
    "grid": "repro.experiments.common:grid_experiment",
    "density": "repro.experiments.density:density_experiment",
    "power": "repro.experiments.power_sweep:power_experiment",
    "chaos": "repro.experiments.chaos:chaos_experiment",
    "adversary": "repro.experiments.adversary:adversary_experiment",
    "conformance": "repro.conformance.execute:conformance_experiment",
    "coding": "repro.experiments.coding:coding_experiment",
    "probe": "repro.experiments.probe:probe_experiment",
}


def metrics_digest(metrics):
    """SHA-256 over the canonical JSON of a metrics dict.

    Stored in every manifest and recomputed on load, so cache entries
    whose metrics bytes were damaged after the fact are detected.  The
    canonical form survives a JSON round-trip (tuples become lists and
    int keys become strings *before* hashing), so the digest of the
    freshly computed dict equals the digest of its parsed manifest.
    """
    canonical = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(
        json.dumps(json.loads(canonical), sort_keys=True,
                   separators=(",", ":")).encode()
    ).hexdigest()


def resolve_experiment(name):
    """Import and return the executor function for ``name``."""
    try:
        path = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    module_name, _, fn_name = path.partition(":")
    return getattr(importlib.import_module(module_name), fn_name)


class RunSpec:
    """One experiment run, declaratively: hashable, picklable, JSON-able.

    Parameters
    ----------
    experiment:
        Key into :data:`EXPERIMENTS` (``"grid"``, ``"density"``, ...).
    protocol:
        Protocol name as known to :data:`repro.experiments.common.PROTOCOLS`.
    scale:
        Scale name (``"smoke"``/``"default"``/``"paper"``); resolved
        explicitly so worker processes never consult ``REPRO_SCALE``.
        Defaults to the currently selected scale at spec *creation* time.
    seed:
        Master seed for the run.
    overrides:
        JSON-scalar keyword arguments of the experiment executor (e.g.
        ``rows=6, segment_packets=32``).  ``None`` values are dropped so
        "use the default" never perturbs the hash.
    """

    __slots__ = ("experiment", "protocol", "scale", "seed", "overrides")

    def __init__(self, experiment="grid", protocol="mnp", scale=None,
                 seed=0, **overrides):
        if scale is None:
            from repro.experiments.scale import current_scale

            scale = current_scale().name
        self.experiment = experiment
        self.protocol = protocol
        self.scale = scale
        self.seed = seed
        clean = {}
        for key in sorted(overrides):
            value = overrides[key]
            if value is None:
                continue
            if not isinstance(value, (str, int, float, bool, dict, list, tuple)):
                raise TypeError(
                    f"override {key}={value!r} is not JSON-representable"
                )
            clean[key] = value
        self.overrides = clean

    # ------------------------------------------------------------------
    def to_dict(self):
        return {
            "experiment": self.experiment,
            "protocol": self.protocol,
            "scale": self.scale,
            "seed": self.seed,
            "overrides": self.overrides,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            experiment=data["experiment"], protocol=data["protocol"],
            scale=data["scale"], seed=data["seed"], **data["overrides"]
        )

    def cache_key(self):
        """Stable content hash of this spec (hex, 20 chars)."""
        payload = {"version": CACHE_VERSION}
        payload.update(self.to_dict())
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:20]

    def label(self):
        extras = " ".join(f"{k}={v}" for k, v in self.overrides.items())
        return (f"{self.experiment}/{self.protocol} scale={self.scale} "
                f"seed={self.seed}" + (f" {extras}" if extras else ""))

    def __eq__(self, other):
        return (isinstance(other, RunSpec)
                and self.to_dict() == other.to_dict())

    def __hash__(self):
        return hash(self.cache_key())

    def __repr__(self):
        return f"<RunSpec {self.label()}>"


def execute_spec(spec):
    """Run one spec in this process and return its metrics dict."""
    return resolve_experiment(spec.experiment)(spec, **spec.overrides)


def _pool_worker(spec_dict):
    """Module-level worker entry point (picklable for the process pool)."""
    start = time.perf_counter()
    metrics = execute_spec(RunSpec.from_dict(spec_dict))
    return metrics, time.perf_counter() - start


class RunnerStats:
    """Counters for one :meth:`Runner.run` invocation."""

    def __init__(self):
        self.hits = 0
        self.misses = 0
        #: duplicate specs within one batch that subscribed to another
        #: index's execution instead of running themselves
        self.shared = 0
        self.elapsed_s = 0.0

    def __repr__(self):
        return (f"<RunnerStats hits={self.hits} misses={self.misses} "
                f"shared={self.shared} elapsed={self.elapsed_s:.1f}s>")


class Runner:
    """Execute :class:`RunSpec` lists with caching and a process fleet.

    Parameters
    ----------
    workers:
        ``0`` or ``1`` runs specs serially in-process; ``>= 2`` fans out
        over a :class:`ProcessPoolExecutor` of that many workers.  A
        negative count raises :class:`ValueError`.
    cache_dir:
        Directory for JSON manifests, or ``None`` to disable caching
        entirely (library callers default to no cache; the CLI points at
        ``benchmarks/cache``).
    progress:
        ``fn(line)`` receiving human-readable progress/heartbeat lines
        (one every :data:`HEARTBEAT_S` while the fleet is busy); ``None``
        silences them.
    """

    def __init__(self, workers=0, cache_dir=None, progress=None):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = int(workers)
        self.cache_dir = cache_dir
        self.progress = progress
        self.stats = RunnerStats()

    # ------------------------------------------------------------------
    # Cache
    # ------------------------------------------------------------------
    def manifest_path(self, spec):
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, f"{spec.cache_key()}.json")

    def load_cached(self, spec):
        """The cached metrics for ``spec``, or None on miss/corruption.

        A manifest is served only if (a) it parses, (b) its embedded
        spec matches byte-for-byte (hash collision / stale key), and
        (c) its ``metrics_sha256`` digest matches the stored metrics --
        so truncation or bit flips anywhere in the entry downgrade it to
        a miss and the spec re-executes.  Pre-digest manifests (no
        ``metrics_sha256`` field) are likewise re-executed rather than
        trusted.
        """
        path = self.manifest_path(spec)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(manifest, dict):
            return None
        if manifest.get("spec") != spec.to_dict():  # hash collision/stale
            return None
        metrics = manifest.get("metrics")
        if metrics is None:
            return None
        try:
            if manifest.get("metrics_sha256") != metrics_digest(metrics):
                return None
        except (TypeError, ValueError):
            return None
        return metrics

    def store(self, spec, metrics, elapsed_s):
        """Atomically persist one run's manifest; no-op when uncached."""
        path = self.manifest_path(spec)
        if path is None:
            return None
        os.makedirs(self.cache_dir, exist_ok=True)
        manifest = {
            "cache_version": CACHE_VERSION,
            "key": spec.cache_key(),
            "spec": spec.to_dict(),
            "elapsed_s": elapsed_s,
            "metrics": metrics,
            "metrics_sha256": metrics_digest(metrics),
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        return path

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _say(self, line):
        if self.progress is not None:
            self.progress(line)

    def run(self, specs):
        """Execute every spec, returning metrics dicts in spec order.

        Cached specs never re-run.  Manifests are written the moment each
        run finishes, so an interrupted sweep is resumable: re-invoking
        with the same specs only executes what is still missing.
        """
        specs = list(specs)
        t0 = time.perf_counter()
        results = [None] * len(specs)
        pending = []   # (leader index, spec) -- one entry per unique key
        leaders = {}   # cache key -> leader index
        fan_in = {}    # leader index -> [duplicate indices]
        for i, spec in enumerate(specs):
            cached = self.load_cached(spec)
            if cached is not None:
                results[i] = cached
                self.stats.hits += 1
                self._say(f"[runner] cache hit  {spec.label()}")
                continue
            key = spec.cache_key()
            if key in leaders:
                # Identical spec already queued in this batch: subscribe
                # this index to the leader's execution instead of paying
                # for a second run.
                fan_in.setdefault(leaders[key], []).append(i)
                self.stats.shared += 1
                self._say(f"[runner] shared     {spec.label()}")
                continue
            leaders[key] = i
            pending.append((i, spec))
        self.stats.misses += len(pending)
        if pending:
            n = len(pending)
            if self.workers >= 2:
                self._say(f"[runner] {n} uncached spec(s) across "
                          f"{min(self.workers, n)} workers")
                self._run_parallel(pending, results)
            else:
                self._say(f"[runner] {n} uncached spec(s), serial")
                self._run_serial(pending, results)
        for leader, subscribers in fan_in.items():
            for i in subscribers:
                results[i] = copy.deepcopy(results[leader])
        self.stats.elapsed_s += time.perf_counter() - t0
        return results

    def _finish(self, index, spec, metrics, elapsed_s, done, total):
        self.store(spec, metrics, elapsed_s)
        self._say(f"[runner] {done}/{total} done  {spec.label()}  "
                  f"({elapsed_s:.1f}s)")
        return metrics

    def _run_serial(self, pending, results):
        total = len(pending)
        for done, (i, spec) in enumerate(pending, start=1):
            start = time.perf_counter()
            metrics = execute_spec(spec)
            results[i] = self._finish(i, spec, metrics,
                                      time.perf_counter() - start,
                                      done, total)

    def _run_parallel(self, pending, results):
        total = len(pending)
        done = 0
        with ProcessPoolExecutor(
            max_workers=min(self.workers, total)
        ) as pool:
            futures = {
                pool.submit(_pool_worker, spec.to_dict()): (i, spec)
                for i, spec in pending
            }
            waiting = set(futures)
            started = time.perf_counter()
            while waiting:
                finished, waiting = wait(
                    waiting, timeout=HEARTBEAT_S,
                    return_when=FIRST_COMPLETED,
                )
                if not finished:
                    self._say(
                        f"[runner] heartbeat: {done}/{total} done, "
                        f"{len(waiting)} running/queued, "
                        f"{time.perf_counter() - started:.0f}s elapsed"
                    )
                    continue
                for future in finished:
                    i, spec = futures[future]
                    metrics, elapsed_s = future.result()
                    done += 1
                    results[i] = self._finish(i, spec, metrics, elapsed_s,
                                              done, total)


def sweep(specs, workers=0, cache_dir=None, progress=None):
    """Convenience: run ``specs`` on a fresh :class:`Runner`.

    Returns ``(results, runner)`` so callers can inspect cache stats.
    """
    runner = Runner(workers=workers, cache_dir=cache_dir, progress=progress)
    return runner.run(specs), runner
