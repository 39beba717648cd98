"""Per-layer instrumentation, installed from outside the package.

:func:`install` wraps the public entry points of every layer of the
stack in spans (see ``spans.py``) by patching classes and module
attributes at run time; nothing under ``src/`` is edited.  Wrappers
only read the clock and append to buffers: they draw no randomness and
schedule or reorder nothing, so a traced run executes exactly the
events of an untraced one.

Each scheduled callable is wrapped at ``Simulator.schedule`` time, and
the span it gets is named after the layer that owns the callable's code
(``radio.channel.resolve`` for reception resolution, ``radio.mac.attempt``
for a backoff expiry, ``sim.timer_fire`` for a protocol timer, ...).

A :class:`Harvest` also registers simulators, channels, radios and MACs
as they are built and, at the end of each run or service job, sums the
counters those objects keep themselves (collisions, bit-error losses,
link-cache hits, backoffs).  It is cheap enough for untraced runs, where
it supplies the kernel event count and the channel class that ran.
"""

import threading
import weakref

# Source path fragment -> (layer, name of the span a scheduled callable
# from that file gets).  First match wins, so specific files come first;
# code outside the package (the benchmark's own) is the ``workload``
# layer.
_FILE_LAYERS = (
    ("repro/sim/timers.py", "sim", "sim.timer_fire"),
    ("repro/sim/", "sim", "sim.event"),
    ("repro/radio/channel.py", "radio.channel", "radio.channel.resolve"),
    ("repro/radio/vector_channel.py", "radio.channel",
     "radio.channel.resolve"),
    ("repro/radio/mac.py", "radio.mac", "radio.mac.attempt"),
    ("repro/radio/tdma.py", "radio.mac", "radio.mac.attempt"),
    ("repro/radio/", "radio.radio", "radio.radio.event"),
    ("repro/core/coding.py", "core.coding", "core.coding.event"),
    ("repro/core/auth.py", "core.auth", "core.auth.event"),
    ("repro/core/", "core.mnp", "core.mnp.event"),
    ("repro/baselines/", "core.mnp", "core.mnp.event"),
    ("repro/apps/", "core.mnp", "core.mnp.event"),
    ("repro/hardware/", "hardware", "hardware.event"),
    ("repro/metrics/", "metrics", "metrics.event"),
    ("repro/faults/", "faults", "faults.event"),
    ("repro/", "other", "other.event"),
)

#: Payload types that carry image data (for EEPROM writes per data frame).
DATA_KINDS = frozenset({"DataPacket", "CodedDataPacket"})

_classified = {}


def classify(fn):
    """``(layer, event span name)`` of the code behind callable ``fn``."""
    func = getattr(fn, "__func__", fn)
    code = getattr(func, "__code__", None)
    hit = _classified.get(code)
    if hit is None:
        path = (code.co_filename if code is not None else "").replace(
            "\\", "/")
        hit = ("workload", "workload.event")
        for fragment, layer, name in _FILE_LAYERS:
            if fragment in path:
                hit = (layer, name)
                break
        if code is not None:
            _classified[code] = hit
    return hit


class Harvest:
    """Counters the program's own objects keep, summed per run or job.

    Objects register from their constructors into a per-thread list;
    :meth:`collect` (called in the thread that ran the simulation) adds
    their counters to :attr:`totals` and forgets them.
    """

    FIELDS = {
        "Simulator": ("events_executed",),
        "Channel": ("transmissions", "collisions", "bit_error_losses",
                    "carrier_polls", "link_cache_hits",
                    "link_cache_misses"),
        "Radio": ("frames_received", "frames_corrupted",
                  "frames_bit_errors"),
        "CsmaMac": ("frames_queued", "congestion_backoffs"),
    }

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.totals = {}
        #: channel class name -> channels built; link cache on/off counts
        self.paths = {}

    def register(self, kind, obj):
        objs = getattr(self._local, "objs", None)
        if objs is None:
            objs = self._local.objs = []
        objs.append((kind, obj))

    def collect(self):
        objs = getattr(self._local, "objs", None) or []
        sums = {}
        paths = {}
        for kind, obj in objs:
            for field in self.FIELDS[kind]:
                key = f"{kind}.{field}"
                sums[key] = sums.get(key, 0) + getattr(obj, field)
            if kind == "Channel":
                for key in (f"channel_class={type(obj).__name__}",
                            f"link_cache={'on' if obj.link_cache_enabled else 'off'}"):
                    paths[key] = paths.get(key, 0) + 1
        self._local.objs = []
        with self._lock:
            for key, value in sums.items():
                self.totals[key] = self.totals.get(key, 0) + value
            for key, value in paths.items():
                self.paths[key] = self.paths.get(key, 0) + value
        return sums

    def install(self):
        """Register every Simulator, Channel, Radio and MAC built from
        now on (constructor wrappers; one call per object)."""
        from repro.radio.channel import Channel
        from repro.radio.mac import CsmaMac
        from repro.radio.radio import Radio
        from repro.sim.kernel import Simulator

        for kind, cls in (("Simulator", Simulator), ("Channel", Channel),
                          ("Radio", Radio), ("CsmaMac", CsmaMac)):
            _after_init(cls, lambda obj, kind=kind: self.register(kind, obj))


def _after_init(cls, hook):
    original = cls.__init__

    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        hook(self)

    cls.__init__ = __init__


def install_counters(harvest):
    """The untraced hooks: object registration, and a
    :meth:`Harvest.collect` after each runner execution (service jobs)."""
    harvest.install()
    _wrap_execute(harvest, lambda fn: fn)


def install(rec, harvest):
    """Wrap every layer's entry points in spans recorded by ``rec``
    (a :class:`spans.SpanRecorder`) on top of :func:`install_counters`.
    Call once per process, before building anything."""
    harvest.install()
    _wrap_execute(harvest,
                  lambda fn: rec.wrap(fn, "runner.execute", "runner"))
    _install_sim(rec)
    _install_radio(rec)
    _install_protocol(rec)
    _install_metrics(rec)
    _install_runner(rec)
    _install_service(rec)


def _wrap_execute(harvest, span):
    import repro.runner as runner
    import repro.service.jobs as jobs

    execute = runner.execute_spec

    def execute_and_collect(spec):
        try:
            return execute(spec)
        finally:
            harvest.collect()

    runner.execute_spec = jobs.execute_spec = span(execute_and_collect)


def _install_sim(rec):
    from repro.sim.kernel import Simulator
    from repro.sim.timers import Timer

    wrap = rec.wrap

    def event(fn):
        layer, name = classify(fn)
        return wrap(fn, name, layer)

    schedule = Simulator.schedule
    schedule_at = Simulator.schedule_at
    Simulator.schedule = wrap(
        lambda self, delay, fn, *args: schedule(self, delay, event(fn),
                                                *args),
        "sim.schedule", "sim")
    Simulator.schedule_at = wrap(
        lambda self, time, fn, *args: schedule_at(self, time, event(fn),
                                                  *args),
        "sim.schedule", "sim")
    Simulator.cancel = wrap(Simulator.cancel, "sim.cancel", "sim")
    Simulator.run = wrap(Simulator.run, "sim.run", "sim")
    Simulator.run_until = wrap(Simulator.run_until, "sim.run_until", "sim")

    timer_init = Timer.__init__

    def __init__(self, sim, callback, name="", guard=None):
        layer, _ = classify(callback)
        timer_init(self, sim, wrap(callback, f"{layer}.timer", layer),
                   name, guard)

    Timer.__init__ = __init__


def _install_radio(rec):
    from repro.radio.channel import Channel
    from repro.radio.mac import CsmaMac
    from repro.radio.radio import Radio

    wrap = rec.wrap
    Channel.transmit = wrap(Channel.transmit, "radio.channel.transmit",
                            "radio.channel")
    Channel.carrier_busy = wrap(Channel.carrier_busy,
                                "radio.channel.carrier_busy",
                                "radio.channel")
    try:
        from repro.radio.vector_channel import VectorChannel
    except ImportError:     # numpy missing: only the scalar channel runs
        VectorChannel = None
    if VectorChannel is not None:
        VectorChannel.carrier_busy = wrap(VectorChannel.carrier_busy,
                                          "radio.channel.carrier_busy",
                                          "radio.channel")
    CsmaMac.send = wrap(CsmaMac.send, "radio.mac.send", "radio.mac")
    CsmaMac.on_receive = _hook_property(rec, "on_receive")
    CsmaMac.on_send_done = _hook_property(rec, "on_send_done")
    Radio.deliver = wrap(Radio.deliver, "radio.radio.deliver",
                         "radio.radio")


def _hook_property(rec, attr):
    """A class-level property that wraps whatever client hook a protocol
    assigns to ``mac.<attr>``, named after the hook owner's layer."""
    slot = "_perfbench_" + attr

    def fget(self):
        return self.__dict__.get(slot)

    def fset(self, fn):
        if fn is not None:
            layer, _ = classify(fn)
            inner = fn
            if attr == "on_receive":
                def inner(frame, _fn=fn):
                    if type(frame.payload).__name__ in DATA_KINDS:
                        rec.count("data_frames")
                    return _fn(frame)
            fn = rec.wrap(inner, f"{layer}.{attr}", layer)
        self.__dict__[slot] = fn

    return property(fget, fset)


def _install_protocol(rec):
    import repro.core.auth as auth
    from repro.core.auth import ImageManifest
    from repro.core.coding import GenerationDecoder, GenerationEncoder
    from repro.hardware.eeprom import Eeprom

    wrap = rec.wrap
    Eeprom.write = wrap(Eeprom.write, "hardware.eeprom.write", "hardware")
    add = GenerationDecoder.add

    def counted_add(self, coeffs, payload):
        innovative = add(self, coeffs, payload)
        if innovative:
            rec.count("innovative_rows")
        return innovative

    GenerationDecoder.add = wrap(counted_add, "core.coding.decode",
                                 "core.coding")
    GenerationEncoder.next_coded = wrap(GenerationEncoder.next_coded,
                                        "core.coding.encode", "core.coding")
    for method in ("verify", "verify_segment", "verify_image"):
        setattr(ImageManifest, method,
                wrap(getattr(ImageManifest, method), "core.auth.verify",
                     "core.auth"))
    # Looked up as a module attribute at each call site.
    auth.adv_tag = wrap(auth.adv_tag, "core.auth.adv_tag", "core.auth")


def _install_metrics(rec):
    from repro.sim.tracing import Tracer

    wrap = rec.wrap
    Tracer.emit = wrap(Tracer.emit, "metrics.emit", "metrics")
    subscribe = Tracer.subscribe
    unsubscribe = Tracer.unsubscribe
    wrapped = weakref.WeakKeyDictionary()   # tracer -> {fn: wrapper}

    def traced_subscribe(self, fn, categories=None):
        wrapper = wrap(fn, "metrics.subscriber", "metrics")
        wrapped.setdefault(self, {})[fn] = wrapper
        subscribe(self, wrapper, categories)
        return fn

    def traced_unsubscribe(self, fn):
        unsubscribe(self, wrapped.get(self, {}).pop(fn, fn))

    Tracer.subscribe = traced_subscribe
    Tracer.unsubscribe = traced_unsubscribe


def _install_runner(rec):
    import repro.runner as runner
    import repro.service.jobs as jobs

    wrap = rec.wrap
    cache_key = runner.RunSpec.cache_key
    runner.RunSpec.cache_key = wrap(cache_key, "runner.cache_key", "runner")
    runner.Runner.load_cached = wrap(runner.Runner.load_cached,
                                     "runner.load_cached", "runner")
    runner.Runner.store = wrap(runner.Runner.store, "runner.store",
                               "runner")

    # Server-side spans of one job share its content hash as trace id;
    # the job's task copies the context set here when it is created.
    submit_run = jobs.JobStore.submit_run

    def submit_run_traced(self, spec, kind="run", payload=None):
        token = rec.trace.set(rec.new_trace(cache_key(spec)))
        try:
            return submit_run(self, spec, kind, payload)
        finally:
            rec.trace.reset(token)

    jobs.JobStore.submit_run = submit_run_traced


def _install_service(rec):
    from repro.service.admission import AdmissionControl

    AdmissionControl.__aenter__ = rec.wrap_async(
        AdmissionControl.__aenter__, "service.admission_wait", "service")


def install_client(rec):
    """Spans around the load generator's calls into the service."""
    from repro.service.client import ServiceClient

    for method in ("submit", "wait", "result", "request"):
        setattr(ServiceClient, method,
                rec.wrap_async(getattr(ServiceClient, method),
                               f"service.{method}", "service"))
