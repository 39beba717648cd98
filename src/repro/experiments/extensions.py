"""Extension experiments: the paper's future-work ideas, measured.

* :func:`delta_vs_full` -- §5 complementarity: ship a difference script
  through MNP instead of the whole new image and compare cost.
* :func:`initial_sleep_schedule` -- the Fig. 9 discussion: an S-MAC-style
  synchronized duty cycle for nodes still waiting for the propagation
  wave, measured against always-listening MNP.
"""

from repro.core.config import MNPConfig
from repro.core.delta import delta_image, reconstruct_image
from repro.core.segments import CodeImage
from repro.experiments.common import RANGE_FT, SPACING_FT, Deployment, \
    grid_deployment
from repro.metrics.reports import format_table
from repro.net.loss_models import EmpiricalLossModel
from repro.net.topology import Topology
from repro.radio.propagation import PropagationModel
from repro.sim.kernel import MINUTE, SECOND


class UpdateOutcome:
    """Cost of shipping one update (full image or delta script)."""

    def __init__(self, label, image, run):
        self.label = label
        self.payload_bytes = image.size_bytes
        self.completion_s = run.completion_time_ms / SECOND \
            if run.completion_time_ms else None
        self.art_s = run.average_active_radio_s()
        self.data_tx = sum(
            1 for _, _, kind in run.collector.tx_log if kind == "DataPacket"
        )
        self.coverage = run.coverage
        energy = run.energy_nah()
        self.mean_energy_nah = sum(energy.values()) / len(energy)


def _run_update(image, rows, cols, seed):
    topo = Topology.grid(rows, cols, SPACING_FT)
    dep = Deployment(
        topo, image=image, protocol="mnp",
        protocol_config=MNPConfig(query_update=True), seed=seed,
        propagation=PropagationModel(RANGE_FT, 3.0),
        loss_model=EmpiricalLossModel(seed=seed),
    )
    run = dep.run_to_completion(deadline_ms=4 * 60 * MINUTE)
    return dep, run


def delta_vs_full(rows=8, cols=8, n_segments=3, change_bytes=64, seed=0):
    """Ship an incremental firmware fix two ways: the whole v2 image vs
    the v1->v2 edit script, both via MNP on identical networks.

    Returns ``(full_outcome, delta_outcome, verified)`` where ``verified``
    confirms every node's reconstructed v2 is byte-identical.
    """
    v1 = CodeImage.random(1, n_segments=n_segments, segment_packets=64,
                          seed=seed)
    v1_bytes = v1.to_bytes()
    # A localized fix: overwrite `change_bytes` bytes in the middle.
    fix = bytes((i * 37 + 11) % 256 for i in range(change_bytes))
    middle = len(v1_bytes) // 2
    v2_bytes = v1_bytes[:middle] + fix + v1_bytes[middle + change_bytes:]
    v2 = CodeImage.from_bytes(2, v2_bytes, segment_packets=64)
    patch = delta_image(v1, v2)

    _, full_run = _run_update(v2, rows, cols, seed)
    patch_dep, patch_run = _run_update(patch, rows, cols, seed)

    verified = all(
        reconstruct_image(v1_bytes, node.assemble_image()) == v2_bytes
        for node in patch_dep.nodes.values()
        if node.has_full_image
    )
    return (UpdateOutcome("full image", v2, full_run),
            UpdateOutcome("delta script", patch, patch_run),
            verified)


def update_report(outcomes):
    rows = [
        [o.label, o.payload_bytes, f"{o.coverage:.0%}",
         f"{o.completion_s:.0f}" if o.completion_s else "-",
         f"{o.art_s:.0f}", o.data_tx, f"{o.mean_energy_nah / 1000:.0f}"]
        for o in outcomes
    ]
    return format_table(
        ["update as", "payload(B)", "coverage", "completion(s)",
         "avg ART(s)", "data tx", "energy(uAh)"],
        rows,
        title="Difference-based updates through MNP (§5 complementarity)",
    )


class CoexistenceOutcome:
    """Application health while a reprogramming protocol runs."""

    def __init__(self, label, delivery_ratio, generated, window_s,
                 completion_s, coverage):
        self.label = label
        self.delivery_ratio = delivery_ratio
        self.generated = generated
        self.window_s = window_s
        self.completion_s = completion_s
        self.coverage = coverage


def coexistence(reprogram_with=None, rows=6, cols=6, n_segments=2,
                seed=0, window_min=None):
    """Measure a live sensing application's delivery ratio while the
    network is (or is not) being reprogrammed.

    The paper requires dissemination to coexist with applications (§2);
    this quantifies the cost: MNP's sleeping silences relays (readings
    die at sleeping hops), while always-on protocols compete for the
    channel instead.

    ``reprogram_with`` is None (quiet baseline), "mnp", or "deluge".
    Returns a :class:`CoexistenceOutcome` measured over the reprogramming
    window (or ``window_min`` for the quiet baseline).
    """
    from repro.apps.mux import ProtocolMux
    from repro.apps.sensing import SensingApp, SensingConfig
    from repro.baselines.deluge import PageRequest, Summary
    from repro.core.messages import (
        Advertisement, DataPacket, DownloadRequest, EndDownload, Query,
        RepairRequest, StartDownload,
    )

    mnp_types = (Advertisement, DownloadRequest, StartDownload, DataPacket,
                 EndDownload, Query, RepairRequest)
    deluge_types = (Summary, PageRequest, DataPacket)

    dep = grid_deployment(rows, cols, reprogram_with or "mnp", n_segments,
                          64, seed)
    sink_id = dep.topology.corner_node("top-right")  # opposite the base
    apps = {}
    for node_id, mote in dep.motes.items():
        mux = ProtocolMux(mote)
        if reprogram_with == "mnp":
            mux.attach_node(dep.nodes[node_id], mnp_types)
        elif reprogram_with == "deluge":
            mux.attach_node(dep.nodes[node_id], deluge_types)
        app = SensingApp(mote, SensingConfig(sample_interval_ms=4_000.0),
                         is_sink=(node_id == sink_id))
        mux.attach_node(app, SensingApp.MESSAGE_TYPES)
        apps[node_id] = app

    if reprogram_with is None:
        for mote in dep.motes.values():
            mote.wake_radio()
    else:
        dep.start()
    for app in apps.values():
        app.start()

    if reprogram_with is None:
        window = (window_min or 5) * MINUTE
        dep.sim.run(until=window)
        completion_s = None
        coverage = None
    else:
        dep.settle(60 * MINUTE)
        window = dep.sim.now
        completion_s = window / SECOND
        coverage = sum(
            1 for n in dep.nodes.values() if n.has_full_image
        ) / len(dep.nodes)

    sink = apps[sink_id]
    return CoexistenceOutcome(
        label=reprogram_with or "no reprogramming",
        delivery_ratio=sink.delivery_ratio(list(apps.values())),
        generated=sum(a.readings_generated for a in apps.values()),
        window_s=window / SECOND,
        completion_s=completion_s,
        coverage=coverage,
    )


def coexistence_report(outcomes):
    rows = [
        [o.label,
         f"{o.delivery_ratio:.0%}" if o.delivery_ratio is not None else "-",
         o.generated, f"{o.window_s:.0f}",
         f"{o.completion_s:.0f}" if o.completion_s else "-",
         f"{o.coverage:.0%}" if o.coverage is not None else "-"]
        for o in outcomes
    ]
    return format_table(
        ["scenario", "app delivery", "readings", "window(s)",
         "reprog done(s)", "coverage"],
        rows,
        title="Application traffic while reprogramming (§2 coexistence)",
    )


def mnp_over_tdma(rows=8, cols=8, n_segments=2, seed=0, slot_ms=30.0):
    """§6: run MNP over an SS-TDMA style slotted MAC and compare with the
    stock CSMA run on an identical network.

    Returns ``(csma_run, tdma_run, schedule)``.  The TDMA schedule is a
    distance-2 coloring at the interference range, so concurrent
    transmissions can never collide; the price is slot-waiting latency.
    """
    from repro.hardware.mote import MoteConfig
    from repro.radio.tdma import TdmaMac, build_tdma_schedule

    def run(mac_factory):
        dep = grid_deployment(rows, cols, "mnp", n_segments, 64, seed,
                              mote_config=MoteConfig(mac_factory=mac_factory))
        return dep.run_to_completion(deadline_ms=8 * 60 * MINUTE)

    csma_run = run(None)
    schedule = build_tdma_schedule(csma_run.topology, RANGE_FT,
                                   slot_ms=slot_ms)
    tdma_run = run(
        lambda sim, radio, channel, seed_: TdmaMac(sim, radio, channel,
                                                   schedule, seed=seed_)
    )
    return csma_run, tdma_run, schedule


def initial_sleep_schedule(rows=10, cols=10, n_segments=2, duty=0.5,
                           period_ms=2_000.0, seed=0):
    """The Fig. 9 fix the paper sketches: let idle nodes duty-cycle their
    radio on a synchronized schedule until the first advertisement
    arrives, instead of listening continuously.

    Implemented as a harness-level schedule (all nodes share phase, as
    S-MAC would arrange): each idle-waiting node's radio is switched off
    for ``(1-duty)`` of every ``period_ms`` until it has heard its first
    advertisement.  Returns ``(baseline_run, scheduled_run)``.
    """
    from repro.core.states import MNPState

    def run(schedule):
        dep = grid_deployment(rows, cols, "mnp", n_segments, 64, seed)
        if schedule:
            def tick(off):
                for node in dep.nodes.values():
                    if node.heard_first_adv or node is dep.nodes[dep.base_id]:
                        continue
                    if node.state != MNPState.IDLE:
                        continue
                    if off:
                        node.mote.sleep_radio()
                    else:
                        node.mote.wake_radio()
                dep.sim.schedule(
                    period_ms * (duty if off else (1 - duty)),
                    tick, not off,
                )

            dep.sim.schedule(period_ms * duty, tick, True)
        return dep.run_to_completion(deadline_ms=4 * 60 * MINUTE)

    return run(schedule=False), run(schedule=True)
