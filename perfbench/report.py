"""Turning spans and counters into the reported metrics.

:data:`END_TO_END` and :data:`PER_LAYER` list every metric the benchmark
prints, in order, with its unit; ``BENCHMARK.json`` lists the same names
(``selftest.py`` checks that they agree).  Counts (unit ``count``) come
from a seeded run and repeat exactly; only timings vary between runs.
"""

import spans

#: (name, unit, better) -- printed by every untraced run.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("events_per_s", "events/s", "higher"),
    ("jobs_per_s", "jobs/s", "higher"),
    ("job_latency_p50_ms", "ms", "lower"),
    ("job_latency_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit) -- printed by every traced run; a layer that does not
#: run in a workload reads zero there.
PER_LAYER = (
    ("setup.import_s", "s"),
    ("setup.build_s", "s"),
    ("sim.events", "count"),
    ("sim.scheduled", "count"),
    ("sim.cancelled_frac", "ratio"),
    ("sim.timer_fires", "count"),
    ("sim.self_s", "s"),
    ("radio.channel.transmissions", "count"),
    ("radio.channel.collisions", "count"),
    ("radio.channel.bit_error_losses", "count"),
    ("radio.channel.carrier_polls", "count"),
    ("radio.channel.link_cache_hit_frac", "ratio"),
    ("radio.channel.self_s", "s"),
    ("radio.mac.frames_queued", "count"),
    ("radio.mac.backoff_frac", "ratio"),
    ("radio.mac.self_s", "s"),
    ("radio.radio.frames_received", "count"),
    ("radio.radio.frames_corrupted", "count"),
    ("radio.radio.self_s", "s"),
    ("core.mnp.frames_handled", "count"),
    ("core.mnp.useful_rx_frac", "ratio"),
    ("core.mnp.self_s", "s"),
    ("hardware.eeprom.writes", "count"),
    ("hardware.self_s", "s"),
    ("core.coding.decode_calls", "count"),
    ("core.coding.encode_calls", "count"),
    ("core.coding.innovative_frac", "ratio"),
    ("core.coding.self_s", "s"),
    ("core.auth.verify_calls", "count"),
    ("core.auth.self_s", "s"),
    ("metrics.emits", "count"),
    ("metrics.subscriber_s", "s"),
    ("runner.executions", "count"),
    ("runner.cache_key_s", "s"),
    ("runner.load_cached_s", "s"),
    ("runner.store_s", "s"),
    ("service.submit_ms", "ms"),
    ("service.admission_wait_ms", "ms"),
    ("service.execute_ms", "ms"),
    ("service.result_ms", "ms"),
    ("service.dedup_frac", "ratio"),
    ("service.requests_per_job", "requests/job"),
    ("trace.overhead_frac", "ratio"),
)

#: Spans whose individual durations are kept (for per-job percentiles).
_KEEP_DURATIONS = ("service.submit", "service.result",
                   "service.admission_wait", "runner.execute")


def span_aggregates(rec):
    """Per-span-name calls, inclusive and self time, plus per-layer self
    time, for everything ``rec`` recorded (JSON-ready)."""
    cols = rec.spans()
    own = spans.self_times(cols)
    names = {}
    durations = {name: [] for name in _KEEP_DURATIONS}
    for i in range(len(cols)):
        name = rec.names[cols.name[i]]
        entry = names.get(name)
        if entry is None:
            entry = names[name] = {"layer": rec.layers[cols.name[i]],
                                   "calls": 0, "total_s": 0.0,
                                   "self_s": 0.0}
        dur = cols.end[i] - cols.start[i]
        entry["calls"] += 1
        entry["total_s"] += dur
        entry["self_s"] += own[i]
        if name in durations:
            durations[name].append(dur * 1000.0)
    return {"names": names, "durations_ms": durations,
            "counts": dict(rec.counts), "spans": len(cols)}


def merge(*aggregates):
    """Sum aggregates from several processes (client and service)."""
    out = {"names": {}, "durations_ms": {n: [] for n in _KEEP_DURATIONS},
           "counts": {}, "spans": 0}
    for agg in aggregates:
        for name, entry in agg["names"].items():
            mine = out["names"].setdefault(
                name, {"layer": entry["layer"], "calls": 0,
                       "total_s": 0.0, "self_s": 0.0})
            for key in ("calls", "total_s", "self_s"):
                mine[key] += entry[key]
        for name, values in agg["durations_ms"].items():
            out["durations_ms"].setdefault(name, []).extend(values)
        for key, value in agg["counts"].items():
            out["counts"][key] = out["counts"].get(key, 0) + value
        out["spans"] += agg["spans"]
    return out


def layer_self_s(agg):
    """Layer -> summed self time of its spans."""
    out = {}
    for entry in agg["names"].values():
        out[entry["layer"]] = out.get(entry["layer"], 0.0) \
            + entry["self_s"]
    return out


def per_layer(agg, harvest, setup, overhead, service_stats):
    """Every :data:`PER_LAYER` metric: ``(values, bases)``.

    ``harvest`` holds the objects' own counters (``layers.Harvest``),
    ``setup`` the medians of the setup probes, ``overhead`` a
    :func:`spans.ratio` of traced minus untraced wall time over the
    untraced one, ``service_stats`` the service's counter deltas (None
    on the simulation workloads)."""
    names = agg["names"]
    counts = agg["counts"]
    selfs = layer_self_s(agg)
    stats = service_stats or {}

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def total(name):
        return names.get(name, {}).get("total_s", 0.0)

    def h(key):
        return harvest.get(key, 0)

    def p50(name):
        got = spans.percentile(agg["durations_ms"].get(name, []), 0.5)
        return {"value": got["value"] or 0.0, "n": got["n"]}

    hits = h("Channel.link_cache_hits")
    ratios = {
        "sim.cancelled_frac": spans.ratio(calls("sim.cancel"),
                                          calls("sim.schedule")),
        "radio.channel.link_cache_hit_frac": spans.ratio(
            hits, hits + h("Channel.link_cache_misses")),
        "radio.mac.backoff_frac": spans.ratio(
            h("CsmaMac.congestion_backoffs"), calls("radio.mac.attempt")),
        "core.mnp.useful_rx_frac": spans.ratio(
            calls("hardware.eeprom.write"), counts.get("data_frames", 0)),
        "core.coding.innovative_frac": spans.ratio(
            counts.get("innovative_rows", 0), calls("core.coding.decode")),
        "service.dedup_frac": spans.ratio(stats.get("dedup_hits", 0),
                                          stats.get("submissions", 0)),
        "service.requests_per_job": spans.ratio(
            calls("service.request"), calls("service.submit")),
        "trace.overhead_frac": overhead,
    }
    medians = {
        "service.submit_ms": p50("service.submit"),
        "service.admission_wait_ms": p50("service.admission_wait"),
        "service.execute_ms": p50("runner.execute"),
        "service.result_ms": p50("service.result"),
    }
    plain = {
        "setup.import_s": setup["import_s"],
        "setup.build_s": setup["build_s"],
        "sim.events": h("Simulator.events_executed"),
        "sim.scheduled": calls("sim.schedule"),
        "sim.timer_fires": calls("sim.timer_fire"),
        "radio.channel.transmissions": calls("radio.channel.transmit"),
        "radio.channel.collisions": h("Channel.collisions"),
        "radio.channel.bit_error_losses": h("Channel.bit_error_losses"),
        "radio.channel.carrier_polls": calls("radio.channel.carrier_busy"),
        "radio.mac.frames_queued": calls("radio.mac.send"),
        "radio.radio.frames_received": calls("radio.radio.deliver"),
        "radio.radio.frames_corrupted": h("Radio.frames_corrupted"),
        "core.mnp.frames_handled": calls("core.mnp.on_receive"),
        "hardware.eeprom.writes": calls("hardware.eeprom.write"),
        "core.coding.decode_calls": calls("core.coding.decode"),
        "core.coding.encode_calls": calls("core.coding.encode"),
        "core.auth.verify_calls": calls("core.auth.verify"),
        "metrics.emits": calls("metrics.emit"),
        "metrics.subscriber_s": total("metrics.subscriber"),
        "runner.executions": calls("runner.execute"),
        "runner.cache_key_s": total("runner.cache_key"),
        "runner.load_cached_s": total("runner.load_cached"),
        "runner.store_s": total("runner.store"),
    }
    for layer in ("sim", "radio.channel", "radio.mac", "radio.radio",
                  "core.mnp", "hardware", "core.coding", "core.auth"):
        plain[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    values, bases = {}, {}
    for name, unit in PER_LAYER:
        if name in ratios:
            values[name] = ratios[name]["value"]
            bases[name] = f"{ratios[name]['num']}/{ratios[name]['den']}"
        elif name in medians:
            values[name] = medians[name]["value"]
            bases[name] = f"p50 of {medians[name]['n']}"
        else:
            values[name] = plain[name]
    return values, bases


def as_metrics(values, table):
    """``{name: {"value", "unit"}}`` in table order."""
    return {row[0]: {"value": values[row[0]], "unit": row[1]}
            for row in table}


def render(title, values, table, bases, notes):
    """Human-readable block: one metric per line, with unit and base."""
    lines = [title]
    for row in table:
        name, unit = row[0], row[1]
        value = values[name]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        base = f"   ({bases[name]})" if name in bases else ""
        lines.append(f"  {name:<36} {shown:>14} {unit}{base}")
    lines.extend(f"  {note}" for note in notes)
    return "\n".join(lines)
