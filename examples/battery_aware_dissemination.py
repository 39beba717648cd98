#!/usr/bin/env python3
"""The §6 battery-aware extension: spare the depleted nodes.

The paper's conclusion sketches a tuning where "the probability that a
sensor is given the responsibility of transmitting the code is
proportional to its remaining battery life": a low-battery node
advertises at reduced transmission power, reaches fewer requesters, and
therefore loses the sender selection to healthier rivals.

This example deploys a dense grid in which half the motes start at 20%
battery, runs dissemination with the extension on and off, and compares
how much forwarding work landed on the weak motes.

Run:  python examples/battery_aware_dissemination.py
"""

from repro import (
    MINUTE,
    CodeImage,
    Deployment,
    MNPConfig,
    PropagationModel,
    Topology,
)
from repro.metrics.reports import format_table

WEAK_FRACTION = 0.2  # weak motes start at 20% battery


def run(battery_aware, seed=11):
    topology = Topology.grid(6, 6, spacing_ft=8)
    image = CodeImage.random(program_id=1, n_segments=2, segment_packets=64,
                             seed=seed)
    deployment = Deployment(
        topology,
        image=image,
        protocol="mnp",
        protocol_config=MNPConfig(battery_aware_power=battery_aware),
        propagation=PropagationModel(25.0, 3.0),
        seed=seed,
    )
    # Every odd mote has been running a hungry duty cycle for months.
    weak = {n for n in topology.node_ids() if n % 2 == 1}
    for node_id in weak:
        battery = deployment.motes[node_id].battery
        battery.remaining_nah = battery.capacity_nah * WEAK_FRACTION
    result = deployment.run_to_completion(deadline_ms=2 * 60 * MINUTE)
    assert result.all_complete

    data_tx = {n: 0 for n in topology.node_ids()}
    for _, node, kind in result.channel.tx_log:
        if kind == "DataPacket":
            data_tx[node] += 1
    weak_tx = sum(v for n, v in data_tx.items() if n in weak)
    strong_tx = sum(v for n, v in data_tx.items() if n not in weak)
    return {
        "completion_min": result.completion_time_min,
        "weak_tx": weak_tx,
        "strong_tx": strong_tx,
        "weak_share": weak_tx / max(1, weak_tx + strong_tx),
    }


def main():
    plain = run(battery_aware=False)
    aware = run(battery_aware=True)

    print(format_table(
        ["mode", "completion (min)", "data tx by weak motes",
         "data tx by strong motes", "weak share"],
        [
            ["standard MNP", f"{plain['completion_min']:.1f}",
             plain["weak_tx"], plain["strong_tx"],
             f"{plain['weak_share']:.0%}"],
            ["battery-aware", f"{aware['completion_min']:.1f}",
             aware["weak_tx"], aware["strong_tx"],
             f"{aware['weak_share']:.0%}"],
        ],
        title="forwarding load vs battery state (36 motes, half at "
              f"{WEAK_FRACTION:.0%} battery)",
    ))
    if aware["weak_share"] < plain["weak_share"]:
        print("\nbattery-aware advertising shifted forwarding work off "
              "the depleted motes.")
    else:
        print("\nno shift this run -- try more seeds; the effect is "
              "probabilistic.")


if __name__ == "__main__":
    main()
