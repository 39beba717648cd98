#!/usr/bin/env python3
"""Protocol shoot-out: MNP against every baseline, same network, same
channel.

Runs MNP, Deluge, MOAP, XNP and naive flooding over a byte-identical
channel realization (same seed => same per-edge loss factors) and prints
the Section 5-style comparison: coverage, completion time, active radio
time, message counts, collisions, and per-node energy.

The shapes to look for (they motivate the paper):

* XNP covers only the base station's neighborhood -- single-hop
  reprogramming does not scale;
* flooding sends a storm of redundant data and still misses packets;
* Deluge completes fast, but its radio never sleeps, so active radio
  time (~ energy) equals the completion time;
* MNP pays a modest completion-time premium to slash active radio time.

Run:  python examples/protocol_shootout.py
"""

from repro.experiments.comparison import comparison_report, run_comparison


def main():
    runs = run_comparison(
        protocols=("mnp", "deluge", "moap", "xnp", "flood"),
        seed=3,
        rows=8, cols=8, n_segments=2, segment_packets=64,
    )
    print(comparison_report(runs))

    mnp, deluge = runs["mnp"], runs["deluge"]
    print()
    print(f"XNP coverage: {runs['xnp'].coverage:.0%} "
          "(single-hop cannot reprogram a multihop field)")
    if mnp.completion_s and deluge.completion_s:
        mnp_art = mnp.average_active_radio_s()
        deluge_art = deluge.average_active_radio_s()
        print(f"MNP active radio time: {mnp_art:.0f} s vs Deluge's "
              f"{deluge_art:.0f} s "
              f"({mnp_art / deluge_art:.0%}) -- the §5 energy claim")


if __name__ == "__main__":
    main()
