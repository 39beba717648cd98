"""Extension (§3.3): large segments with EEPROM-tracked losses.

On small networks where pipelining cannot help, the paper allows segments
beyond the 128-packet radio-bitmap cap by moving the missing-packet
bitmap into EEPROM.  This bench disseminates the same ~5.9 KB image over
a small non-pipelined network as 2x128-packet segments (RAM bitmaps) and
as 1x256-packet segment (EEPROM bitmap).

Shape claims: both complete with intact images; the single large segment
needs fewer control messages (one handshake instead of two); the EEPROM
mode pays measurably more flash operations (the bitmap lines).
"""

from repro.core.config import MNPConfig
from repro.core.segments import CodeImage
from repro.experiments.common import Deployment
from repro.net.loss_models import EmpiricalLossModel
from repro.net.topology import Topology
from repro.radio.propagation import PropagationModel
from repro.sim.kernel import MINUTE

from conftest import save_report
from repro.metrics.reports import format_table

CONTROL_KINDS = ("Advertisement", "DownloadRequest", "StartDownload",
                 "EndDownload")


def _run(segment_packets, large):
    data = bytes((i * 19 + 5) % 256 for i in range(256 * 23))
    image = CodeImage.from_bytes(1, data, segment_packets=segment_packets,
                                 large=large)
    cfg = MNPConfig(pipelining=False, large_segments=large)
    dep = Deployment(
        Topology.grid(2, 3, 12), image=image, protocol="mnp",
        protocol_config=cfg, seed=1,
        loss_model=EmpiricalLossModel(seed=1, sigma=0.3),
        propagation=PropagationModel.outdoor(25.0),
    )
    res = dep.run_to_completion(deadline_ms=60 * MINUTE)
    control = sum(
        1 for _, _, kind in res.channel.tx_log if kind in CONTROL_KINDS
    )
    eeprom_ops = sum(m.eeprom.write_ops + m.eeprom.read_ops
                     for m in dep.motes.values())
    return {
        "res": res, "image": image, "control": control,
        "eeprom_ops": eeprom_ops,
        "completion_s": res.completion_time_ms / 1000,
    }


def test_ext_large_segments(benchmark):
    small = benchmark.pedantic(_run, args=(128, False),
                               rounds=1, iterations=1)
    big = _run(256, True)

    rows = [
        ["2 x 128 pkts (RAM bitmap)", f"{small['completion_s']:.0f}",
         small["control"], small["eeprom_ops"],
         f"{small['res'].coverage:.0%}"],
        ["1 x 256 pkts (EEPROM bitmap)", f"{big['completion_s']:.0f}",
         big["control"], big["eeprom_ops"],
         f"{big['res'].coverage:.0%}"],
    ]
    save_report("ext_large_segments", format_table(
        ["segmentation", "completion(s)", "control msgs", "EEPROM ops",
         "coverage"],
        rows, title="Large segments with EEPROM loss tracking (§3.3)",
    ))

    assert small["res"].all_complete and big["res"].all_complete
    assert small["res"].images_intact(small["image"])
    assert big["res"].images_intact(big["image"])
    # One big handshake replaces two: fewer control messages.
    assert big["control"] < small["control"]
    # ...paid for in flash traffic (the bitmap lines).
    assert big["eeprom_ops"] > small["eeprom_ops"]
