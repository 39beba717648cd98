"""Tests for the command-line interface."""

import io
import os
from pathlib import Path

import pytest

from repro.cli import main

OUT_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "out"


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture(autouse=True)
def smoke_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "smoke")


def test_run_small_grid():
    code, text = run_cli([
        "run", "--grid", "3x3", "--spacing", "12", "--segments", "1",
        "--segment-packets", "8", "--seed", "1",
    ])
    assert code == 0
    assert "coverage:          100%" in text
    assert "images intact:     True" in text


def test_run_xnp_multihop_fails_coverage():
    code, text = run_cli([
        "run", "--grid", "1x5", "--spacing", "20", "--segments", "1",
        "--segment-packets", "8", "--protocol", "xnp",
        "--deadline-min", "5",
    ])
    assert code == 1
    assert "100%" not in text.split("coverage:")[1].splitlines()[0]


def test_figure_list():
    code, text = run_cli(["figure", "list"])
    assert code == 0
    for name in ("table1", "fig5", "fig8", "fig10", "fig13", "sec5"):
        assert name in text


def test_figure_unknown():
    code, text = run_cli(["figure", "fig99"])
    assert code == 2
    assert "unknown figure" in text


def test_figure_table1():
    code, text = run_cli(["figure", "table1"])
    assert code == 0
    assert "83.333" in text
    assert "idle share" in text


def test_figure_fig13_smoke():
    code, text = run_cli(["figure", "fig13"])
    assert code == 0
    assert "30%" in text and "90%" in text


#: Figure name -> the rendering its benchmark records in benchmarks/out.
RECORDED = {"table1": "table1_energy_model", "fig5": "fig5_indoor_grid",
            "fig6": "fig6_outdoor_grid", "fig7": "fig7_outdoor_line"}


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_figure_prints_the_recorded_file(name):
    # These do not depend on the scale, so with no --seed (the seed the
    # recording used) the command prints the recorded file byte for byte.
    recorded = OUT_DIR / f"{RECORDED[name]}.txt"
    code, text = run_cli(["figure", name])
    assert code == 0
    assert text == recorded.read_text()


def test_compare():
    code, text = run_cli([
        "compare", "mnp", "deluge", "--grid", "4x4", "--segments", "1",
    ])
    assert code == 0
    assert "mnp" in text and "deluge" in text
    assert "completion(s)" in text


def test_bad_grid_argument():
    with pytest.raises(SystemExit):
        run_cli(["run", "--grid", "banana"])


def test_python_dash_m_entrypoint():
    import subprocess
    import sys

    env = dict(os.environ, REPRO_SCALE="smoke")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "figure", "list"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "fig8" in proc.stdout


def test_run_json_output():
    import json

    code, text = run_cli([
        "run", "--grid", "3x3", "--spacing", "12", "--segments", "1",
        "--segment-packets", "8", "--seed", "1", "--json",
    ])
    assert code == 0
    summary = json.loads(text)
    assert summary["coverage"] == 1.0
    assert summary["protocol"] == "mnp"
    assert summary["image_bytes"] > 0


@pytest.mark.parametrize("figure,needle", [
    ("fig8", "active radio time"),
    ("fig9", "without initial idle listening"),
    ("fig10", "program size"),
    ("fig11", "messages transmitted"),
    ("fig12", "one-minute window"),
    ("sec5", "protocol comparison"),
    ("ablations", "design-choice ablations"),
    ("fig7", "sender order"),
])
@pytest.mark.slow
def test_every_figure_command_renders(figure, needle):
    code, text = run_cli(["figure", figure])
    assert code == 0
    assert needle.lower() in text.lower()


def test_conformance_clean_budget():
    code, text = run_cli([
        "conformance", "--budget", "2", "--seed", "123", "--no-cache",
        "--quiet",
    ])
    assert code == 0
    assert "conformance: 2/2 scenario(s) clean" in text
    assert "all oracles satisfied" in text


def test_conformance_json_verdict(tmp_path):
    import json

    out_path = tmp_path / "verdict.json"
    code, text = run_cli([
        "conformance", "--budget", "2", "--seed", "123", "--no-cache",
        "--quiet", "--json", "--output", str(out_path),
    ])
    assert code == 0
    verdict = json.loads(text)
    assert verdict["ok"] and verdict["budget"] == 2
    assert out_path.read_text() == text


def test_conformance_exit_1_and_shrunk_spec_on_violation(monkeypatch,
                                                         tmp_path):
    # The surviving-violation exit path, without needing a real bug in
    # the tree: substitute a verdict with one shrunk failure.
    import repro.cli as cli

    failing = {
        "version": 1, "budget": 1, "seed": 0, "fault_fraction": 0.3,
        "total_runs": 2, "ok": False,
        "scenarios": [{"index": 0, "key": "deadbeef0000",
                       "label": "grid 1x2", "runs": 2, "ok": False,
                       "violations": [{"oracle": "delivery",
                                       "detail": "stuck"}]}],
        "failures": [{
            "index": 0, "key": "deadbeef0000",
            "violations": [{"oracle": "delivery", "detail": "stuck"}],
            "spec": {"seed": 0},
            "shrunk": {"spec": {"seed": 0}, "oracles": ["delivery"],
                       "shrink_evals": 3, "shrink_steps": []},
            "artifacts": [str(tmp_path / "deadbeef0000.json")],
        }],
    }
    monkeypatch.setattr("repro.conformance.harness.run_conformance",
                        lambda **kw: failing)
    code, text = run_cli(["conformance", "--budget", "1", "--quiet",
                          "--no-cache"])
    assert code == 1
    assert "FAIL scenario 0" in text
    assert "delivery: stuck" in text
    assert "shrunk after 3 evaluation(s)" in text


def test_chaos_text_table():
    code, text = run_cli([
        "chaos", "--grid", "3x3", "--segments", "1",
        "--segment-packets", "16", "--fault-classes", "crash",
        "--protocols", "mnp", "--no-cache", "--quiet",
    ])
    assert code == 0
    assert "Chaos: 3x3 grid" in text
    assert "crash" in text and "mnp" in text
    assert "watchdog" in text


def test_chaos_json_matrix():
    import json

    code, text = run_cli([
        "chaos", "--grid", "3x3", "--segments", "1",
        "--segment-packets", "16", "--fault-classes", "crash,eeprom",
        "--protocols", "mnp", "--seed", "2", "--no-cache", "--quiet",
        "--json",
    ])
    assert code == 0
    payload = json.loads(text)
    assert len(payload["runs"]) == 2
    for run in payload["runs"]:
        metrics = run["metrics"]
        assert {"survivor_coverage", "fails", "watchdog_ok",
                "faults"} <= set(metrics)
        assert not metrics["watchdog"]["violations"]


def test_chaos_rejects_unknown_fault_class():
    code, _ = run_cli([
        "chaos", "--fault-classes", "gamma-rays", "--no-cache", "--quiet",
    ])
    assert code == 2


def test_adversary_text_table():
    code, text = run_cli([
        "adversary", "--grid", "3x3", "--segments", "1",
        "--segment-packets", "16", "--attacks", "tamper",
        "--protocols", "mnp", "--no-cache", "--quiet",
        "--deadline-min", "120",
    ])
    assert code == 0
    assert "Adversary (secured): 3x3 grid" in text
    assert "tamper" in text and "mnp" in text
    assert "quarant" in text and "tampered" in text


def test_adversary_json_matrix():
    import json

    code, text = run_cli([
        "adversary", "--grid", "3x3", "--segments", "1",
        "--segment-packets", "16", "--attacks", "forge",
        "--protocols", "mnp", "--no-cache", "--quiet", "--json",
        "--deadline-min", "120",
    ])
    assert code == 0
    payload = json.loads(text)
    assert payload["secured"] is True
    (run,) = payload["runs"]
    metrics = run["metrics"]
    assert metrics["tampered_installs"] == 0
    assert metrics["auth_rejects"] > 0
    assert metrics["installs"]["installed"] == 9
    assert not metrics["watchdog"]["violations"]


def test_adversary_rejects_unknown_attack_class():
    code, _ = run_cli([
        "adversary", "--attacks", "quantum", "--no-cache", "--quiet",
    ])
    assert code == 2


@pytest.mark.parametrize("protocol,code,needle", [
    ("deluge", 0, "0%"),
    ("coded_deluge", 1, "VIOLATED(16)"),
])
def test_adversary_insecure_forged_deluge_reaches_a_verdict(protocol, code,
                                                            needle):
    # A forged newer-version summary heard mid-stream used to crash a
    # Deluge sender: its next paced send read flash of the new version.
    # Unsecured, the forgery may stall Deluge (no coverage) or get a
    # tampered image installed (exit 1) -- never a traceback.
    got, text = run_cli([
        "adversary", "--insecure", "--protocols", protocol,
        "--attacks", "forge", "--grid", "4x4", "--segments", "1",
        "--segment-packets", "16", "--deadline-min", "60",
        "--no-cache", "--quiet",
    ])
    assert got == code
    assert protocol in text and needle in text


@pytest.mark.parametrize("protocol,code,needle", [
    ("moap", 1, "VIOLATED(16)"),
    ("flood", 0, "0%"),
])
def test_adversary_insecure_forged_moap_and_flood_reach_a_verdict(
        protocol, code, needle):
    # A MOAP publisher or a flooding node that adopted a forged newer
    # version used to read flash of that version on its next send.
    got, text = run_cli([
        "adversary", "--insecure", "--protocols", protocol,
        "--attacks", "forge", "--grid", "4x4", "--segments", "1",
        "--segment-packets", "16", "--deadline-min", "60",
        "--no-cache", "--quiet",
    ])
    assert got == code
    assert protocol in text and needle in text


_CHEAP_SWEEP = ["--seeds", "0", "--scale", "smoke", "--no-cache", "--quiet"]

def test_sweep_coding_prints_its_matrix():
    # One 20%-loss cell per protocol on the sweep's own pinned 5x5 grid.
    from repro.experiments.coding import REF_FRAME_BYTES, loss_to_ber

    code, text = run_cli([
        "sweep", "--experiment", "coding", "--protocols", "mnp,coded_mnp",
        "--loss", "20", "--seeds", "0", "--no-cache", "--quiet",
    ])
    assert code == 0
    assert "Coding sweep (mean messages sent): 1 seed(s) per cell" in text
    assert "Coding sweep (mean energy (nAh/node)): 1 seed(s) per cell" \
        in text
    assert "WARNING" not in text  # every node got the image
    # A full-size data frame survives 20% loss 80% of the time.
    survive = (1 - loss_to_ber(20)) ** (8 * REF_FRAME_BYTES)
    assert survive == pytest.approx(0.8)


#: Bad input: argv -> the one stderr line it must produce (exit 2).
BAD_INPUT = {
    "chaos-unknown-protocol": (
        ["chaos", "--protocols", "mnp,warp"],
        "repro chaos: error: unknown protocol(s) warp; known: coded_deluge, "
        "coded_mnp, deluge, flood, mnp, moap, xnp"),
    "adversary-unknown-protocol": (
        ["adversary", "--protocols", "warp"],
        "repro adversary: error: unknown protocol(s) warp; known: "
        "coded_deluge, coded_mnp, deluge, flood, mnp, moap, xnp"),
    "sweep-unknown-protocol": (
        ["sweep", "--protocol", "warp"] + _CHEAP_SWEEP,
        "repro sweep: error: unknown protocol(s) warp; known: "
        "coded_deluge, coded_mnp, deluge, flood, mnp, moap, xnp"),
    "sweep-coding-unknown-protocol": (
        ["sweep", "--experiment", "coding", "--protocols", "mnp,warp",
         "--loss", "0"] + _CHEAP_SWEEP,
        "repro sweep: error: unknown protocol(s) warp; known: "
        "coded_deluge, coded_mnp, deluge, flood, mnp, moap, xnp"),
    "chaos-intensity": (
        ["chaos", "--intensity", "1.5"],
        "repro chaos: error: intensity must be in [0, 1], got 1.5"),
    "adversary-intensity": (
        ["adversary", "--intensity", "-0.1"],
        "repro adversary: error: intensity must be in [0, 1], got -0.1"),
    "chaos-empty-protocols": (
        ["chaos", "--protocols", ""],
        "repro chaos: error: empty protocol list"),
    "chaos-empty-fault-classes": (
        ["chaos", "--fault-classes", ","],
        "repro chaos: error: empty fault class list"),
    "adversary-empty-attacks": (
        ["adversary", "--attacks", ","],
        "repro adversary: error: empty attack class list"),
    "sweep-coding-empty-protocols": (
        ["sweep", "--experiment", "coding", "--protocols", ",",
         "--loss", "0"] + _CHEAP_SWEEP,
        "repro sweep: error: empty protocol list"),
    "sweep-grid-with-protocols": (
        ["sweep", "--experiment", "grid", "--protocols", "mnp,deluge"]
        + _CHEAP_SWEEP,
        "repro sweep: error: --protocols applies only to --experiment "
        "coding"),
    "sweep-grid-with-loss": (
        ["sweep", "--loss", "10"] + _CHEAP_SWEEP,
        "repro sweep: error: --loss applies only to --experiment coding"),
    "sweep-coding-with-protocol": (
        ["sweep", "--experiment", "coding", "--protocol", "deluge",
         "--protocols", "mnp", "--loss", "0"] + _CHEAP_SWEEP,
        "repro sweep: error: --protocol applies only to --experiment grid"),
    "run-unknown-protocol": (
        ["run", "--protocol", "warp"],
        "repro run: error: unknown protocol(s) warp; known: coded_deluge, "
        "coded_mnp, deluge, flood, mnp, moap, xnp"),
    "run-query-update-outside-mnp-family": (
        ["run", "--protocol", "deluge", "--query-update"],
        "repro run: error: --query-update applies only to mnp, coded_mnp"),
    "compare-unknown-protocol": (
        ["compare", "mnp", "warp"],
        "repro compare: error: unknown protocol(s) warp; known: "
        "coded_deluge, coded_mnp, deluge, flood, mnp, moap, xnp"),
    "run-segments-zero": (
        ["run", "--segments", "0", "--grid", "2x2"],
        "repro run: error: --segments must be >= 1, got 0"),
    "run-segment-packets-above-cap": (
        ["run", "--segment-packets", "200", "--grid", "2x2"],
        "repro run: error: --segment-packets must be in [1, 128], got 200"),
    "run-power-zero": (
        ["run", "--power", "0", "--grid", "2x2"],
        "repro run: error: --power must be in [1, 255], got 0"),
    "run-power-above-full": (
        ["run", "--power", "300", "--grid", "2x2"],
        "repro run: error: --power must be in [1, 255], got 300"),
    "run-range-negative": (
        ["run", "--range", "-5", "--grid", "2x2"],
        "repro run: error: --range must be > 0, got -5.0"),
    "run-spacing-zero": (
        ["run", "--spacing", "0", "--grid", "2x2"],
        "repro run: error: --spacing must be > 0, got 0.0"),
    "run-deadline-zero": (
        ["run", "--deadline-min", "0", "--grid", "2x2"],
        "repro run: error: --deadline-min must be > 0, got 0.0"),
    "compare-segments-negative": (
        ["compare", "mnp", "deluge", "--segments", "-1"],
        "repro compare: error: --segments must be >= 1, got -1"),
    "chaos-segments-zero": (
        ["chaos", "--segments", "0", "--no-cache", "--quiet"],
        "repro chaos: error: --segments must be >= 1, got 0"),
    "chaos-segment-packets-zero": (
        ["chaos", "--segment-packets", "0", "--no-cache", "--quiet"],
        "repro chaos: error: --segment-packets must be in [1, 128], got 0"),
    "chaos-deadline-negative": (
        ["chaos", "--deadline-min", "-1", "--grid", "2x2", "--segments",
         "1", "--segment-packets", "4", "--protocols", "mnp",
         "--fault-classes", "crash", "--no-cache", "--quiet"],
        "repro chaos: error: --deadline-min must be > 0, got -1.0"),
    "adversary-workers-negative": (
        ["adversary", "--workers", "-1", "--grid", "2x2", "--segments", "1",
         "--segment-packets", "4", "--protocols", "mnp", "--attacks",
         "forge", "--no-cache", "--quiet"],
        "repro adversary: error: --workers must be >= 0, got -1"),
    "sweep-segments-zero": (
        ["sweep", "--segments", "0", "--grid", "2x2"] + _CHEAP_SWEEP,
        "repro sweep: error: --segments must be >= 1, got 0"),
    "sweep-segment-packets-zero": (
        ["sweep", "--segment-packets", "0", "--grid", "2x2"] + _CHEAP_SWEEP,
        "repro sweep: error: --segment-packets must be in [1, 128], got 0"),
    "sweep-workers-negative": (
        ["sweep", "--workers", "-2", "--grid", "2x2"] + _CHEAP_SWEEP,
        "repro sweep: error: --workers must be >= 0, got -2"),
    "conformance-fault-fraction": (
        ["conformance", "--fault-fraction", "2", "--budget", "1",
         "--no-cache", "--no-shrink", "--quiet"],
        "repro conformance: error: --fault-fraction must be in [0, 1], "
        "got 2.0"),
    "conformance-security-fraction": (
        ["conformance", "--security-fraction", "-0.5", "--budget", "1",
         "--no-cache", "--no-shrink", "--quiet"],
        "repro conformance: error: --security-fraction must be in [0, 1], "
        "got -0.5"),
    "conformance-budget-negative": (
        ["conformance", "--budget", "-1", "--no-cache", "--quiet"],
        "repro conformance: error: --budget must be >= 1, got -1"),
    "profile-range-negative": (
        ["profile", "--range", "-5", "--grid", "2x2"],
        "repro profile: error: --range must be > 0, got -5.0"),
    "profile-frames-zero": (
        ["profile", "--frames", "0", "--grid", "2x2", "--workloads",
         "saturation"],
        "repro profile: error: --frames must be >= 1, got 0"),
    # Each flag used to be dropped silently when no selected workload
    # took it: the saturation run sent its 96 default frames per node.
    "profile-segment-packets-without-dissemination": (
        ["profile", "--workloads", "saturation", "--grid", "4x4",
         "--segment-packets", "64"],
        "repro profile: error: --segment-packets applies only to "
        "--workloads dissemination, megagrid"),
    "profile-frames-without-saturation": (
        ["profile", "--workloads", "dissemination", "--grid", "4x4",
         "--frames", "5"],
        "repro profile: error: --frames applies only to --workloads "
        "saturation"),
    "loadgen-workers-negative": (
        ["loadgen", "--workers", "-1", "--jobs", "1", "--clients", "1",
         "--quiet"],
        "repro loadgen: error: --workers must be >= 1, got -1"),
    "loadgen-workers-zero": (
        ["loadgen", "--workers", "0", "--jobs", "1", "--clients", "1",
         "--quiet"],
        "repro loadgen: error: --workers must be >= 1, got 0"),
    "serve-workers-negative": (
        ["serve", "--workers", "-1", "--port", "0"],
        "repro serve: error: --workers must be >= 1, got -1"),
    "serve-workers-zero": (
        ["serve", "--workers", "0", "--port", "0"],
        "repro serve: error: --workers must be >= 1, got 0"),
    "serve-queue-zero": (
        ["serve", "--queue", "0", "--port", "0"],
        "repro serve: error: --queue must be >= 1, got 0"),
    "loadgen-clients-zero": (
        ["loadgen", "--clients", "0", "--jobs", "1", "--quiet"],
        "repro loadgen: error: --clients must be >= 1, got 0"),
    "loadgen-jobs-zero": (
        ["loadgen", "--jobs", "0", "--clients", "1", "--quiet"],
        "repro loadgen: error: --jobs must be >= 1, got 0"),
    "loadgen-timeout-zero": (
        ["loadgen", "--timeout-s", "0", "--jobs", "1", "--clients", "1",
         "--quiet"],
        "repro loadgen: error: --timeout-s must be > 0, got 0.0"),
    "submit-timeout-negative": (
        ["submit", "--timeout-s", "-1", "--url", "127.0.0.1:1"],
        "repro submit: error: --timeout-s must be > 0, got -1.0"),
    "loadgen-duplicate-fraction": (
        ["loadgen", "--duplicate-fraction", "1.5", "--jobs", "1",
         "--clients", "1", "--quiet"],
        "repro loadgen: error: --duplicate-fraction must be in [0, 1], "
        "got 1.5"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_exits_2_with_one_line(case, capsys):
    argv, line = BAD_INPUT[case]
    code, text = run_cli(argv)
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == line + "\n"


def test_profile_default_pair_takes_both_workload_flags():
    import json

    code, text = run_cli(["profile", "--grid", "2x2", "--frames", "2",
                          "--segment-packets", "4", "--json"])
    assert code == 0
    phases = {p["workload"]["name"]: p["workload"]
              for p in json.loads(text)["phases"]}
    assert phases["saturation"]["frames_per_node"] == 2
    assert phases["dissemination"]["segment_packets"] == 4


@pytest.mark.parametrize("workloads,override,takers", [
    (("dissemination",), {"frames_per_node": 5}, "saturation"),
    (("saturation",), {"segment_packets": 64}, "dissemination, megagrid"),
])
def test_run_profile_rejects_an_override_no_workload_takes(
        workloads, override, takers):
    # run_profile used to drop the override and run the workload at its
    # default: 96 frames per node, or the default dissemination.
    from repro.profiling import run_profile

    key = next(iter(override))
    with pytest.raises(ValueError, match=f"^{key} applies only to "
                                         f"workloads {takers}$"):
        run_profile(workloads=workloads, rows=4, cols=4, **override)


def test_run_profile_passes_an_override_to_the_workloads_that_take_it():
    from repro.profiling import run_profile

    report = run_profile(rows=2, cols=2, frames_per_node=2)
    phases = {p["workload"]["name"]: p["workload"]
              for p in report["phases"]}
    assert phases["saturation"]["frames_per_node"] == 2
    assert "frames_per_node" not in phases["dissemination"]


def test_run_query_update_reaches_coded_mnp():
    # The flag configures the whole MNP family: on this run the repair
    # phase moves coded MNP's completion from 10,564 ms to 14,020 ms.
    import json

    argv = ["run", "--protocol", "coded_mnp", "--grid", "4x4",
            "--segments", "1", "--segment-packets", "16", "--seed", "1",
            "--json"]
    _, plain = run_cli(argv)
    _, repaired = run_cli(argv + ["--query-update"])
    assert json.loads(plain)["completion_ms"] == \
        pytest.approx(10_563.748350262338)
    assert json.loads(repaired)["completion_ms"] == \
        pytest.approx(14_019.876622934518)


def test_sweep_protocol_still_defaults_to_mnp():
    import json

    code, text = run_cli(["sweep", "--json"] + _CHEAP_SWEEP)
    assert code == 0
    assert json.loads(text)["protocol"] == "mnp"
