"""Documentation stays in lockstep with the code (the docs-check gate).

Runs ``tools/check_docs.py`` — markdown link/anchor resolution plus the
doc-drift lint (every CLI subcommand and every ``REPRO_*`` env var used
in ``src/`` must be mentioned under ``docs/`` or ``README.md``, and every
``REPRO_*`` name those docs mention must still be read by code) and the
trace-category lint (every category emitted under ``src/`` has a row in
docs/simulator.md's table, and every row is still emitted) — so a new
subcommand, env var, deleted env var, trace category, or renamed doc
heading fails the test suite, not just the CI job.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_docs_check_is_clean():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_docs.py")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _check_docs():
    sys.path.insert(0, str(REPO / "tools"))
    try:
        import check_docs
    finally:
        sys.path.pop(0)
    return check_docs


def test_drift_lint_sees_current_surface():
    """The lint's own inputs are non-trivial: it must enumerate every
    CLI subcommand and the known env vars (a broken enumerator would
    vacuously pass the drift check)."""
    check_docs = _check_docs()
    commands = check_docs.repro_subcommands()
    assert {"run", "figure", "compare", "sweep", "chaos", "profile",
            "conformance"} <= set(commands)
    env_vars = check_docs.src_env_vars()
    assert {"REPRO_SCALE", "REPRO_SERVICE_WORKERS"} <= set(env_vars)
    assert "REPRO_TEMPLATE" not in env_vars  # _REPRO_TEMPLATE identifier


def test_drift_lint_reports_documented_but_unread_env_var():
    """Docs describing a variable no code reads are drift too; names
    read only by the benchmark suite still count as live."""
    check_docs = _check_docs()
    corpus = ("`REPRO_SCALE=smoke`, `REPRO_WORKERS=2` and "
              "`REPRO_MADE_UP_KNOB=1`")
    assert check_docs.stale_env_vars(corpus) == ["REPRO_MADE_UP_KNOB"]


def test_listed_trace_categories_are_emitted():
    """Every category the watchdog, the service's progress stream or the
    call-cost test names is emitted somewhere, so a half-done rename of a
    category cannot leave a listener waiting for records that never come."""
    from repro.faults.watchdog import WATCHED
    from repro.service.jobs import PROGRESS_CATEGORIES

    from tests.test_trace_cost import HOT_CATEGORIES

    emitted = set(_check_docs().emitted_categories())
    for listed in (WATCHED, PROGRESS_CATEGORIES, HOT_CATEGORIES):
        assert set(listed) <= emitted, sorted(set(listed) - emitted)


#: Every trace category emitted under src/ (docs/simulator.md's table).
TRACE_CATEGORIES = [
    "auth.quarantine", "auth.reject",
    "boot.install", "boot.reject",
    "channel.collision",
    "fault.adversary", "fault.brownout", "fault.crash", "fault.decode",
    "fault.eeprom", "fault.restart",
    "mnp.adv", "mnp.fail", "mnp.first_adv", "mnp.got_code",
    "mnp.got_segment", "mnp.parent", "mnp.request", "mnp.sender",
    "mnp.sender_done", "mnp.sleep", "mnp.state",
    "radio.rx", "radio.tx",
    "timer.fire", "timer.suppressed",
]


def test_trace_category_lint_sees_current_set():
    """The lint collects every emitted category (26, one name per
    milestone), and the docs table lists exactly those."""
    check_docs = _check_docs()
    assert check_docs.emitted_categories() == TRACE_CATEGORIES
    assert check_docs.documented_categories() == TRACE_CATEGORIES


def test_trace_category_lint_reports_both_directions():
    """An emitted category missing from the table is drift, and so is a
    table row whose category nothing emits any more."""
    check_docs = _check_docs()
    problems = check_docs.check_trace_categories(
        emitted=["mnp.state", "radio.tx"],
        documented=["mnp.state", "proto.sender"])
    assert len(problems) == 2
    assert "radio.tx" in problems[0] and "proto.sender" in problems[1]
