"""Documentation stays in lockstep with the code (the docs-check gate).

Runs ``tools/check_docs.py`` — markdown link/anchor resolution plus the
doc-drift lint (every CLI subcommand and every ``REPRO_*`` env var used
in ``src/`` must be mentioned under ``docs/`` or ``README.md``, and every
``REPRO_*`` name those docs mention must still be read by code) — so a
new subcommand, env var, deleted env var, or renamed doc heading fails
the test suite, not just the CI job.
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
