"""Golden pins for the faulted-run harnesses: chaos, adversary, conformance.

The three harnesses share one run (deployment, fault plan, watchdog,
settle, optional install, survivor tally), and each reports it in its own
shape.  These pins hold every one of those shapes still:

* ``chaos`` on ``mnp,deluge``: the exact text table, and the SHA-256 of
  the ``--json`` matrix;
* ``adversary`` on ``mnp,coded_mnp`` over all five attack classes, and
  the ``--insecure`` ``tamper,forge`` pair: text and ``--json`` alike;
* the coded variants the same way: ``chaos`` on ``coded_mnp,coded_deluge``
  (4x4, two segments: a crash costs a coded MNP node the 14 of 16 rows
  it held only in RAM, while flushed generations come back from flash),
  a 6x6 crash run in which Deluge and coded Deluge nodes restart
  mid-page, and ``adversary`` on ``coded_deluge``, secured and
  ``--insecure``;
* :func:`repro.conformance.execute.run_scenario` over the full variant
  fan-out of three generated scenarios -- one with a fault plan, one
  secured (with its adversarial twins), and one sabotaged -- as the
  SHA-256 of each run's canonical metrics JSON.

A refactor of the harnesses must leave every constant here alone.  If
you change faulted-run behaviour *on purpose*, re-record the constants
(run this file's ``record()``) and mention the change in your commit.
"""

import hashlib
import io
import json

import pytest

from repro.cli import main
from repro.conformance.execute import run_scenario
from repro.conformance.generator import ScenarioGenerator
from repro.conformance.oracles import variants_for

_GRID = ["--grid", "3x3", "--segments", "1", "--segment-packets", "16",
         "--seed", "2", "--no-cache", "--quiet"]

#: name -> argv (``--json`` is appended for the JSON pin).
COMMANDS = {
    "chaos": ["chaos", "--protocols", "mnp,deluge"] + _GRID,
    "adversary": ["adversary", "--protocols", "mnp,coded_mnp",
                  "--attacks", "forge,replay,tamper,swap,blended"] + _GRID,
    "adversary-insecure": ["adversary", "--protocols", "mnp,coded_mnp",
                           "--insecure", "--attacks", "tamper,forge"]
    + _GRID,
    "chaos-coded": ["chaos", "--protocols", "coded_mnp,coded_deluge",
                    "--grid", "4x4", "--segments", "2",
                    "--segment-packets", "16", "--intensity", "0.7",
                    "--seed", "0", "--no-cache", "--quiet"],
    "chaos-restart": ["chaos", "--protocols", "deluge,coded_deluge",
                      "--fault-classes", "crash", "--intensity", "0.9",
                      "--grid", "6x6", "--segments", "2",
                      "--segment-packets", "16", "--seed", "4",
                      "--deadline-min", "60", "--no-cache", "--quiet"],
    "adversary-coded-deluge": ["adversary", "--protocols", "coded_deluge",
                               "--attacks", "forge,replay,tamper,swap,blended"]
    + _GRID,
    "adversary-coded-deluge-insecure": [
        "adversary", "--protocols", "coded_deluge", "--insecure",
        "--attacks", "tamper,forge"] + _GRID,
}

#: name -> (exit code, exact text output)
GOLDEN_TEXT = {
    "chaos": (0, "\n".join((
        "Chaos: 3x3 grid, intensity 0.5, seed 2",
        "protocol  fault   coverage  completion_s  fails  corrupt  "
        "messages  watchdog",
        "--------  ------  --------  ------------  -----  -------  "
        "--------  --------",
        "mnp       crash   100%      15.3          7      0        "
        "322       ok      ",
        "mnp       eeprom  100%      15.4          10     1        "
        "193       ok +1w  ",
        "mnp       link    100%      53.6          11     0        "
        "359       ok      ",
        "deluge    crash   100%      6.5           0      0        "
        "70        ok      ",
        "deluge    eeprom  100%      7.6           0      1        "
        "64        ok      ",
        "deluge    link    100%      6.5           0      0        "
        "71        ok      ",
        "  coverage/completion are over *surviving* nodes; 'w' counts",
        "  advisory warnings (concurrent senders) that do not fail a run",
        "",
    ))),
    "adversary": (0, "\n".join((
        "Adversary (secured): 3x3 grid, intensity 0.5, seed 2",
        "protocol   attack   coverage  installed  refused  auth_rej  "
        "quarant  tampered  watchdog",
        "---------  -------  --------  ---------  -------  --------  "
        "-------  --------  --------",
        "mnp        forge    100%      9          0        30        "
        "0        0         ok      ",
        "mnp        replay   100%      9          0        11        "
        "0        0         ok      ",
        "mnp        tamper   100%      9          0        0         "
        "18       0         ok      ",
        "mnp        swap     100%      9          0        0         "
        "6        0         ok      ",
        "mnp        blended  100%      9          0        82        "
        "7        0         ok      ",
        "coded_mnp  forge    100%      9          0        24        "
        "0        0         ok      ",
        "coded_mnp  replay   100%      9          0        46        "
        "0        0         ok      ",
        "coded_mnp  tamper   100%      9          0        0         "
        "19       0         ok      ",
        "coded_mnp  swap     100%      9          0        0         "
        "0        0         ok      ",
        "coded_mnp  blended  100%      9          0        33        "
        "9        0         ok      ",
        "  auth_rej counts refused advertisements; quarant counts",
        "  discarded-and-re-requested segments; tampered counts installs",
        "  of images that were not the authentic one (must be 0)",
        "",
    ))),
    "adversary-insecure": (1, "\n".join((
        "Adversary (insecure): 3x3 grid, intensity 0.5, seed 2",
        "protocol   attack  coverage  installed  refused  auth_rej  "
        "quarant  tampered  watchdog   ",
        "---------  ------  --------  ---------  -------  --------  "
        "-------  --------  -----------",
        "mnp        tamper  100%      2          7        0         "
        "0        0         ok         ",
        "mnp        forge   100%      9          0        0         "
        "0        9         VIOLATED(9)",
        "coded_mnp  tamper  100%      1          8        0         "
        "0        0         ok         ",
        "coded_mnp  forge   100%      9          0        0         "
        "0        9         VIOLATED(9)",
        "  auth_rej counts refused advertisements; quarant counts",
        "  discarded-and-re-requested segments; tampered counts installs",
        "  of images that were not the authentic one (must be 0)",
        "  2 run(s) breached install/protocol invariants",
        "",
    ))),
    "chaos-coded": (0, "\n".join((
        "Chaos: 4x4 grid, intensity 0.7, seed 0",
        "protocol      fault   coverage  completion_s  fails  corrupt  "
        "messages  watchdog",
        "------------  ------  --------  ------------  -----  -------  "
        "--------  --------",
        "coded_mnp     crash   100%      120.4         11     0        "
        "815       ok +1w  ",
        "coded_mnp     eeprom  100%      36.2          21     9        "
        "681       ok      ",
        "coded_mnp     link    100%      91.2          21     0        "
        "1071      ok +2w  ",
        "coded_deluge  crash   100%      15.0          0      0        "
        "256       ok      ",
        "coded_deluge  eeprom  100%      16.8          0      11       "
        "277       ok      ",
        "coded_deluge  link    100%      80.1          0      0        "
        "519       ok      ",
        "  coverage/completion are over *surviving* nodes; 'w' counts",
        "  advisory warnings (concurrent senders) that do not fail a run",
        "",
    ))),
    "chaos-restart": (0, "\n".join((
        "Chaos: 6x6 grid, intensity 0.9, seed 4",
        "protocol      fault  coverage  completion_s  fails  corrupt  "
        "messages  watchdog",
        "------------  -----  --------  ------------  -----  -------  "
        "--------  --------",
        "deluge        crash  100%      117.7         0      0        "
        "625       ok      ",
        "coded_deluge  crash  100%      118.5         0      0        "
        "631       ok      ",
        "  coverage/completion are over *surviving* nodes; 'w' counts",
        "  advisory warnings (concurrent senders) that do not fail a run",
        "",
    ))),
    "adversary-coded-deluge": (0, "\n".join((
        "Adversary (secured): 3x3 grid, intensity 0.5, seed 2",
        "protocol      attack   coverage  installed  refused  auth_rej  "
        "quarant  tampered  watchdog",
        "------------  -------  --------  ---------  -------  --------  "
        "-------  --------  --------",
        "coded_deluge  forge    100%      9          0        11        "
        "0        0         ok      ",
        "coded_deluge  replay   100%      9          0        0         "
        "0        0         ok      ",
        "coded_deluge  tamper   100%      9          0        0         "
        "11       0         ok      ",
        "coded_deluge  swap     100%      9          0        0         "
        "0        0         ok      ",
        "coded_deluge  blended  100%      9          0        5         "
        "2        0         ok      ",
        "  auth_rej counts refused advertisements; quarant counts",
        "  discarded-and-re-requested segments; tampered counts installs",
        "  of images that were not the authentic one (must be 0)",
        "",
    ))),
    "adversary-coded-deluge-insecure": (1, "\n".join((
        "Adversary (insecure): 3x3 grid, intensity 0.5, seed 2",
        "protocol      attack  coverage  installed  refused  auth_rej  "
        "quarant  tampered  watchdog   ",
        "------------  ------  --------  ---------  -------  --------  "
        "-------  --------  -----------",
        "coded_deluge  tamper  100%      9          0        0         "
        "0        8         VIOLATED(8)",
        "coded_deluge  forge   100%      9          0        0         "
        "0        9         VIOLATED(9)",
        "  auth_rej counts refused advertisements; quarant counts",
        "  discarded-and-re-requested segments; tampered counts installs",
        "  of images that were not the authentic one (must be 0)",
        "  2 run(s) breached install/protocol invariants",
        "",
    ))),
}

#: name -> (exit code, SHA-256 of the ``--json`` output)
GOLDEN_JSON = {
    "chaos": (0, "2ca50453a4580db17e264577a80ea0fa"
                 "cc150be7ed1bbd0b5157a9864747efbe"),
    "adversary": (0, "353c18e1c456298763b5141ac3429b68"
                     "1fb2990880e7eef8d71feaafd70e5132"),
    "adversary-insecure": (1, "605b448fbf56a0fd3ae049b43d0b3b82"
                              "ee203ddc4ea070e6dbf9bfa78011d07b"),
    "chaos-coded": (0, "a37d425103341359aaec92fd730bbf8e"
                       "4d1e03d02c341731b8df6f7ebccade2a"),
    "chaos-restart": (0, "9fad0f13521d4f56dd198f9a9c2b9028"
                         "4746d2ca3436ec59036b292cb40b7187"),
    "adversary-coded-deluge": (0, "2421eb1e98c4dacac34faa3bd6a5a940"
                                  "7b201abec9538136261791a2eadf0a0d"),
    "adversary-coded-deluge-insecure": (
        1, "6ff7cbc8988b525ddb2c5352767b5180"
           "0f20edd1609d3c1c797dcac8bb14f594"),
}


def scenarios():
    """name -> (scenario, extra runs beyond its oracle fan-out)."""
    return {
        "faulted": (ScenarioGenerator(seed=7).sample(2), []),
        "secured": (
            ScenarioGenerator(seed=9, security_fraction=1.0).sample(0), []),
        # Sabotage is never fuzzed, so it rides on a generated scenario;
        # the Deluge run covers sabotage without a watchdog.
        "sabotaged": (
            ScenarioGenerator(seed=7).sample(0).replace(
                sabotage="corrupt-content"),
            [("proto:deluge", "deluge", None)]),
    }


#: scenario -> role -> SHA-256 of the run's canonical metrics JSON
GOLDEN_SCENARIOS = {
    "faulted": {
        "base": "4b5039e5787ad068ba5c86bb5d1bfba6"
                "5fd7e7df52b8d0875724fcfd864b72b6",
        "replica": "4b5039e5787ad068ba5c86bb5d1bfba6"
                   "5fd7e7df52b8d0875724fcfd864b72b6",
        "coded": "20131019b047f4050e86b39b4c1c6767"
                 "fd50c3e8c73de8609a0589a5e83ad6bf",
        "coded-replica": "20131019b047f4050e86b39b4c1c6767"
                         "fd50c3e8c73de8609a0589a5e83ad6bf",
    },
    "secured": {
        "base": "4c3f645decdb3e34929e8d76ff532fca"
                "cc0eda760d3ee78e85b4a88eca362d95",
        "replica": "4c3f645decdb3e34929e8d76ff532fca"
                   "cc0eda760d3ee78e85b4a88eca362d95",
        "coded": "e96872c705d5a8897c1fb28f9cadd1f8"
                 "7e478924bdce2eccb3b796ca7f034f03",
        "coded-replica": "e96872c705d5a8897c1fb28f9cadd1f8"
                         "7e478924bdce2eccb3b796ca7f034f03",
        "ideal": "b889f834d745476a53dbd04d5e3f2d01"
                 "06026a343852faa7d54e2595b2a62fad",
        "coded-ideal": "60e253778a428ec1a8f1454fcdec944a"
                       "7656b6ad47deccd895105815e69a42cd",
        "adversary": "2c614a5e4edd19c40411dadd7d17a8ac"
                     "f018c6314a3067fab8ecc8d0c1a089d5",
        "coded-adversary": "c58bc0fc051b30caee5194659d196230"
                           "bc0433c68ba067cb8795c266932c8a16",
        "reseg": "4c3f645decdb3e34929e8d76ff532fca"
                 "cc0eda760d3ee78e85b4a88eca362d95",
        "proto:deluge": "28b6ea23b7a40daaf583fbaa55f2cfce"
                        "ff86ea4c276b8b2bbf6205d08b2114b6",
        "proto:coded_deluge": "4b34cbffb2900b931c8de96082b23ac2"
                              "3a412ff202b935fde0dab1b0f6dc27c2",
        "proto:moap": "38031f7324c888921805cfba7b47fe12"
                      "5cf29582c4d6cf65a0177d1f64aacf82",
        "proto:flood": "c94af3f2605c309b6c23fe3c15698c09"
                       "debb0e769cab571f1697f05c21fd5a94",
    },
    "sabotaged": {
        "base": "56fd283da5d8a06f2e18075a6f7e1876"
                "bdfb472d97171c5283a3d7b9d5edbf50",
        "replica": "56fd283da5d8a06f2e18075a6f7e1876"
                   "bdfb472d97171c5283a3d7b9d5edbf50",
        "coded": "6d093adace2cc1ce53a5b7c99bff5f80"
                 "a0854f371eb414217a30c39815caed3a",
        "coded-replica": "6d093adace2cc1ce53a5b7c99bff5f80"
                         "a0854f371eb414217a30c39815caed3a",
        "ideal": "ec33336b2709802fe83876bd5fb32f20"
                 "e73b5c251173d97c8f9d0b3f35bdf59f",
        "coded-ideal": "e935f09e8851815f89da66f53edc981d"
                       "d964440bf2c75386927a7519a3b735b1",
        "proto:deluge": "8ceac1f38ddb64ae44320a0c492c8518"
                        "19e1c56ecce7035befa5520b5ff7ab0d",
    },
}


@pytest.fixture(autouse=True)
def pinned_scale(monkeypatch):
    # The scale name is part of every run spec's cache key, which the
    # JSON matrices print.
    monkeypatch.setenv("REPRO_SCALE", "smoke")


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def scenario_digests(name):
    spec, extra = scenarios()[name]
    return {
        role: _sha256(json.dumps(
            run_scenario(spec.to_dict(), protocol=protocol,
                         variant=variant),
            sort_keys=True, separators=(",", ":")))
        for role, protocol, variant in variants_for(spec) + extra
    }


def record():  # pragma: no cover - developer tool
    for name, argv in COMMANDS.items():
        code, text = run_cli(argv)
        print(f"== {name} text (exit {code})\n{text}")
        code, text = run_cli(argv + ["--json"])
        print(f"== {name} json (exit {code}) {_sha256(text)}")
    for name in GOLDEN_SCENARIOS:
        print(f"== scenario {name}")
        for role, digest in scenario_digests(name).items():
            print(f"  {role!r}: {digest!r},")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_text_matches_recorded_output(name):
    assert run_cli(COMMANDS[name]) == GOLDEN_TEXT[name]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_json_matches_recorded_digest(name):
    code, text = run_cli(COMMANDS[name] + ["--json"])
    assert (code, _sha256(text)) == GOLDEN_JSON[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_run_scenario_metrics_match_recorded_digests(name):
    assert scenario_digests(name) == GOLDEN_SCENARIOS[name]


if __name__ == "__main__":  # pragma: no cover
    import os

    os.environ["REPRO_SCALE"] = "smoke"
    record()
