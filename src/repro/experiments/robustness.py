"""Robustness experiments: failures and late arrivals.

The paper's reliability argument rests on local decisions and timeouts
("fail state is used to avoid infinite waiting", §3.4), which should make
the protocol robust to exactly two perturbations a real deployment sees:

* **churn** -- nodes die mid-dissemination (battery, weather, trampling);
  the survivors must still reach 100% coverage as long as the surviving
  network is connected;
* **late joiners** -- nodes powered on after the network finished
  updating must still acquire the code from their (now quiescent,
  slow-advertising) neighbors.
"""

from repro.core.config import MNPConfig
from repro.experiments.chaos import FaultedRun
from repro.experiments.common import RANGE_FT, grid_deployment
from repro.faults import FaultPlan
from repro.sim.kernel import MINUTE, SECOND
from repro.sim.rng import derive_rng


def run_churn(rows=6, cols=6, kill_fraction=0.15, kill_after_ms=None,
              n_segments=2, seed=0, deadline_min=120):
    """Kill a random subset of non-base nodes mid-run.

    Victims are chosen so the surviving network stays connected from the
    base station (the paper's §2 precondition); they crash at
    ``kill_after_ms`` (default: 20 s into the run).  The run settles
    through :class:`~repro.experiments.chaos.FaultedRun`, so it lasts at
    least until the kill; returns the closed run (victims in
    ``controller.crashed_nodes``).
    """
    dep = grid_deployment(rows, cols, "mnp", n_segments, 32, seed,
                          MNPConfig(query_update=True))
    victims = _pick_victims(dep.topology, dep.base_id, kill_fraction,
                            derive_rng(seed, "churn"))
    kill_at = kill_after_ms if kill_after_ms is not None else 20 * SECOND
    run = FaultedRun(dep, FaultPlan().crash(kill_at, nodes=victims))
    run.settle(deadline_min * MINUTE)
    run.close()
    return run


def _pick_victims(topology, base_id, fraction, rng):
    """Random victims that keep the survivor graph connected from the
    base (rejection sampling; greedy fallback one-by-one)."""
    n_victims = max(1, int(len(topology) * fraction))
    candidates = [n for n in topology.node_ids() if n != base_id]
    for _ in range(200):
        victims = set(rng.sample(candidates, n_victims))
        if _survivors_connected(topology, base_id, victims):
            return victims
    # Greedy: add victims one at a time, skipping cut vertices.
    victims = set()
    rng.shuffle(candidates)
    for candidate in candidates:
        if len(victims) == n_victims:
            break
        trial = victims | {candidate}
        if _survivors_connected(topology, base_id, trial):
            victims = trial
    return victims


def _survivors_connected(topology, base_id, victims):
    reachable = _reachable_excluding(topology, base_id, victims)
    survivors = set(topology.node_ids()) - victims
    return survivors <= reachable


def _reachable_excluding(topology, source, excluded):
    from collections import deque

    index = topology.grid_index(RANGE_FT)
    seen = {source}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for neighbor in index.nodes_within(node, RANGE_FT):
            if neighbor in excluded or neighbor in seen:
                continue
            seen.add(neighbor)
            frontier.append(neighbor)
    return seen


def run_late_joiner(rows=4, cols=4, join_after_min=3.0, n_segments=1,
                    seed=0, deadline_min=120, query_update=False):
    """Power one node on only after the rest of the network has finished
    updating; it must catch up from the quiescent network.

    ``query_update`` selects the Fig. 4 variant: the latecomer's repair
    path differs (UPDATE rounds vs FAIL-and-rerequest), and both must
    converge.  Returns ``(join_time_ms, catch_up_ms, deployment)`` where
    ``catch_up_ms`` is how long the latecomer needed (None if it never
    completed).
    """
    dep = grid_deployment(rows, cols, "mnp", n_segments, 32, seed,
                          MNPConfig(query_update=query_update))
    late = dep.topology.center_node()
    for node_id, node in dep.nodes.items():
        if node_id != late:
            node.start()
    others = [n for n in dep.nodes if n != late]
    done = dep.sim.run_until(
        lambda: all(dep.nodes[n].has_full_image for n in others),
        check_every=SECOND, deadline=join_after_min * MINUTE,
    )
    if not done:
        # Let the network finish before the latecomer arrives.
        dep.sim.run_until(
            lambda: all(dep.nodes[n].has_full_image for n in others),
            check_every=SECOND, deadline=deadline_min * MINUTE,
        )
    join_time = dep.sim.now
    dep.nodes[late].start()
    dep.sim.run_until(
        lambda: dep.nodes[late].has_full_image,
        check_every=SECOND, deadline=join_time + deadline_min * MINUTE,
    )
    catch_up = (dep.sim.now - join_time
                if dep.nodes[late].has_full_image else None)
    return join_time, catch_up, dep
