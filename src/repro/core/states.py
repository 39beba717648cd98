"""The MNP state machine of Figure 4, and one edge lookup for every
protocol.

Both variants from the paper are supported: the basic machine has six
states (idle, download, advertise, forward, sleep, fail) and the
query/update variant adds two more (query on the sender side, update on the
receiver side).  :data:`ALLOWED_TRANSITIONS` encodes the edges of Fig. 4 --
the protocol engine asserts every transition against it, and the test suite
checks the table itself against the figure.

Each baseline with roles declares its own table beside its node class;
:data:`EDGES` merges them all with Fig. 4, so the watchdog checks any
protocol's state records with one lookup (:func:`is_allowed`).
"""


class MNPState:
    IDLE = "idle"
    DOWNLOAD = "download"
    ADVERTISE = "advertise"
    FORWARD = "forward"
    SLEEP = "sleep"
    FAIL = "fail"
    QUERY = "query"  # sender side, query/update variant only
    UPDATE = "update"  # receiver side, query/update variant only

    ALL = (IDLE, DOWNLOAD, ADVERTISE, FORWARD, SLEEP, FAIL, QUERY, UPDATE)
    BASIC = (IDLE, DOWNLOAD, ADVERTISE, FORWARD, SLEEP, FAIL)


#: Directed edges of the Fig. 4 state machine (superset: basic machine plus
#: the query/update extension).  Keys are source states; values are the
#: states reachable in one transition.
ALLOWED_TRANSITIONS = {
    MNPState.IDLE: {
        MNPState.DOWNLOAD,  # StartDownload / data for the expected segment
        MNPState.SLEEP,  # neighbor streams a segment not of interest
        MNPState.ADVERTISE,  # base station bootstrap / has code to offer
    },
    MNPState.DOWNLOAD: {
        MNPState.ADVERTISE,  # EndDownload with no missing packets
        MNPState.UPDATE,  # EndDownload/query with missing packets (q/u on)
        MNPState.FAIL,  # timeout, or missing packets with q/u off
        MNPState.IDLE,  # segment done but cannot advertise yet
                        # (basic, non-pipelined protocol of §3.1.1)
    },
    MNPState.ADVERTISE: {
        MNPState.FORWARD,  # K advertisements sent and ReqCtr > 0
        MNPState.SLEEP,  # lost the sender selection
        MNPState.DOWNLOAD,  # StartDownload for the expected segment
    },
    MNPState.FORWARD: {
        MNPState.SLEEP,  # finished forwarding (basic machine)
        MNPState.QUERY,  # finished forwarding (query/update machine)
    },
    MNPState.QUERY: {
        MNPState.SLEEP,  # no more repair requests
        MNPState.FORWARD,  # basic, non-pipelined protocol: the single
                           # sender rolls into the next segment (§3.1.1)
    },
    MNPState.UPDATE: {
        MNPState.ADVERTISE,  # repaired: no more missing packets
        MNPState.FAIL,  # retransmission wait timed out
        MNPState.IDLE,  # repaired but cannot advertise yet (basic,
                        # non-pipelined protocol of §3.1.1)
    },
    MNPState.SLEEP: {
        MNPState.ADVERTISE,  # sleep timer fired, node has code to offer
        MNPState.IDLE,  # sleep timer fired, nothing to offer yet (a
                        # receiver that slept through an uninteresting
                        # segment, §4 energy discussion)
    },
    MNPState.FAIL: {
        MNPState.IDLE,  # fail is transient: release resources, go idle
    },
}


#: Every protocol's edges in one lookup, ``state -> next states``: Fig.
#: 4's, and each node class adds its table (shared, not copied) as it is
#: defined.
EDGES = dict(ALLOWED_TRANSITIONS)


def register_edges(table):
    """Add one protocol's table to :data:`EDGES`.  State names are unique
    across protocols, so a record's states say whose table applies."""
    for state, targets in table.items():
        if EDGES.setdefault(state, targets) is not targets:
            raise ValueError(f"state {state!r} belongs to another protocol")


def is_allowed(from_state, to_state):
    """True if some protocol's table contains the edge
    ``from_state -> to_state`` (for MNP's states: if Fig. 4 does)."""
    return to_state in EDGES.get(from_state, ())


def iter_edges():
    """Every directed edge of Fig. 4 as ``(from_state, to_state)`` pairs,
    in deterministic order (exhaustive-coverage tests iterate this)."""
    for frm in MNPState.ALL:
        for to in sorted(ALLOWED_TRANSITIONS.get(frm, ())):
            yield frm, to
