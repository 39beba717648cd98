"""The hot objects keep a fixed layout.

CPython specialises an attribute access on the layout of its object's
type.  Two things put the busiest objects of a run off those fast paths
for good: a write to a class attribute (it invalidates the type's
caches, so every specialised access to its instances falls back to the
generic form), and an instance dict that has outgrown the class's
shared keys (every ``self.x`` becomes a hinted dict lookup).  So no
frame writes a class attribute, and every protocol node declares its
attributes in ``__slots__`` and carries no ``__dict__``.
"""

import pytest

from repro.experiments.common import grid_deployment
from repro.radio.packet import Frame

PROTOCOLS = ("mnp", "coded_mnp", "deluge", "coded_deluge", "moap", "xnp",
             "flood")


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_no_node_carries_an_instance_dict(protocol):
    dep = grid_deployment(4, 4, protocol, 1, 8, 1)
    result = dep.run_to_completion()
    assert result.coverage > 0.0
    for node_id, node in dep.nodes.items():
        assert not hasattr(node, "__dict__"), (protocol, node_id)


def test_an_undeclared_node_attribute_fails_at_once():
    dep = grid_deployment(2, 2, "mnp", 1, 8, 1)
    with pytest.raises(AttributeError):
        dep.nodes[0].undeclared = 1


def test_building_frames_writes_no_class_attribute():
    before = dict(vars(Frame))
    frames = [Frame(0, None, 23) for _ in range(5)]
    clone = frames[-1].clone_with_payload("other")
    assert dict(vars(Frame)) == before
    sequences = [frame.sequence for frame in frames]
    assert all(a < b for a, b in zip(sequences, sequences[1:]))
    assert clone.sequence == frames[-1].sequence
    assert Frame(0, None, 23).sequence > sequences[-1]
