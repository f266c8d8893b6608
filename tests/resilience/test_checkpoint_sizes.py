"""Checkpoint/resume across mesh sizes on the default (event) kernel.

The other checkpoint suites use 4x4 meshes only.  Here each size runs
50 cycles, snapshots, restores in fresh global state and finishes; the
result must be byte-identical to an uninterrupted run.

Capsules pickle the linked switch/link/NI object graph, so pickling
recurses deeper as the network grows: from 10x10 up ``pickle.dumps``
raises ``RecursionError`` (see ROADMAP, "Checkpoints that work at every
size and never unpickle").  Those sizes are strict xfails, so they turn
into failures the day capsules stop pickling the object graph.
"""

import pytest

from repro.arch.packet import reset_packet_ids
from repro.lab.hashing import canonical_json
from repro.sim import NocSimulator, SyntheticTraffic
from repro.topology.presets import standard_instance

SNAPSHOT_AT = 50
REST = 50

_RECURSION = pytest.mark.xfail(
    strict=True, raises=RecursionError,
    reason="capsules pickle the object graph, which recurses past the "
           "interpreter limit from 10x10 up (ROADMAP: checkpoints that "
           "work at every size)",
)


def _build(size):
    reset_packet_ids()
    inst = standard_instance("mesh", size)
    sim = NocSimulator(inst.topology, inst.table,
                       vc_assignment=inst.vc_assignment)
    return sim, SyntheticTraffic("uniform", 0.05, 4, seed=5)


def _fingerprint(sim) -> str:
    return canonical_json({
        "cycle": sim.cycle,
        "flits_injected": sim.stats.flits_injected,
        "records": [
            [r.source, r.destination, r.size_flits,
             r.injection_cycle, r.arrival_cycle]
            for r in sim.stats.records
        ],
    })


@pytest.mark.parametrize("size", [
    4, 8, 9,
    pytest.param(10, marks=_RECURSION),
    pytest.param(16, marks=_RECURSION),
])
def test_resume_is_byte_identical(size):
    sim, traffic = _build(size)
    assert sim.kernel == "event"
    sim.run(SNAPSHOT_AT, traffic)
    capsule = sim.snapshot(traffic)

    sim, traffic = _build(size)
    sim.run(SNAPSHOT_AT + REST, traffic, drain=True)
    expected = _fingerprint(sim)
    del sim, traffic

    reset_packet_ids()
    restored, traffic = NocSimulator.restore(capsule)
    assert restored.cycle == SNAPSHOT_AT
    restored.run(REST, traffic, drain=True)
    assert restored.stats.packets_delivered > 0
    assert _fingerprint(restored) == expected
