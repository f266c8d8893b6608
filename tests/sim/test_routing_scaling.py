"""Simulation on derived routing tables: large meshes and resume.

An XY table derives each route on first lookup and the NI LUTs are views
over it, so building a simulator costs O(N) rather than O(N^2) routes:
a 64x64 mesh (16.7M core pairs) builds and runs in seconds.  A
simulator built from a derived table must also checkpoint and resume
byte-identically.  The resume check runs on an 8x8 mesh: a 16x16
simulator still overflows the recursion limit inside ``pickle.dumps``
(a limit of the pickled capsule format, not of the routing tables).
"""

from repro.arch.packet import reset_packet_ids
from repro.lab.hashing import canonical_json
from repro.sim import NocSimulator, SyntheticTraffic
from repro.topology.presets import standard_instance


def test_64x64_mesh_builds_and_delivers():
    inst = standard_instance("mesh", 64)
    assert inst.table.derived
    assert len(inst.table) == 4096 * 4095
    sim = NocSimulator(inst.topology, inst.table, kernel="event")
    sim.run(300, SyntheticTraffic("uniform", 0.001, 4, seed=1))
    assert sim.stats.packets_delivered > 0


RESUME_SIZE = 8
SNAPSHOT_AT = 200
CYCLES = 600


def _build():
    reset_packet_ids()
    inst = standard_instance("mesh", RESUME_SIZE)
    sim = NocSimulator(inst.topology, inst.table, warmup_cycles=50,
                       kernel="event")
    return sim, SyntheticTraffic("uniform", 0.05, 4, seed=9)


def _fingerprint(sim) -> str:
    stats = sim.stats
    return canonical_json({
        "cycle": sim.cycle,
        "delivered": stats.packets_delivered,
        "flits_injected": stats.flits_injected,
        "records": [
            [r.source, r.destination, r.size_flits,
             r.injection_cycle, r.arrival_cycle]
            for r in stats.records
        ],
    })


def test_derived_table_resumes_byte_identically():
    sim, traffic = _build()
    assert sim.routing_table.derived
    sim.run(CYCLES, traffic, drain=True)
    reference = _fingerprint(sim)

    sim, traffic = _build()
    sim.run(SNAPSHOT_AT, traffic)
    capsule = sim.snapshot(traffic)
    reset_packet_ids()
    restored, restored_traffic = NocSimulator.restore(capsule)
    assert restored.routing_table.derived
    restored.run(CYCLES - SNAPSHOT_AT, restored_traffic, drain=True)
    assert _fingerprint(restored) == reference
