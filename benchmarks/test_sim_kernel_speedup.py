"""SIM — the event kernel's speedup contract on idle-heavy workloads.

Cycle loops dominated by idle time (low-load latency points, long
fault campaigns waiting on repairs, drain tails) are where the event
kernel's quiescence jumps pay off most.  This benchmark pins the
contract to a number: on a low-load 8x8 mesh the event kernel must be
at least 2x the reference kernel, with byte-identical results.

The measurement avoids pytest-benchmark deliberately so the CI
kernel-equivalence job can run it with a plain ``pytest`` install; it
writes both kernels' cycles/second (plus the workload description) to
``BENCH_sim_kernel.json`` at the repository root, which CI publishes
as a build artifact.
"""

import json
import time
from pathlib import Path

from repro.arch.packet import reset_packet_ids
from repro.sim import NocSimulator, SyntheticTraffic
from repro.topology.presets import standard_instance

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_FILE = REPO_ROOT / "BENCH_sim_kernel.json"

#: The contract: event >= 2x reference on this workload.
MIN_SPEEDUP = 2.0

WORKLOAD = {
    "topology": "mesh",
    "size": 8,
    "pattern": "uniform",
    "rate": 0.0005,      # flits/cycle/core — low load is the use case
    "packet_size": 4,
    "cycles": 5000,
    "seed": 7,
}

RUNS = 3


def _run(kernel):
    reset_packet_ids()
    inst = standard_instance(WORKLOAD["topology"], WORKLOAD["size"])
    sim = NocSimulator(inst.topology, inst.table,
                       vc_assignment=inst.vc_assignment, kernel=kernel)
    traffic = SyntheticTraffic(
        WORKLOAD["pattern"], WORKLOAD["rate"], WORKLOAD["packet_size"],
        seed=WORKLOAD["seed"],
    )
    start = time.perf_counter()
    sim.run(WORKLOAD["cycles"], traffic, drain=True)
    elapsed = time.perf_counter() - start
    return sim, traffic, sim.cycle / elapsed


def _best(kernel):
    best_rate, keep = 0.0, None
    for __ in range(RUNS):
        sim, traffic, rate = _run(kernel)
        if rate > best_rate:
            best_rate, keep = rate, (sim, traffic)
    return keep[0], keep[1], best_rate


def test_event_kernel_speedup_on_low_load_mesh():
    ref_sim, ref_traffic, ref_rate = _best("reference")
    event_sim, event_traffic, event_rate = _best("event")
    speedup = event_rate / ref_rate

    # The speedup is only meaningful if the results are identical.
    assert event_sim.cycle == ref_sim.cycle
    assert event_traffic.packets_offered == ref_traffic.packets_offered
    assert event_sim.stats.packets_delivered == \
        ref_sim.stats.packets_delivered
    assert event_sim.stats.latency() == ref_sim.stats.latency()
    assert event_sim.cycles_skipped > 0
    assert ref_sim.cycles_skipped == 0

    RESULT_FILE.write_text(json.dumps({
        "workload": WORKLOAD,
        "runs_per_kernel": RUNS,
        "reference_cycles_per_sec": round(ref_rate, 1),
        "event_cycles_per_sec": round(event_rate, 1),
        "speedup": round(speedup, 2),
        "cycles_skipped_by_event_kernel": event_sim.cycles_skipped,
        "total_cycles": event_sim.cycle,
        "packets_delivered": event_sim.stats.packets_delivered,
    }, indent=2, sort_keys=True) + "\n")

    assert speedup >= MIN_SPEEDUP, (
        f"event kernel managed only {speedup:.2f}x over reference "
        f"({event_rate:.0f} vs {ref_rate:.0f} cycles/s); the contract "
        f"is >= {MIN_SPEEDUP}x on this idle-heavy workload"
    )
