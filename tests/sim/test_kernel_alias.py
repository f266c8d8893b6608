"""Kernel selection: the default, the retired ``"fast"`` name, and keys.

Two kernels exist (``reference`` and ``event``).  A third one,
``"fast"``, was retired; specs that still name it must keep running
and keep returning the same results, and a spec that names no kernel
must keep the cache key it had before the default changed.
"""

import json
import pickle

import pytest

from repro.arch.packet import reset_packet_ids
from repro.cli import build_parser
from repro.lab import Job, run_job
from repro.lab.sweeps import load_curve_jobs
from repro.resilience.checkpoint import (
    _MAGIC,
    CheckpointVersionError,
    restore_simulator,
    validate_capsule,
)
from repro.resilience.integrity import payload_digest
from repro.sim import DEFAULT_KERNEL, KERNELS, NocSimulator, SyntheticTraffic
from repro.topology.presets import standard_instance

SPEC = {"topology": "mesh", "size": 3, "rate": 0.1, "cycles": 300,
        "warmup": 60}


def _run(kernel):
    reset_packet_ids()
    inst = standard_instance("mesh", 4)
    sim = NocSimulator(inst.topology, inst.table, kernel=kernel)
    sim.run(800, SyntheticTraffic("uniform", 0.02, 4, seed=3), drain=True)
    fingerprint = json.dumps({
        "cycle": sim.cycle,
        "skipped": sim.cycles_skipped,
        "records": [
            [r.source, r.destination, r.size_flits,
             r.injection_cycle, r.arrival_cycle]
            for r in sim.stats.records
        ],
    })
    return sim, fingerprint


def test_default_is_event():
    assert DEFAULT_KERNEL == "event"
    assert DEFAULT_KERNEL in KERNELS


def test_fast_alias_runs_the_event_kernel():
    sim_fast, fp_fast = _run("fast")
    sim_event, fp_event = _run("event")
    assert sim_fast.kernel == "event"
    assert sim_fast.cycles_skipped > 0
    assert fp_fast == fp_event


def test_unknown_kernel_rejected():
    inst = standard_instance("mesh", 2)
    with pytest.raises(ValueError, match="unknown kernel"):
        NocSimulator(inst.topology, inst.table, kernel="warp")


def test_fast_spec_returns_the_default_result():
    default = run_job(Job("load_point", SPEC, seed=7))
    fast = run_job(Job("load_point", {**SPEC, "kernel": "fast"}, seed=7))
    assert default["point"] is not None
    assert fast == default


def test_default_spec_keys_are_unchanged():
    """Keys computed before the default kernel changed, pinned: a spec
    without a ``kernel`` entry must still hit its cached results."""
    assert Job("load_point", SPEC, seed=7).key == (
        "f00fda897710e2819ee834894f7900a4ef8fe1effd710b9407bd6880898d9717"
    )
    (job,) = load_curve_jobs("mesh", 4, [0.05], seed=1)
    assert "kernel" not in job.params
    assert job.key == (
        "f7bb54bc2161314535d6e4eaecf9f96fd9c13abdfc806d0fd52445a996d49236"
    )


def test_cli_reads_kernels_from_the_simulator():
    parser = build_parser()
    assert parser.parse_args(["simulate"]).kernel == DEFAULT_KERNEL
    with pytest.raises(SystemExit):
        parser.parse_args(["simulate", "--kernel", "fast"])


def test_version_2_capsule_rejected():
    """Capsules from before the fast kernel's removal carry its state
    fields; they must be refused, not resumed."""
    inst = standard_instance("mesh", 2)
    sim = NocSimulator(inst.topology, inst.table)
    doc = pickle.loads(validate_capsule(sim.snapshot()))
    doc["version"] = 2
    body = pickle.dumps(doc, protocol=pickle.HIGHEST_PROTOCOL)
    forged = _MAGIC + payload_digest(body).encode("ascii") + b"\n" + body
    with pytest.raises(CheckpointVersionError):
        restore_simulator(forged)
