"""The three benchmark workloads, driven only through public repro calls.

Every workload offers the same steps, so ``run.py`` can treat them
alike:

``setup(scratch)``
    everything before the first operation can be sent (imports, server
    start, cache and checkpoint directories);
``inputs``
    how many distinct inputs a run draws from its seed; the run cycles
    through them, so each is measured several times;
``round(seed)``
    one closed-loop round of cold operations on the input ``seed``,
    returning :class:`Op` records; it calls ``calibrate()`` right before
    each cold operation, and ``serve_mesh16`` also right after (``run.py``
    points it at a ``Calibration``);
``verify(ops)``
    recompute each distinct input once with ``kernel="reference"`` and
    mark every operation whose output differs as a failure;
``peak_rss_mb()``
    peak resident memory of the process that simulated;
``server_spans(trace_id)``
    the server's spans of one trace (none for in-process workloads);
``replay(rng, spans, ops)``
    one more operation, taken apart into its layer calls, each wrapped
    in a span (the traced run's per-layer numbers);
``close()``
    stop everything the workload started.

Operation sizes are fixed here and are part of the benchmark's
definition; ``README.md`` beside this file says why each workload
exists and which metrics it should move.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: An operation slower than this fails (it missed every limit).
LIMIT_S = 120.0

LP16_SPEC = {"topology": "mesh", "size": 16, "rate": 0.05,
             "cycles": 1000, "warmup": 250}
#: A switch fault repaired after 100 cycles: fault, retransmission and
#: recovery all run, yet the campaign stays seconds long at 16x16
#: (a permanent switch fault takes minutes to reconfigure around).
FC16_SPEC = {"topology": "mesh", "size": 16, "rate": 0.05,
             "cycles": 1000, "repair_after": 100}
#: Capsules every 250 cycles, so a checkpoint failure shows early.
CHECKPOINT_INTERVAL = 250
#: Resubmissions of each cold spec per serve round (cache hits).
HITS_PER_ROUND = 40
SATURATED_SPEC = {"topology": "mesh", "size": 8, "rate": 0.3,
                  "cycles": 800, "warmup": 200}
FLOW_CORES = 26
#: Pipeline bandwidths of the synthetic SoC.  At the generator's default
#: (50-400 MB/s) about a quarter of the seeds have no feasible design
#: point, which the flow reports by raising; at 50-250 MB/s a few in a
#: hundred do, so nearly every operation runs the whole flow.
FLOW_PIPELINE_MB_PER_S = (50.0, 250.0)
#: The sweep's clock frequencies.  The flow's default sweeps 400, 600
#: and 800 MHz; one frequency makes an operation a third as long, so a
#: run holds several repeats of each of its SoCs.
FLOW_FREQUENCIES_HZ = (600e6,)
#: How NocDesignFlow.run reports an empty Pareto front, and the output
#: the benchmark records for it (the reference must agree).
INFEASIBLE = "no feasible design point"
NO_DESIGN = {"front": []}
PACKET_SIZE = 4  # the load_point runner's default packet size


@dataclass
class Op:
    """One operation as the client saw it."""

    name: str
    cold: bool
    spec: Any = None
    seed: int = 0
    latency_s: float = 0.0
    error: Optional[str] = None
    result: Any = None
    cpu_s: float = 0.0
    cycles: int = 0
    flits: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)


def _digest(obj: Any) -> str:
    from repro.lab.hashing import canonical_json

    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _point_fields(result: Optional[dict]) -> Optional[dict]:
    point = (result or {}).get("point")
    if point is None:
        return None
    return {k: point[k] for k in
            ("packets", "accepted_rate", "mean_latency", "p95_latency")}


def _reference_load_point(spec: dict, seed: int) -> Optional[dict]:
    from repro.lab import Job, run_job

    ref = run_job(Job("load_point", {**spec, "kernel": "reference"}, seed))
    return _point_fields(ref)


class Spans:
    """Benchmark-side spans around layer calls (the traced run)."""

    def __init__(self) -> None:
        from repro.obs.telemetry import Tracer

        self.done: List[dict] = []
        self.tracer = Tracer(on_end=lambda s: self.done.append(s.to_dict()))

    def span(self, name: str):
        return self.tracer.span(name)

    def adopt(self, server_spans: List[dict]) -> None:
        """Merge a served trace; its root spans hang under the client
        span that carried the trace id, so self time nets out."""
        roots = {s["trace_id"]: s["span_id"] for s in self.done
                 if s["parent_id"] is None}
        for s in server_spans:
            if s.get("parent_id") is None:
                s = {**s, "parent_id": roots.get(s["trace_id"])}
            self.done.append(s)

    def duration(self, name: str) -> float:
        return sum(s["duration_s"] for s in self.done if s["name"] == name)


class Workload:
    """Defaults for workloads that simulate in this process."""

    sim_timer = "time.process_time (this process)"
    rss_source = "RUSAGE_SELF ru_maxrss (this process)"

    def calibrate(self) -> None:
        """Sample the host's speed; a no-op unless a run sets it."""

    def output(self, op: Op) -> Any:
        """The part of a completed operation's result that is checked."""
        return op.result

    def verify(self, ops: List[Op]) -> None:
        """Each distinct input is recomputed once by ``reference(op)``;
        every repeat of it must match that answer."""
        expected: Dict[tuple, Any] = {}
        for op in ops:
            if not op.cold or op.error is not None:
                continue
            key = (op.name, op.seed)
            if key not in expected:
                expected[key] = self.reference(op)
            if self.output(op) != expected[key]:
                op.error = "mismatch with the reference kernel"

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def server_spans(self, trace_id: str) -> List[dict]:
        return []


# ----------------------------------------------------------------------
# Shared replay of one load_point, split at layer boundaries
# ----------------------------------------------------------------------
def _replay_load_point(spec: dict, seed: int, spans: Spans, cache,
                       hit_key: Optional[str]) -> Dict[str, float]:
    """The load_point runner's public calls, one span per layer.

    Mirrors ``repro.lab.jobs._run_load_point`` and the ``run_jobs``
    cache steps around it: key, cache lookup, topology build, simulator
    construction, kernel run, statistics, cache store, and then a
    checkpoint snapshot and restore of the finished simulator.
    """
    from repro.arch.parameters import DEFAULT_PARAMETERS
    from repro.lab import Job
    from repro.lab.hashing import canonical_json
    from repro.sim import NocSimulator, SyntheticTraffic
    from repro.topology.presets import standard_instance

    m: Dict[str, float] = {}
    job = Job("load_point", spec, seed)
    with spans.span("replay.load_point"):
        with spans.span("lab.key"):
            key = job.key
        with spans.span("lab.cache_get"):
            cache.get(hit_key or key)
        with spans.span("topology.build"):
            inst = standard_instance(spec["topology"], spec["size"])
        m["topology.routes"] = len(inst.table)
        params = DEFAULT_PARAMETERS
        if params.num_vcs < inst.min_vcs:
            params = params.with_(num_vcs=inst.min_vcs)
        with spans.span("sim.construct"):
            sim = NocSimulator(inst.topology, inst.table, params,
                               vc_assignment=inst.vc_assignment,
                               warmup_cycles=spec["warmup"])
        traffic = SyntheticTraffic("uniform", spec["rate"], PACKET_SIZE,
                                   seed=seed)
        with spans.span("sim.run"):
            sim.run(spec["cycles"], traffic)
        with spans.span("stats.summary"):
            latency = sim.stats.latency()
            accepted = sim.stats.throughput_flits_per_cycle(
                spec["cycles"] - spec["warmup"]) / len(inst.topology.cores)
        result = {"point": {"packets": sim.stats.packets_delivered,
                            "accepted_rate": accepted,
                            "mean_latency": latency.mean,
                            "p95_latency": latency.p95}}
        m["lab.result_kb"] = len(canonical_json(result)) / 1024
        with spans.span("lab.cache_put"):
            cache.put(key, result)
    m.update(_sim_counters(sim))
    m.update(_snapshot_restore(sim, traffic, spans))
    m["replay_s"] = spans.duration("replay.load_point")
    return m


def _sim_counters(sim) -> Dict[str, float]:
    return {
        "sim.lut_entries": sum(len(ni.lut.destinations())
                               for ni in sim.initiators.values()),
        "sim.cycles": sim.cycle,
        "sim.cycles_skipped": sim.cycles_skipped,
        "stats.records": len(sim.stats.records),
        "arch.flits_forwarded": sum(sw.flits_forwarded
                                    for sw in sim.switches.values()),
        "arch.link_flits_carried": sum(link.flits_carried
                                       for link in sim.links.values()),
        "arch.switch_stall_cycles": sum(sw.stall_cycles
                                        for sw in sim.switches.values()),
        "arch.ni_injection_stall_cycles": sum(
            ni.injection_stall_cycles for ni in sim.initiators.values()),
    }


def _snapshot_restore(sim, traffic, spans: Spans) -> Dict[str, float]:
    """Checkpoint the simulator and restore it; a failure is counted."""
    from repro.sim import NocSimulator

    m = {"resilience.failures": 0, "resilience.capsule_kb": 0.0}
    capsule = None
    try:
        with spans.span("resilience.snapshot"):
            capsule = sim.snapshot(traffic)
    except RecursionError:
        m["resilience.failures"] += 1
    if capsule is not None:
        m["resilience.capsule_kb"] = len(capsule) / 1024
        with spans.span("resilience.restore"):
            NocSimulator.restore(capsule)
    return m


# ----------------------------------------------------------------------
# serve_mesh16
# ----------------------------------------------------------------------
class ServeMesh16(Workload):
    """A live server set up as ``repro serve --checkpoint-dir`` sets it up."""

    name = "serve_mesh16"
    #: A round takes about 9 s, so one input is repeated every round.
    inputs = 1
    sim_timer = "RUSAGE_CHILDREN user+system (the forked job workers)"
    rss_source = "RUSAGE_CHILDREN ru_maxrss (largest job worker)"

    def setup(self, scratch) -> None:
        from repro.lab import ResultCache
        from repro.resilience import CheckpointPlan, RetryPolicy
        from repro.serve import ServerThread, SessionQuota

        self.cache = ResultCache(scratch / "cache")
        self.cache.verify(repair=True)
        self.plan = CheckpointPlan(directory=str(scratch / "checkpoints"),
                                   interval=CHECKPOINT_INTERVAL)
        self.plan.store().recovery_scan()
        self.srv = ServerThread(
            workers=1, worker_mode="process", cache=self.cache,
            quota=SessionQuota(max_concurrent=8, max_queue_depth=32,
                               max_cycles=1_000_000),
            max_queue_depth=128, retry_policy=RetryPolicy(max_attempts=3),
            checkpoint_plan=self.plan,
        ).start()
        self.client = self.srv.client(session="perfbench", timeout=LIMIT_S)
        self.client.health()

    def _reset(self) -> None:
        """Drop cached results and capsules, so a repeated input runs
        cold and from cycle 0."""
        self.cache.clear()
        store = self.plan.store()
        for tag in list(store.tags()):
            store.discard(tag)

    def close(self) -> None:
        srv = getattr(self, "srv", None)
        if srv is not None:
            srv.stop()

    # -- operations ----------------------------------------------------
    def _await_workers_reaped(self) -> None:
        # The worker's CPU time reaches RUSAGE_CHILDREN once it is
        # joined, which the bridge does right after relaying the result.
        deadline = time.monotonic() + 10.0
        while self.srv.server.bridge.active_pids() and \
                time.monotonic() < deadline:
            time.sleep(0.005)

    def _cold(self, kind: str, spec: dict, seed: int) -> Op:
        from repro.serve.client import ServeError
        from repro.serve.protocol import TERMINAL_STATES

        op = Op(kind, cold=True, spec=spec, seed=seed)
        self.calibrate()
        cpu0 = _children_cpu_s()
        t0 = time.perf_counter()
        doc = None
        try:
            doc = self.client.submit(kind, spec, seed=seed)
            op.extra["submit_s"] = time.perf_counter() - t0
            if doc["state"] not in TERMINAL_STATES:
                # Block on the job's stream rather than polling, so the
                # client does not compete with the worker for the CPU.
                for _ in self.client.stream(doc["id"]):
                    pass
                doc = self.client.status(doc["id"])
        except ServeError as exc:
            op.error = f"refused: HTTP {exc.status}"
        except (OSError, TimeoutError) as exc:
            op.error = f"transport: {type(exc).__name__}"
        op.latency_s = time.perf_counter() - t0
        self._await_workers_reaped()
        op.cpu_s = _children_cpu_s() - cpu0
        # A served job is long and a run holds few of them: a sample on
        # each side of it follows the host's phase more closely.
        self.calibrate()
        if doc is None or op.error:
            return op
        op.extra["trace_id"] = doc.get("trace_id")
        op.extra["timing"] = doc.get("timing", {})
        if doc["state"] != "done":
            op.error = f"{doc['state']}: {str(doc.get('error'))[:120]}"
        elif doc.get("cached"):
            op.error = "a cold submission was answered by the cache"
        else:
            op.result = doc["result"]
            op.cycles = spec["cycles"]
            if kind == "load_point":
                op.flits = op.result["point"]["packets"] * PACKET_SIZE
            else:
                op.flits = op.result["delivered"] * PACKET_SIZE
        return op

    def _hit(self, cold: Op) -> Op:
        from repro.serve.client import ServeError

        op = Op("hit", cold=False, spec=cold.spec, seed=cold.seed)
        t0 = time.perf_counter()
        try:
            doc = self.client.submit(cold.name, cold.spec, seed=cold.seed)
        except ServeError as exc:
            op.error = f"refused: HTTP {exc.status}"
        except OSError as exc:
            op.error = f"transport: {type(exc).__name__}"
        op.latency_s = time.perf_counter() - t0
        if op.error is None:
            if doc["state"] != "done" or not doc.get("cached"):
                op.error = "resubmission was not answered by the cache"
            elif doc["result"] != cold.result:
                op.error = "mismatch: cache answer differs from the cold result"
        return op

    def round(self, seed: int) -> List[Op]:
        self._reset()
        ops = [self._cold("load_point", LP16_SPEC, seed)]
        if ops[0].error is None:
            ops += [self._hit(ops[0]) for _ in range(HITS_PER_ROUND)]
        ops.append(self._cold("fault_campaign", FC16_SPEC, seed))
        return ops

    def output(self, op: Op) -> Any:
        return _point_fields(op.result) if op.name == "load_point" \
            else op.result

    def reference(self, op: Op) -> Any:
        from repro.lab import Job, run_job

        if op.name == "load_point":
            return _reference_load_point(op.spec, op.seed)
        return run_job(Job("fault_campaign",
                           {**op.spec, "kernel": "reference"}, op.seed))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    # -- traced run ------------------------------------------------------
    def server_spans(self, trace_id: str) -> List[dict]:
        return self.client.trace_spans(trace_id)

    def replay(self, rng, spans: Spans, ops: List[Op]) -> Dict[str, float]:
        cold = [op for op in ops if op.cold and op.name == "load_point"
                and op.error is None]
        hit_key = None
        if cold:
            from repro.lab import Job

            hit_key = Job("load_point", cold[0].spec, cold[0].seed).key
        m = _replay_load_point(LP16_SPEC, rng.randrange(2**31), spans,
                               self.cache, hit_key)
        served = [op for op in cold if "run_s" in op.extra.get("timing", {})]
        if served:
            med = statistics.median_low
            m["serve.submit_ms"] = med(
                [op.extra["submit_s"] * 1e3 for op in served])
            m["serve.queue_wait_s"] = med(
                [op.extra["timing"]["queue_wait_s"] for op in served])
            m["serve.run_s"] = med(
                [op.extra["timing"]["run_s"] for op in served])
            m["serve.overhead_s"] = med(
                [op.latency_s - op.extra["timing"]["run_s"]
                 for op in served])
        return m


# ----------------------------------------------------------------------
# mesh8_saturated
# ----------------------------------------------------------------------
class Mesh8Saturated(Workload):
    """load_point jobs through ``lab.run_jobs``, serial, no cache."""

    name = "mesh8_saturated"
    spec = SATURATED_SPEC
    inputs = 8

    def setup(self, scratch) -> None:
        from repro.lab import NullCache, SerialExecutor

        self.executor = SerialExecutor()
        self.cache = NullCache()

    def round(self, seed: int) -> List[Op]:
        from repro.lab import Job, run_jobs

        op = Op("load_point", cold=True, spec=self.spec, seed=seed)
        job = Job("load_point", self.spec, op.seed)
        self.calibrate()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            batch = run_jobs([job], executor=self.executor, cache=self.cache)
        except Exception as exc:  # noqa: BLE001 — any crash is a failure
            op.error = f"raised {type(exc).__name__}: {exc}"[:160]
        op.latency_s = time.perf_counter() - t0
        op.cpu_s = time.process_time() - cpu0
        if op.error is None:
            op.result = batch.results[0]
            if op.result.get("point") is None:
                op.error = "no packet delivered"
            else:
                op.cycles = self.spec["cycles"]
                op.flits = op.result["point"]["packets"] * PACKET_SIZE
        return [op]

    def output(self, op: Op) -> Any:
        return _point_fields(op.result)

    def reference(self, op: Op) -> Any:
        return _reference_load_point(op.spec, op.seed)

    def replay(self, rng, spans: Spans, ops: List[Op]) -> Dict[str, float]:
        return _replay_load_point(self.spec, rng.randrange(2**31), spans,
                                  self.cache, None)


# ----------------------------------------------------------------------
# flow_d26
# ----------------------------------------------------------------------
def _flow_outputs(front, chosen, netlist, verilog, report) -> dict:
    from repro.lab.records import design_point_to_dict

    return {
        "front": [_digest(design_point_to_dict(p)) for p in front],
        "chosen": _digest(design_point_to_dict(chosen)),
        "netlist": _digest({"netlist": netlist.to_dict(),
                            "verilog": verilog}),
        "verification": {
            "cycles": report.simulated_cycles,
            "delivered_flits": report.delivered_flits,
            "offered_flits": report.offered_flits,
            "mean_latency": report.measured_avg_latency,
        },
    }


class FlowD26(Workload):
    """The Fig. 6 flow on a 26-core synthetic SoC, serial."""

    name = "flow_d26"
    inputs = 8
    sim_timer = "time.process_time (this process, whole flow)"
    verify_cycles = 3000  # NocDesignFlow.run's default

    def setup(self, scratch) -> None:
        from repro.apps.workloads import synthetic_soc
        from repro.core.flow import NocDesignFlow
        from repro.core.spec import CommunicationSpec

        self._soc = synthetic_soc
        self._flow = NocDesignFlow
        self._spec = CommunicationSpec

    def round(self, seed: int) -> List[Op]:
        op = Op("flow", cold=True, seed=seed)
        res = None
        self.calibrate()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            spec = self._spec.from_workload(
                self._soc(FLOW_CORES, seed=op.seed,
                          pipeline_mb_per_s=FLOW_PIPELINE_MB_PER_S))
            res = self._flow(spec).run(frequencies_hz=FLOW_FREQUENCIES_HZ)
        except RuntimeError as exc:
            # The flow's answer for a spec that no design point meets.
            if not str(exc).startswith(INFEASIBLE):
                op.error = f"raised RuntimeError: {exc}"[:160]
        except Exception as exc:  # noqa: BLE001 — any crash is a failure
            op.error = f"raised {type(exc).__name__}: {exc}"[:160]
        op.latency_s = time.perf_counter() - t0
        op.cpu_s = time.process_time() - cpu0
        if op.error is None:
            op.result = NO_DESIGN
            if res is not None:
                op.result = _flow_outputs(res.pareto_front, res.chosen,
                                          res.netlist, res.verilog,
                                          res.verification)
                op.cycles = res.verification.simulated_cycles
                op.flits = res.verification.delivered_flits
        return [op]

    def _reference(self, seed: int) -> dict:
        """The flow recomputed stage by stage, simulating on the
        reference kernel (the only kernel-dependent stage)."""
        from repro.arch.parameters import NocParameters
        from repro.core.netlist import generate_netlist, to_verilog
        from repro.core.pareto import knee_point
        from repro.core.simgen import generate_simulation_model
        from repro.core.verification import VerificationReport

        spec = self._spec.from_workload(self._soc(
            FLOW_CORES, seed=seed, pipeline_mb_per_s=FLOW_PIPELINE_MB_PER_S))
        sweep = self._flow(spec).explorer.explore(
            frequencies_hz=FLOW_FREQUENCIES_HZ)
        if not sweep.front:
            return NO_DESIGN
        chosen = knee_point(sweep.front)
        params = NocParameters(flit_width=chosen.flit_width)
        netlist = generate_netlist(chosen.topology, chosen.routing_table,
                                   params)
        model = generate_simulation_model(chosen, spec, params)
        model.simulator.kernel = "reference"
        stats = model.run(self.verify_cycles, drain=True)
        report = VerificationReport(
            passed=True,
            simulated_cycles=self.verify_cycles,
            delivered_flits=stats.flits_delivered,
            offered_flits=model.traffic.packets_offered * PACKET_SIZE,
            measured_avg_latency=(stats.latency().mean
                                  if stats.packets_delivered else None),
        )
        return _flow_outputs(sweep.front, chosen, netlist,
                             to_verilog(netlist), report)

    def reference(self, op: Op) -> Any:
        return self._reference(op.seed)

    def replay(self, rng, spans: Spans, ops: List[Op]) -> Dict[str, float]:
        from repro.arch.parameters import NocParameters
        from repro.core.netlist import generate_netlist, to_verilog
        from repro.core.pareto import knee_point
        from repro.core.simgen import generate_simulation_model
        from repro.core.verification import verify_design

        m: Dict[str, float] = {}
        # A measured operation's SoC that has a design, so every stage
        # of the flow runs.
        seed = next(op.seed for op in ops
                    if op.error is None and op.result["front"])
        with spans.span("replay.flow"):
            with spans.span("core.spec"):
                spec = self._spec.from_workload(self._soc(
                    FLOW_CORES, seed=seed,
                    pipeline_mb_per_s=FLOW_PIPELINE_MB_PER_S))
                flow = self._flow(spec)
            with spans.span("core.explore"):
                sweep = flow.explorer.explore(
                    frequencies_hz=FLOW_FREQUENCIES_HZ)
            m["core.points"] = len(sweep.points)
            m["core.feasible_ratio"] = (
                sum(p.feasible for p in sweep.points) / len(sweep.points))
            with spans.span("core.knee"):
                chosen = knee_point(sweep.front)
            params = NocParameters(flit_width=chosen.flit_width)
            with spans.span("core.netlist"):
                to_verilog(generate_netlist(chosen.topology,
                                            chosen.routing_table, params))
            with spans.span("core.verify"):
                verify_design(chosen, spec, params,
                              sim_cycles=self.verify_cycles)
        m["topology.routes"] = len(chosen.routing_table)
        # The simulation inside verify_design, repeated on its own so
        # the sim layers get their numbers on this workload too.
        with spans.span("sim.construct"):
            model = generate_simulation_model(chosen, spec, params)
        with spans.span("sim.run"):
            model.run(self.verify_cycles, drain=True)
        with spans.span("stats.summary"):
            if model.simulator.stats.packets_delivered:
                model.simulator.stats.latency()
        m.update(_sim_counters(model.simulator))
        m.update(_snapshot_restore(model.simulator, model.traffic, spans))
        m["replay_s"] = spans.duration("replay.flow")
        return m


WORKLOADS = {
    "serve_mesh16": ServeMesh16,
    "mesh8_saturated": Mesh8Saturated,
    "flow_d26": FlowD26,
}
