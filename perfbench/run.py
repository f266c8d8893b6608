"""Layered benchmark of the repro NoC stack: one command, three workloads.

    python3 perfbench/run.py --workload serve_mesh16 --seed 7 \\
        --seconds 10 --trace 0

Run from the repository root.  The workload's inputs are generated from
``--seed``; the program receives only those inputs.  A run draws a few
distinct inputs and cycles through them, so each input runs cold several
times across the window.  All load comes from this one process, closed
loop: the next operation goes out only after the previous one has
completed.

``--trace 0`` measures for ``--seconds`` seconds with tracing off and
reports the end-to-end metrics; its bounded times are normalised for the
shared host's speed (see ``calibrate.py``).  ``--trace 1`` measures half the window
untraced, repeats the same rounds with spans on, then replays one
operation split at its layer calls, and reports the per-layer metrics
(see ``README.md`` here).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A longer record
of every run (host stamp, timers, sample counts, self time per layer)
goes to ``.perfbench/`` at the repository root, next to the Perfetto
file of the traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import socket
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from calibrate import Calibration
from workloads import LIMIT_S, WORKLOADS, Spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Set-up is measured in this many fresh interpreters per run.
SETUP_SAMPLES = 7
#: Nearest-rank percentiles tried for a tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10

#: ``ref-s``: host-normalised seconds (see ``calibrate.py``).
END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "ref-s",
    "sim_cycles_per_s": "cycles/ref-CPU-s",
    "flits_per_s": "flits/ref-CPU-s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "serve.submit_ms": "ms",
    "serve.queue_wait_s": "s",
    "serve.run_s": "s",
    "serve.overhead_s": "s",
    "serve.hit_p50_ms": "ms",
    "serve.hit_tail_ms": "ms",
    "lab.key_ms": "ms",
    "lab.cache_get_ms": "ms",
    "lab.cache_put_ms": "ms",
    "lab.result_kb": "kB",
    "topology.build_s": "s",
    "topology.routes": "count",
    "sim.construct_s": "s",
    "sim.lut_entries": "count",
    "sim.setup_share_pct": "%",
    "sim.run_s": "s",
    "sim.run_share_pct": "%",
    "sim.cycles": "cycles",
    "sim.cycles_skipped": "cycles",
    "sim.us_per_cycle": "us",
    "arch.flits_forwarded": "flits",
    "arch.link_flits_carried": "flits",
    "arch.switch_stall_cycles": "cycles",
    "arch.ni_injection_stall_cycles": "cycles",
    "stats.summary_ms": "ms",
    "stats.records": "count",
    "resilience.snapshot_s": "s",
    "resilience.restore_s": "s",
    "resilience.capsule_kb": "kB",
    "resilience.failures": "count",
    "core.explore_s": "s",
    "core.points": "count",
    "core.feasible_ratio": "ratio",
    "core.netlist_s": "s",
    "core.verify_s": "s",
    "obs.trace_overhead_pct": "%",
    "ops.error_rate": "ratio",
}
#: Per-layer times read from span durations: metric -> (span, scale).
SPAN_METRICS = {
    "lab.key_ms": ("lab.key", 1e3),
    "lab.cache_get_ms": ("lab.cache_get", 1e3),
    "lab.cache_put_ms": ("lab.cache_put", 1e3),
    "topology.build_s": ("topology.build", 1.0),
    "sim.construct_s": ("sim.construct", 1.0),
    "sim.run_s": ("sim.run", 1.0),
    "stats.summary_ms": ("stats.summary", 1e3),
    "resilience.snapshot_s": ("resilience.snapshot", 1.0),
    "resilience.restore_s": ("resilience.restore", 1.0),
    "core.explore_s": ("core.explore", 1.0),
    "core.netlist_s": ("core.netlist", 1.0),
    "core.verify_s": ("core.verify", 1.0),
}
TIMERS = {
    "setup_s": "time.perf_counter in the parent, from starting a fresh "
               "interpreter until it reports ready; median of "
               f"{SETUP_SAMPLES}",
    "job_p50_s": "time.perf_counter around each cold operation; the "
                 "mean over each distinct input's repeats, median over "
                 "inputs, times the run's calibration factor",
    "calibration": "time.perf_counter (for real times) and "
                   "time.thread_time (for CPU times) around "
                   "calibrate.kernel, sampled before every cold operation",
    "job_tail_s": "time.perf_counter around each cold operation, every "
                  "repeat",
    "hit_p50_ms": "time.perf_counter around each cache-answered POST",
    "hit_tail_ms": "time.perf_counter around each cache-answered POST",
    "per_layer": "time.monotonic span durations (repro.obs.telemetry)",
}


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------
def job_p50(ops) -> float:
    """Median cold latency over distinct inputs, each input taken as the
    mean of its repeats.

    Every input weighs the same however many times it ran.  The mean,
    not the median, of an input's repeats: when the host switches phase
    partway through a run, a median jumps from one phase's time to the
    other's, while a mean moves with the share of the run each phase
    took.  An input that failed in any repeat ranks as failed, above
    every completed input (see ``ranked``).
    """
    groups = {}
    for op in ops:
        if op.cold:
            groups.setdefault((op.name, op.seed), []).append(op)
    per_input = sorted(
        statistics.fmean(op.latency_s for op in group) if not any(
            op.error for op in group)
        else LIMIT_S + min(op.latency_s for op in group if op.error)
        for group in groups.values())
    return nearest_rank(per_input, 50.0)


def ranked(ops, scale: float = 1.0):
    """Latencies in rank order; failures rank above every completion.

    A failed, refused or mismatched operation missed every limit: it
    takes the value ``LIMIT_S`` plus the time it took to fail, so fixing
    it can only ever read as a speed-up.
    """
    done = sorted(op.latency_s for op in ops if op.error is None)
    failed = sorted(LIMIT_S + op.latency_s for op in ops if op.error)
    return [v * scale for v in done + failed]


def nearest_rank(values, q: float) -> float:
    return values[max(1, math.ceil(q / 100.0 * len(values))) - 1]


def tail(values):
    """(percentile, value, samples beyond): the highest percentile with
    at least ``TAIL_BEYOND`` samples beyond it, else the maximum."""
    n = len(values)
    for q in TAIL_PERCENTILES:
        rank = max(1, math.ceil(q / 100.0 * n))
        if n - rank >= TAIL_BEYOND:
            return q, values[rank - 1], n - rank
    return 100.0, values[-1], 0


# ----------------------------------------------------------------------
# Set-up, measured in fresh interpreters
# ----------------------------------------------------------------------
def setup_probe(workload: str) -> int:
    """Child mode: set up, say ready, wait for the parent, tear down."""
    with started(WORKLOADS[workload]()):
        print("ready", flush=True)
        sys.stdin.readline()
    return 0


def measure_setup(workload: str):
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--setup-probe", workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        samples.append(elapsed)
    return samples


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def input_seeds(wl, rng):
    return [rng.randrange(1, 2**31) for _ in range(wl.inputs)]


def measure(wl, seeds, seconds: float, spans=None, rounds=None):
    """Closed-loop rounds over ``seeds`` in turn: ``rounds`` of them, or
    as many as fit in ``seconds`` (a round starts only if the previous
    one suggests it will end inside the window).  Returns (ops, rounds
    run)."""
    from repro.obs.telemetry import use_tracer

    ops, done = [], 0
    start = time.perf_counter()
    while True:
        seed = seeds[done % len(seeds)]
        t0 = time.perf_counter()
        if spans is None:
            ops += wl.round(seed)
        else:
            with use_tracer(spans.tracer), spans.span(f"round.{wl.name}"):
                ops += wl.round(seed)
        done += 1
        last = time.perf_counter() - t0
        if rounds is None:
            if time.perf_counter() - start + last > seconds:
                return ops, done
        elif done >= rounds:
            return ops, done


def check_against(traced, ops, wl) -> None:
    """Traced operations repeat untraced ones: equal inputs must give
    equal outputs; any without a verified twin meets the reference."""
    twins = {(op.name, op.seed): op.result for op in ops
             if op.cold and op.error is None}
    alone = []
    for op in traced:
        if not op.cold or op.error is not None:
            continue
        if (op.name, op.seed) not in twins:
            alone.append(op)
        elif op.result != twins[op.name, op.seed]:
            op.error = "mismatch with the untraced run"
    wl.verify(alone)


def end_to_end(ops, peak_rss_mb: float, setup_samples, cal: Calibration):
    """The bounded metrics, and the same times raw (not normalised)."""
    cold = ranked([op for op in ops if op.cold])
    q, job_tail, beyond = tail(cold)
    work = [op for op in ops if op.cold and op.error is None and op.cycles]
    cpu = sum(op.cpu_s for op in work)
    raw = {
        "job_p50_raw_s": job_p50(ops),
        "sim_cycles_per_raw_cpu_s":
            sum(op.cycles for op in work) / cpu if cpu else 0.0,
        "flits_per_raw_cpu_s":
            sum(op.flits for op in work) / cpu if cpu else 0.0,
    }
    cpu_factor = cal.cpu_factor()
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "job_p50_s": raw["job_p50_raw_s"] * cal.factor(),
        "sim_cycles_per_s": raw["sim_cycles_per_raw_cpu_s"] / cpu_factor,
        "flits_per_s": raw["flits_per_raw_cpu_s"] / cpu_factor,
        "peak_rss_mb": peak_rss_mb,
    }
    unnormalised = {
        "job_p50_raw_s": (raw["job_p50_raw_s"], "s"),
        "sim_cycles_per_raw_cpu_s":
            (raw["sim_cycles_per_raw_cpu_s"], "cycles/CPU-s"),
        "flits_per_raw_cpu_s": (raw["flits_per_raw_cpu_s"], "flits/CPU-s"),
        "calibration_ms": (cal.mean_s() * 1e3, "ms"),
        "job_tail_s": (job_tail, "s"),
    }
    samples = {
        "setup": len(setup_samples),
        "cold": len(cold),
        "distinct_inputs": len({(op.name, op.seed) for op in ops if op.cold}),
        "job_tail_percentile": q,
        "job_tail_beyond": beyond,
        "sim_work_ops": len(work),
        "calibration": len(cal.samples),
    }
    return metrics, unnormalised, samples


def hit_stats(ops):
    hits = ranked([op for op in ops if op.name == "hit"], 1e3)
    if not hits:
        return {}, {"hits": 0}
    q, value, beyond = tail(hits)
    return ({"hit_p50_ms": nearest_rank(hits, 50.0), "hit_tail_ms": value},
            {"hits": len(hits), "hit_tail_percentile": q,
             "hit_tail_beyond": beyond})


# ----------------------------------------------------------------------
# Traced run: self time and per-layer metrics
# ----------------------------------------------------------------------
def self_times(spans):
    """Seconds per span name not covered by the span's own children."""
    children = {}
    for s in spans:
        children.setdefault(s.get("parent_id"), []).append(s)
    out = {}
    for s in spans:
        start = s["start_unix"]
        end = start + (s["duration_s"] or 0.0)
        covered, cursor = 0.0, start
        for c in sorted(children.get(s["span_id"], ()),
                        key=lambda c: c["start_unix"]):
            c0 = max(c["start_unix"], cursor)
            c1 = min(c["start_unix"] + (c["duration_s"] or 0.0), end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out[s["name"]] = out.get(s["name"], 0.0) + max(
            0.0, (s["duration_s"] or 0.0) - covered)
    return out


def per_layer(layer, spans, untraced_p50, traced_p50, ops):
    m = {name: 0.0 for name in PER_LAYER}
    m.update({k: v for k, v in layer.items() if k in PER_LAYER})
    for metric, (name, scale) in SPAN_METRICS.items():
        m[metric] = spans.duration(name) * scale
    if m["sim.cycles"]:
        m["sim.us_per_cycle"] = m["sim.run_s"] / m["sim.cycles"] * 1e6
    replay_s = layer["replay_s"]
    m["sim.setup_share_pct"] = (
        100.0 * (m["topology.build_s"] + m["sim.construct_s"]) / replay_s)
    m["sim.run_share_pct"] = 100.0 * m["sim.run_s"] / replay_s
    m["obs.trace_overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)
    hits, _ = hit_stats(ops)
    m["serve.hit_p50_ms"] = hits.get("hit_p50_ms", 0.0)
    m["serve.hit_tail_ms"] = hits.get("hit_tail_ms", 0.0)
    m["ops.error_rate"] = sum(1 for op in ops if op.error) / len(ops)
    return m


# ----------------------------------------------------------------------
# Stamp and report
# ----------------------------------------------------------------------
def stamp(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode())
        tree.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": tree.hexdigest(),
        "timers": TIMERS,
    }


@contextmanager
def started(wl):
    """The workload set up in a scratch directory, torn down after."""
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        wl.setup(scratch)
        yield wl
    finally:
        wl.close()
        shutil.rmtree(scratch, ignore_errors=True)


def untraced_run(wl, args):
    """End-to-end metrics: one measured window, then checks and set-up."""
    cal = Calibration()
    with started(wl):
        wl.calibrate = cal.sample
        ops, _ = measure(wl, input_seeds(wl, random.Random(args.seed)),
                         args.seconds)
        peak_rss = wl.peak_rss_mb()
        wl.verify(ops)
    metrics, extra, samples = end_to_end(ops, peak_rss,
                                         measure_setup(args.workload), cal)
    hits, hit_samples = hit_stats(ops)
    extra.update((name, (value, "ms")) for name, value in hits.items())
    extra["error_rate"] = (sum(1 for op in ops if op.error) / len(ops),
                           "ratio")
    record = {
        "samples": {**samples, **hit_samples},
        "extra": {name: value for name, (value, _) in extra.items()},
        "sim_cpu_timer": wl.sim_timer,
        "peak_rss_source": wl.rss_source,
    }
    return ops, metrics, END_TO_END, extra, record


def traced_run(wl, args):
    """Per-layer metrics: half the window untraced, the same rounds
    traced, then one operation replayed layer by layer."""
    from repro.obs.telemetry import spans_to_chrome

    rng = random.Random(args.seed)
    seeds = input_seeds(wl, rng)
    cal, traced_cal = Calibration(), Calibration()
    with started(wl):
        wl.calibrate = cal.sample
        ops, rounds = measure(wl, seeds, args.seconds / 2)
        # The same rounds again, traced, so the two medians differ only
        # by tracing.
        spans = Spans()
        wl.calibrate = traced_cal.sample
        traced, _ = measure(wl, seeds, args.seconds, spans, rounds)
        for trace_id in dict.fromkeys(op.extra.get("trace_id")
                                      for op in traced):
            if trace_id:
                spans.adopt(wl.server_spans(trace_id))
        layer = wl.replay(rng, spans, ops + traced)
        wl.verify(ops)
        check_against(traced, ops, wl)
    untraced_p50 = job_p50(ops) * cal.factor()
    traced_p50 = job_p50(traced) * traced_cal.factor()
    every = ops + traced
    metrics = per_layer(layer, spans, untraced_p50, traced_p50, every)
    chrome = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    chrome.write_text(json.dumps(spans_to_chrome(spans.done)))
    record = {"self_time_s": self_times(spans.done),
              "perfetto": str(chrome.relative_to(ROOT))}
    return every, metrics, PER_LAYER, {}, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=sorted(WORKLOADS),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    if args.workload is None:
        parser.error("--workload is required")

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]()
    run = traced_run if args.trace else untraced_run
    ops, metrics, units, extra, record = run(wl, args)
    failures = {}
    for op in ops:
        if op.error:
            failures[op.error] = failures.get(op.error, 0) + 1
    record.update(
        stamp=stamp(args), metrics=metrics, failures=failures,
        ops=[{"name": op.name, "seed": op.seed, "latency_s": op.latency_s,
              "cpu_s": op.cpu_s, "flits": op.flits, "error": op.error}
             for op in ops if op.cold],
    )
    detail = OUT / (f"result-{args.workload}-seed{args.seed}"
                    f"-trace{args.trace}.json")
    detail.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    st = record["stamp"]
    print(f"# {args.workload} seed={args.seed} host={st['host']} "
          f"nproc={st['nproc']} python={st['python']} "
          f"commit={st['commit'] or 'n/a'} src={st['src_sha256'][:12]}")
    rows = {name: (value, units[name]) for name, value in metrics.items()}
    for name, (value, unit) in {**rows, **extra}.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    if "self_time_s" in record:
        print("self time per span (s):")
        for name, secs in sorted(record["self_time_s"].items(),
                                 key=lambda kv: -kv[1])[:16]:
            print(f"  {name:32s} {secs:10.4f}")
    for reason, count in failures.items():
        print(f"FAILED x{count}: {reason}")
    print(f"# details: {detail.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not any("mismatch" in (op.error or "") for op in ops),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.error),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
