#!/usr/bin/env python3
"""Benchmark of the coverideals pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client, closed loop: the next instance is submitted only when
the previous one has returned. No threads. The seed alone determines the
inputs; the library sees only the generated instances. See README.md.

--trace 0 measures the end-to-end metrics: set-up time of a fresh interpreter
importing the package, then S seconds of instances cycling through the
workload's pool, then the heap of a fixed sample of instances under
tracemalloc, then the checks of every output against the oracles.

The cores are shared with other tenants whose bursts slow all work on a core
by up to 1.7x for seconds at a time. Every timing is therefore bracketed by a
fixed calibration kernel and scaled to the speed at which that kernel takes
REFERENCE_KERNEL_S; the unscaled figures are printed alongside.

--trace 1 runs one pass over the pool untraced, then the same pass with every
layer wrapped by tracer.Tracer, and reports the per-layer metrics of the
traced pass, with span times unscaled, and the scaled throughput of both
passes. The pass has a fixed length, so its counters repeat exactly for a
seed. Spans and counters are written to perfbench/out/.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"correct" is false when any output disagrees with the oracles; "failed" also
counts exceptions escaping the library or cli.main and unexpected exit codes.
Both count the timed (or traced) instances only. The workload's probe
instances run once, untimed, after them; their failures are printed, and the
traced run reports their count as outcome.malformed_failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import workloads as wl
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 15
BATCH_S = 0.05
# Best-of-two calibration_kernel time on an idle core of the machine the
# baselines were taken on (2-core x86-64 VM, 2.1 GHz, Python 3.11).
REFERENCE_KERNEL_S = 3.6e-4
IMPORT_LINE = "import coverideals, coverideals.cli"

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ips": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_ratio": "ratio",
    "instance_heap_mb": "MB",
}

def load_library():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "coverideals" / "__init__.py").is_file():
        sys.exit(f"error: no library source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("coverideals")
    importlib.import_module("coverideals.cli")
    if Path(package.__file__).resolve().parent != SRC / "coverideals":
        sys.exit(f"error: imported coverideals from {package.__file__}, not {SRC}")
    return SimpleNamespace(coverideals=package, cli=package.cli)


def measure_setup(repeats: int = SETUP_REPEATS) -> float:
    """Median time of a fresh interpreter importing the package, scaled to
    the reference speed like the instance latencies. The interpreters run
    pinned to one core with this process, so the kernel timings around each
    one see the core it ran on."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", IMPORT_LINE]
    times = []
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        for k in range(repeats + 1):  # the first run writes the bytecode caches
            before = time_kernel()
            start = time.perf_counter()
            subprocess.run(cmd, env=env, check=True, stdin=subprocess.DEVNULL)
            elapsed = time.perf_counter() - start
            if k:
                times.append(elapsed * speed_scale(before, time_kernel()))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.median(times)


def run_timed(workload, lib, inst):
    """(seconds, output) of one instance; an escaped exception is the output."""
    start = time.perf_counter()
    try:
        out = workload.run(lib, inst)
    except Exception as exc:  # an escaped exception is a failed instance
        out = exc
    return time.perf_counter() - start, out


def summarize(workload, out, full):
    """(fingerprint, record) of an output; the record only when `full`."""
    if isinstance(out, Exception):
        failure = ("raise", type(out).__name__)
        return failure, failure
    return workload.summarize(out, full)


def grade(workload, pool, attempts, firsts, unstable):
    """Outcome counts over all attempts, from one check per pool instance."""
    by_id = {inst.id: inst for inst in pool}
    status = {}
    reasons = Counter()
    for ident, rec in firsts.items():
        s, why = workload.check(by_id[ident], rec)
        if ident in unstable:
            s, why = wl.WRONG, "output changed between attempts"
        status[ident] = s
        if s != wl.OK:
            reasons[f"{s}: {why}"] += 1
    counts = Counter(status[i] for i in attempts)
    return counts, reasons


def calibration_kernel():
    """Fixed pure-Python work: tuples from generator expressions, zips,
    comparisons, a set and a sort, like the library's kernel operations."""
    acc = 0
    data = tuple(range(400))
    for r in range(8):
        t = tuple(x ^ r for x in data)
        acc += sum(1 for a, b in zip(t, data) if a <= b)
        acc += len({x & 63 for x in t}) + len(sorted(t, reverse=r & 1))
    return acc


def time_kernel() -> float:
    """Best of two runs of the calibration kernel; the first warms the caches
    the instances before it left cold."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            calibration_kernel()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        gc.enable()


def speed_scale(before: float, after: float) -> float:
    """Factor that converts a time measured between two kernel timings to
    the time it would have taken at the reference speed."""
    return 2 * REFERENCE_KERNEL_S / (before + after)


def timed_loop(workload, lib, pool, seconds, rng):
    """Cycle through the pool, reshuffled each pass, for `seconds`.

    Instances run in batches of at least BATCH_S, each bracketed by the
    calibration kernel, and every latency is scaled by speed_scale of its
    batch. Returns scaled latencies, raw latencies, attempted ids, the first
    record per id, and the ids whose output changed between attempts.
    """
    latencies, raw, attempts = [], [], []
    firsts, fingerprints, unstable = {}, {}, set()
    order: list = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        before = time_kernel()
        batch = []
        while sum(elapsed for _, elapsed, _, _ in batch) < BATCH_S:
            if not order:
                order = list(pool)
                rng.shuffle(order)
            inst = order.pop()
            elapsed, out = run_timed(workload, lib, inst)
            batch.append((inst, elapsed, *summarize(workload, out, inst.id not in firsts)))
        scale = speed_scale(before, time_kernel())
        for inst, elapsed, fingerprint, rec in batch:
            latencies.append(elapsed * scale)
            raw.append(elapsed)
            attempts.append(inst.id)
            if inst.id not in firsts:
                firsts[inst.id], fingerprints[inst.id] = rec, fingerprint
            elif fingerprints[inst.id] != fingerprint:
                unstable.add(inst.id)
    return latencies, raw, attempts, firsts, unstable


def instance_heap_mb(workload, lib, pool) -> float:
    """Mean, over every workload.heap_stride-th pool instance, of the most
    heap the instance holds at once beyond what was allocated before it, by
    tracemalloc. Cyclic garbage is collected before each instance, so none
    left by an earlier one is freed inside the measurement."""
    peaks = []
    tracemalloc.start()
    try:
        for inst in pool[::workload.heap_stride]:
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run_timed(workload, lib, inst)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return statistics.mean(peaks) / 2**20


def probe(workload, lib, workdir):
    """(probe instances, failure reasons) of the workload's probe pool, each
    instance run and checked once outside any timing or tracing."""
    pool = workload.probe_pool(workdir)
    failures = []
    for inst in pool:
        _, out = run_timed(workload, lib, inst)
        status, why = workload.check(inst, summarize(workload, out, True)[1])
        if status != wl.OK:
            failures.append(f"{' '.join(inst.argv[:5])}: {why}")
    return len(pool), failures


def probe_lines(size, failures):
    if not size:
        return []
    lines = [f"  untimed malformed-input probe: {len(failures)} of {size} failed"]
    return lines + [f"    {why}" for why in failures]


def summary_lines(name, seed, counts, attempted, reasons):
    lines = [f"{name} seed {seed}: {attempted} instances attempted"]
    for key in (wl.FAILED, wl.WRONG, wl.UNDECIDED):
        lines.append(f"  {key:<9} {counts[key]:>6}  ({counts[key] / attempted:.4f} of attempts)")
    for reason, n in reasons.most_common(8):
        lines.append(f"    pool instances {n:>4}: {reason}")
    return lines


def end_to_end(workload, lib, seed, seconds):
    setup_s = measure_setup()
    rng = random.Random(f"{workload.name}:{seed}")
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pool = workload.make_pool(rng, workdir)
        run_timed(workload, lib, pool[0])  # warm-up, not counted
        latencies, raw, attempts, firsts, unstable = timed_loop(
            workload, lib, pool, seconds, rng)
        maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        heap_mb = instance_heap_mb(workload, lib, pool)
        counts, reasons = grade(workload, pool, attempts, firsts, unstable)
        probe_size, probe_failures = probe(workload, lib, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(attempts)
    failed = counts[wl.FAILED] + counts[wl.WRONG]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    metrics = {
        "setup_s": setup_s,
        "throughput_ips": attempted / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
        "success_ratio": (attempted - failed) / attempted,
        "instance_heap_mb": heap_mb,
    }
    lines = summary_lines(workload.name, seed, counts, attempted, reasons)
    lines.append(f"  pool {len(pool)} instances, {len(firsts)} reached; latency samples "
                 f"{attempted}, {attempted - int(0.9 * attempted)} beyond p90")
    raw_p90 = statistics.quantiles(raw, n=10, method="inclusive")[8]
    lines.append(f"  unscaled: {attempted / sum(raw):.6g} 1/s, "
                 f"p50 {statistics.median(raw) * 1e3:.6g} ms, p90 {raw_p90 * 1e3:.6g} ms")
    lines.append(f"  failed_ratio {failed / attempted:.4f}  "
                 f"undecided_ratio {counts[wl.UNDECIDED] / attempted:.4f}")
    lines.append(f"  whole-process ru_maxrss after the timed loop {maxrss_mb:.6g} MB")
    lines += probe_lines(probe_size, probe_failures)
    for key, unit in END_TO_END_UNITS.items():
        lines.append(f"  {key:<15} {metrics[key]:.6g} {unit}")
    result = {key: {"value": metrics[key], "unit": unit} for key, unit in END_TO_END_UNITS.items()}
    return counts[wl.WRONG] == 0, attempted, failed, result, lines


def _canonical(obj):
    """Records as JSON-safe values; large ints become hex."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, float)):
        return obj
    if isinstance(obj, int):
        return hex(obj) if obj.bit_length() > 52 else obj
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    return [_canonical(v) for v in obj]


def one_pass(workload, lib, pool, tracer=None):
    """(scaled seconds, fingerprint, record) per instance, in pool order. The
    tracer tags the instance's spans; reading the output is left untagged."""
    results = []
    for inst in pool:
        before = time_kernel()
        if tracer is not None:
            tracer.instance = inst.id
        elapsed, out = run_timed(workload, lib, inst)
        if tracer is not None:
            tracer.instance = None
        scaled = elapsed * speed_scale(before, time_kernel())
        results.append((scaled, *summarize(workload, out, True)))
    return results


def traced_run(workload, lib, seed, limit=None, spans_path=None):
    """One untraced and one traced pass over the first `limit` pool instances."""
    rng = random.Random(f"{workload.name}:{seed}")
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pool = workload.make_pool(rng, workdir)[:limit]
        run_timed(workload, lib, pool[0])  # warm-up, not counted
        untraced = one_pass(workload, lib, pool)
        with Tracer(lib.coverideals) as tracer:
            traced = one_pass(workload, lib, pool, tracer)
        firsts = {inst.id: rec for inst, (_, _, rec) in zip(pool, traced)}
        unstable = {inst.id for inst, a, b in zip(pool, untraced, traced) if a[1] != b[1]}
        counts, reasons = grade(workload, pool, [inst.id for inst in pool], firsts, unstable)
        probe_size, probe_failures = probe(workload, lib, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    digest = hashlib.sha256(json.dumps(_canonical([rec for _, _, rec in traced])).encode()).hexdigest()
    untraced_s = sum(t for t, _, _ in untraced)
    traced_s = sum(t for t, _, _ in traced)
    metrics = tracer.layer_metrics()
    metrics.update({
        "trace.instances": len(pool),
        "trace.spans": sum(span[4] is not None for span in tracer.spans),
        "trace.untraced_ips": len(pool) / untraced_s,
        "trace.traced_ips": len(pool) / traced_s,
        "trace.overhead_ratio": traced_s / untraced_s,
        "outcome.failed": counts[wl.FAILED] + counts[wl.WRONG],
        "outcome.undecided": counts[wl.UNDECIDED],
        "outcome.malformed_failed": len(probe_failures),
    })
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps({
            "workload": workload.name, "seed": seed, "digest": digest,
            "counters": dict(tracer.counters), "metrics": metrics,
            "spans": [[name, start, end, parent, inst]
                      for name, start, end, parent, inst in tracer.spans],
        }))
    return {"metrics": metrics, "counters": dict(tracer.counters), "digest": digest,
            "counts": counts, "reasons": reasons, "pool": pool,
            "probe": (probe_size, probe_failures)}


def per_layer(workload, lib, seed):
    run = traced_run(workload, lib, seed, spans_path=OUT / f"trace-{workload.name}-{seed}.json")
    counts, attempted = run["counts"], len(run["pool"])
    failed = counts[wl.FAILED] + counts[wl.WRONG]
    lines = summary_lines(workload.name, seed, counts, attempted, run["reasons"])
    lines.append(f"  output digest {run['digest']}")
    lines += probe_lines(*run["probe"])
    result = {}
    for key, value in run["metrics"].items():
        unit = ("1/s" if key.endswith("_ips") else "s" if key.endswith((".s", "_s"))
                else "ratio" if key.endswith("_ratio") else "count")
        result[key] = {"value": value, "unit": unit}
        lines.append(f"  {key:<34} {value:.6g} {unit}")
    return counts[wl.WRONG] == 0, attempted, failed, result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    lib = load_library()
    workload = wl.WORKLOADS[args.workload]
    if args.trace:
        correct, attempted, failed, metrics, lines = per_layer(workload, lib, args.seed)
    else:
        correct, attempted, failed, metrics, lines = end_to_end(
            workload, lib, args.seed, args.seconds)
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
