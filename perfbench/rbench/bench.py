"""One benchmark run: set-up, window, correctness check, optional replay.

:func:`run` returns the result object that ``perfbench/run.py`` prints as
its last line.  On the way it prints a readable summary and writes the
run record (and, when traced, the spans) under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy

from repro.exec import bitset

from .loadgen import Window, run_window
from .oracle import Oracle
from .servers import SERVE_ARGS, Fleet
from .stats import latency_summary, percentile
from .tracing import Tracer, count_medians, coverage, layer_medians, layer_table
from .workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: Fleets started per run; ``setup_s`` is the median of their set-up times.
SETUP_RUNS = 3

#: The benchmark's tolerance for ``trace.coverage`` (stage spans / submit).
COVERAGE_TOLERANCE = (0.8, 1.2)

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("success_rate", "ratio"),
    ("schedule_cycles_total", "cycles"),
    ("server_rss_mb", "MiB"),
)

#: Per-layer metrics of the untraced window (stats deltas, counters).
LIVE_LAYERS = (
    ("service.service.result_hit_ratio", "ratio"),
    ("service.service.partition_hit_ratio", "ratio"),
    ("service.service.stage_catalog_ms", "ms"),
    ("service.service.stage_selection_ms", "ms"),
    ("service.service.stage_schedule_ms", "ms"),
    ("service.service.stage_metrics_ms", "ms"),
    ("service.shard.tasks_per_claim", "ratio"),
    ("service.shard.retries", "count"),
    ("service.shard.failovers", "count"),
    ("service.shard.remote_partial_hits", "count"),
    ("loadgen.client_cpu_ms_per_req", "ms"),
)

#: Spans whose median self time per request is reported as ``<span>_ms``.
SPAN_LAYERS = (
    "service.jobs.request_encode",
    "service.jobs.request_decode",
    "service.jobs.result_encode",
    "service.jobs.result_decode",
    "service.service.lookup",
    "dfg.io.digest",
    "dfg.io.partition_digest",
    "exec.classify",
    "exec.merge",
    "dfg.edit.apply",
    "core.selection.select",
    "scheduling.schedule",
    "analysis.metrics",
    "service.service.submit",
    "service.shard.build",
)

#: Client-and-server spans of a warm read (what ``residual_ms`` subtracts).
READ_PATH = (
    "service.jobs.request_encode",
    "service.jobs.request_decode",
    "service.service.lookup",
    "service.jobs.result_encode",
    "service.jobs.result_decode",
)

TRACE_EXTRA = (
    ("service.jobs.result_kb", "KiB"),
    ("dfg.edit.dirty_partitions", "count"),
    ("service.aio.residual_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def per_layer_units() -> list[tuple[str, str]]:
    spans = [(f"{name}_ms", "ms") for name in SPAN_LAYERS]
    return [*LIVE_LAYERS, *spans, *TRACE_EXTRA]


# --------------------------------------------------------------------------- #
# run record fingerprint
# --------------------------------------------------------------------------- #
def source_digest() -> str:
    """SHA-256 over every file under ``src/`` (the code under test)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or ``None`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint(args: argparse.Namespace) -> dict:
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "bitset_availability": bitset.bitset_availability(),
        "bitset_native_active": bitset._native_module() is not None,
        "server_cli": ["python", *SERVE_ARGS],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --------------------------------------------------------------------------- #
# measurement
# --------------------------------------------------------------------------- #
class Phases(dict):
    """Wall seconds of each phase of the run, for the record."""

    def __init__(self) -> None:
        super().__init__()
        self._clock = time.perf_counter()

    def end(self, name: str) -> None:
        now = time.perf_counter()
        self[name] = now - self._clock
        self._clock = now


def class_summaries(window: Window) -> dict:
    out = {}
    for kind in ("read", "build", "edit"):
        values = [s.ms for s in window.samples if s.kind == kind and s.ok]
        if values:
            out[kind] = latency_summary(values)
    return out


def replay_metrics(workload: Workload, read_p50: float | None) -> tuple:
    """Untraced then traced replay; returns (per-layer metrics, tracer)."""
    workload.replay_prepare()
    start = time.perf_counter()
    workload.replay(Tracer(enabled=False))
    untraced_s = time.perf_counter() - start
    workload.replay_prepare()
    tracer = Tracer()
    start = time.perf_counter()
    workload.replay(tracer)
    traced_s = time.perf_counter() - start

    medians = layer_medians(tracer.spans)
    counts = count_medians(tracer.counts)
    metrics = {f"{name}_ms": medians.get(name, 0.0) for name in SPAN_LAYERS}
    for name in ("service.jobs.result_kb", "dfg.edit.dirty_partitions"):
        metrics[name] = counts.get(name, 0.0)
    read_rids = {s.rid for s in tracer.spans if s.rid.startswith("read-")}
    residual = 0.0
    if read_p50 is not None and read_rids:
        read_medians = layer_medians(tracer.spans, read_rids)
        residual = read_p50 - sum(read_medians.get(n, 0.0) for n in READ_PATH)
    metrics["service.aio.residual_ms"] = residual
    cover = coverage(tracer.spans, "service.service.submit", "replay.stages")
    metrics["trace.coverage"] = cover if cover is not None else 0.0
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return metrics, tracer


def run(args: argparse.Namespace) -> dict:
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    record: dict = {"fingerprint": fingerprint(args)}
    phases = Phases()
    setups = []
    for _ in range(SETUP_RUNS - 1):
        with Fleet(workload.servers, str(SRC)) as fleet:
            setups.append(fleet.setup_s)
    fleet = Fleet(workload.servers, str(SRC))
    setups.append(fleet.setup_s)
    phases.end("setup")
    tracer = None
    try:
        workload.attach(fleet)
        workload.prime()
        callers = workload.callers()
        before = workload.stats()
        phases.end("prime")
        window = run_window(callers, args.seconds)
        after = workload.stats()
        rss_mb = fleet.peak_rss_mb()
        phases.end("window")
        oracle = Oracle()
        verified = workload.verify(window, oracle)
        mismatches = oracle.run()
        phases.end("verify")
        summaries = class_summaries(window)
        completed = sum(1 for s in window.samples if s.ok)
        layers = {name: 0.0 for name, _ in LIVE_LAYERS}
        layers.update(workload.layer_metrics(before, after))
        per_req = window.cpu_s * 1e3 / max(1, completed)
        layers["loadgen.client_cpu_ms_per_req"] = per_req
        if args.trace:
            read_p50 = summaries.get("read", {}).get("p50")
            traced, tracer = replay_metrics(workload, read_p50)
            layers.update(traced)
            phases.end("replay")
    finally:
        workload.close()
        fleet.stop()

    attempted = len(window.samples) + verified.attempted
    window_failed = len(window.samples) - completed
    failed = window_failed + verified.failed + len(mismatches)
    primary = [s.ms for s in window.samples if s.kind == workload.primary and s.ok]
    if not primary:
        raise RuntimeError(f"no {workload.primary} request succeeded: {window.errors}")
    e2e = {
        "setup_s": statistics.median(setups),
        "throughput_rps": completed / window.elapsed_s,
        "p50_ms": percentile(primary, 0.5),
        "p90_ms": percentile(primary, 0.9),
        "success_rate": 1.0 - failed / attempted,
        "schedule_cycles_total": verified.cycles,
        "server_rss_mb": rss_mb,
    }
    errors = window.errors[:20] + verified.notes[:20]
    errors += [f"answer differs from serial: {m}" for m in mismatches[:20]]
    record.update(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "end_to_end": e2e,
            "setup_samples_s": setups,
            "classes": summaries,
            "primary_class": workload.primary,
            "window_s": window.elapsed_s,
            "oracle_checked": oracle.checked,
            "errors": errors,
            "per_layer": layers,
            "phases_s": phases,
        }
    )
    if tracer is not None:
        low, high = COVERAGE_TOLERANCE
        cover = layers["trace.coverage"]
        record["coverage_within_tolerance"] = cover == 0.0 or low <= cover <= high
    report(args, record, tracer)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.jsonl")

    if args.trace:
        chosen, units = layers, per_layer_units()
    else:
        chosen, units = e2e, END_TO_END
    return {
        "correct": record["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": chosen[name], "unit": u} for name, u in units},
    }


# --------------------------------------------------------------------------- #
# readable summary
# --------------------------------------------------------------------------- #
def describe_class(kind: str, summary: dict) -> str:
    parts = [f"  {kind:<6} n={summary['n']:<6}"]
    for label in ("p50", "p90", "p99"):
        if summary[f"{label}_ok"]:
            parts.append(f"{kind}_{label}_ms={summary[label]:.3f}")
        else:
            parts.append(f"{kind}_{label}_ms=n/a(<10 beyond)")
    if summary["tail_q"] is not None:
        parts.append(f"(highest: p{summary['tail_q'] * 100:g} {summary['tail']:.3f})")
    return " ".join(parts)


def report(args: argparse.Namespace, record: dict, tracer: Tracer | None) -> None:
    print(
        f"workload {args.workload} seed {args.seed}: "
        f"{record['attempted']} requests, failed {record['failed']}, "
        f"oracle checked {record['oracle_checked']}"
    )
    phases = record["phases_s"]
    print("  phases: " + ", ".join(f"{k} {v:.1f} s" for k, v in phases.items()))
    for kind, summary in record["classes"].items():
        print(describe_class(kind, summary))
    print(f"  (p50_ms and p90_ms below are the {record['primary_class']} class)")
    for name, unit in END_TO_END:
        print(f"  {name} = {record['end_to_end'][name]:.6g} {unit}")
    print(f"  error_rate = {record['failed'] / record['attempted']:.6g} ratio")
    for line in record["errors"]:
        print(f"  error: {line}")
    if tracer is None:
        return
    print(f"  layer table ({args.workload}, self time per request):")
    print(f"    {'layer':<34} {'reqs':>5} {'p50 ms':>9} {'p90 ms':>9} {'share':>6}")
    for name, n, p50, p90, share in layer_table(tracer.spans):
        print(f"    {name:<34} {n:>5} {p50:>9.4f} {p90:>9.4f} {share:>6.1%}")
    for name, unit in per_layer_units():
        print(f"  {name} = {record['per_layer'][name]:.6g} {unit}")
    if not record["coverage_within_tolerance"]:
        low, high = COVERAGE_TOLERANCE
        cover = record["per_layer"]["trace.coverage"]
        print(f"  warning: trace.coverage {cover:.3f} outside {low}-{high}")
