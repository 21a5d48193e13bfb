"""HiDeStore benchmark: one command, three workloads, end-to-end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload ingest-steady --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with layer spans on alternate cycles
and prints every per-layer metric instead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def end_to_end(run) -> dict:
    """``{name: (value, unit, samples)}`` for every end-to-end metric."""
    from workloads import median, tail

    s, v = run.samples, run.values

    def rate(name: str) -> float:
        return sum(s[f"{name}_mb"]) / sum(s[name]) if s[name] else 0.0

    return {
        "setup_s": (median(s["setup"]), "s", len(s["setup"])),
        "backup_mb_s": (rate("backup"), "MB/s", len(s["backup"])),
        "backup_p50_s": (median(s["backup"]), "s", len(s["backup"])),
        "backup_tail_s": (tail(s["backup"]), "s", len(s["backup"])),
        "restore_mb_s": (rate("restore"), "MB/s", len(s["restore"])),
        "restore_p50_s": (median(s["restore"]), "s", len(s["restore"])),
        "restore_tail_s": (tail(s["restore"]), "s", len(s["restore"])),
        "file_restore_p50_s": (median(s["file_restore"]), "s", len(s["file_restore"])),
        "speed_factor": ((sum(s["restore_mb"]) + sum(s["file_restore_mb"]))
                         / max(1, run.container_reads), "MB/read",
                         run.container_reads),
        "sync_mb_per_version": (
            v.get("sync_mb_per_version", statistics.fmean(s["sync_mb"] or [0.0])),
            "MB", len(s["sync_mb"]),
        ),
        "sync_p50_s": (median(s["sync"]), "s", len(s["sync"])),
        "delete_p50_s": (median(s["delete"]), "s", len(s["delete"])),
        "stored_bytes_per_logical": (v["stored_bytes_per_logical"], "ratio", 1),
        "shutdown_s": (v["shutdown_s"], "s", 1),
        "peak_rss_mb": (v["peak_rss_mb"], "MB", 1),
        "success_ratio": (1.0 - run.failed / max(1, run.attempted), "ratio", run.attempted),
    }


#: Per-layer seconds: metric -> tracer layer whose self time it reports.
LAYER_SECONDS = {
    "chunking.s": "chunking",
    "fingerprint.s": "fingerprint",
    "core.backup_self_s": "core.backup",
    "core.maintenance_s": "core.maintenance",
    "checkpoint.encode_s": "checkpoint.encode",
    "checkpoint.write_s": "checkpoint.write",
    "checkpoint.load_s": "checkpoint.load",
    "recipe.flatten_s": "recipe.flatten",
    "recipe.read_s": "recipe.read",
    "recipe.write_s": "recipe.write",
    "container.write_s": "container.write",
    "container.read_s": "container.read",
    "repository.backup_self_s": "repository.backup",
    "repository.restore_self_s": "repository.restore",
    "repository.delete_self_s": "repository.delete",
    "restore.stream_self_s": "restore.stream",
    "deletion.s": "deletion",
    "replication.capture_s": "replication.capture",
    "replication.plan_s": "replication.plan",
    "replication.ship_s": "replication.ship",
    "client.request_s": "client.request",
}

#: Per-layer counts kept by the tracer, with their units.
LAYER_COUNTS = {
    "chunking.mb": "MB",
    "chunking.chunks": "count",
    "core.unique_chunks": "count",
    "recipe.bytes_written": "B",
    "container.reads": "count",
    "container.writes": "count",
    "storage.put_bytes.container": "B",
    "storage.put_bytes.manifest": "B",
    "storage.put_bytes.checkpoint": "B",
    "storage.put_count": "count",
    "storage.get_bytes.container": "B",
    "storage.get_bytes.manifest": "B",
    "storage.get_bytes.checkpoint": "B",
    "storage.get_count": "count",
    "restore.mb": "MB",
    "deletion.containers_deleted": "count",
    "replication.bytes_shipped": "B",
    "replication.containers_shipped": "count",
    "replication.containers_skipped": "count",
}

#: Per-layer values the daemon and client registries report, with units.
REGISTRY_UNITS = {
    "ingest.chunk_s": "s",
    "ingest.handoff_s": "s",
    "ingest.segments": "count",
    "server.backup_s": "s",
    "server.restore_s": "s",
    "restore.container_read_s": "s",
    "restore.send_s": "s",
    "server.errors": "count",
    "client.credit_stall_s": "s",
    "client.connect_s": "s",
    "client.retries": "count",
}


def tracing_overhead(run) -> float:
    """Traced minus untraced wall time per cycle, compared op by op.

    Cycles differ in what they contain (the first ones of ingest-steady
    delete nothing), so each operation kind's median traced latency is
    compared with its median untraced latency and weighted by how often
    it runs in a traced cycle.
    """
    from workloads import median

    cycles = max(1, len(run.cycles[True]))
    overhead = 0.0
    for (name, traced), walls in run.op_walls.items():
        untraced = run.op_walls.get((name, False))
        if traced and untraced:
            overhead += (median(walls) - median(untraced)) * len(walls) / cycles
    return overhead


def per_layer(run) -> dict:
    """``{name: (value, unit, samples)}`` for every per-layer metric.

    Values are means per traced cycle (one version on ingest-steady, one
    restore round on restore-aged, one client iteration on service-mixed).
    Daemon and client registry values are means over all cycles.
    """
    from workloads import median

    tracer = run.tracer
    traced, untraced = run.cycles[True], run.cycles[False]
    n = max(1, len(traced))
    out = {}
    for metric, layer in LAYER_SECONDS.items():
        out[metric] = (tracer.self_s.get(layer, 0.0) / n, "s", len(traced))
    for metric, unit in LAYER_COUNTS.items():
        out[metric] = (tracer.counts.get(metric, 0.0) / n, unit, len(traced))
    for metric, unit in REGISTRY_UNITS.items():
        out[metric] = (run.daemon_layers.get(metric, 0.0), unit,
                       len(traced) + len(untraced))
    # Layers that live inside the daemon on service-mixed are read from
    # its STATS rather than from in-process spans.
    for metric in ("container.read_s", "container.write_s", "container.reads",
                   "container.writes"):
        if metric in run.daemon_layers:
            out[metric] = (run.daemon_layers[metric], out[metric][1],
                           len(traced) + len(untraced))
    total = tracer.counts.get("core.total_chunks", 0.0)
    out["core.dedup_hit_ratio"] = (
        tracer.counts.get("core.duplicate_chunks", 0.0) / total if total else 0.0,
        "ratio", len(traced),
    )
    out["checkpoint.bytes"] = (
        (tracer.counts.get("storage.put_bytes.checkpoint", 0.0)
         + tracer.counts.get("storage.get_bytes.checkpoint", 0.0)) / n,
        "B", len(traced),
    )
    out["unaccounted_s"] = ((sum(traced) - tracer.top_s) / n, "s", len(traced))
    out["trace.cycle_s"] = (median(traced), "s", len(traced))
    out["trace.overhead_s"] = (tracing_overhead(run), "s", len(untraced))
    out["trace.cycles"] = (len(traced), "count", len(traced))
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str,
            sizes=None):
    """Run one workload in ``workdir``; returns the run and its metrics."""
    from workloads import SIZES, WORKLOADS, Run

    run = Run(seed, seconds, trace, workdir, sizes or SIZES[workload])
    if run.tracer is not None:
        run.tracer.install()
    try:
        WORKLOADS[workload](run)
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()
    return run, per_layer(run) if trace else end_to_end(run)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest-steady", "restore-aged", "service-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no HiDeStore sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import become_subreaper, reap_children

    # SIGTERM unwinds like an exception, so every daemon is still stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    become_subreaper()
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        run, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                               workdir)
    except Exception as exc:  # noqa: BLE001 - a set-up failure ends the run
        traceback.print_exc()
        print(f"perfbench: {args.workload} could not run: {exc}", file=sys.stderr)
        return 1
    finally:
        reap_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        **run.info,
    }
    print("context " + json.dumps(context, sort_keys=True))
    for error in run.errors:
        print("error " + error)
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit:8s} n={samples}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _samples) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
