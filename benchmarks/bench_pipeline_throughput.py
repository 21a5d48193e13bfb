"""Ingest throughput: serial chunk_stream vs the segmented ingest path (§5.4).

Backs up the same synthetic file-tree versions three ways and compares
wall-clock ingest throughput:

* ``legacy serial`` — the pre-engine path: scalar FastCDC over the
  concatenated stream, chunking strictly before dedup;
* ``w1`` — the inline path of ``LocalRepository.backup_blocks``: the
  stream cut into fixed ingest segments (``iter_segments``), each chunked
  by the vectorized kernel (``chunk_segment``) as HiDeStore consumes it;
* ``w4`` — the same segments chunked on a four-worker
  :class:`~repro.engine.SharedChunkPool` (pool start-up included, as
  ``hidestore backup --workers 4`` pays it), overlapped with
  classification.

``w1`` and ``w4`` store identical recipes by construction; they differ
from the legacy stream only by the cuts forced at segment edges, so the
dedup ratios must agree closely.
"""

import time

from common import CONTAINER, table, write_bench_json
from repro.chunking import FastCDCChunker, Fingerprinter, LazyBackupStream
from repro.engine import SharedChunkPool, chunk_segment, iter_segments
from repro.observability import MetricsRegistry
from repro.pipeline import build_scheme
from repro.units import KiB, MiB
from repro.workloads.files import FileTreeGenerator, FileTreeSpec

SPEC = FileTreeSpec(
    files=8,
    mean_file_size=int(1 * MiB),
    versions=3,
    edit_rate=0.05,
    append_rate=0.3,
    churn_rate=0.1,
    seed=11,
)

#: Paper-shaped chunking scaled to the workload (~2 KiB average).
CHUNKER = dict(min_size=512, avg_size=2048, max_size=16 * KiB)

#: Acceptance floor: four-worker segmented ingest vs the legacy serial path.
MIN_SPEEDUP = 1.5


def _tree_versions():
    return list(FileTreeGenerator(SPEC).versions())


def _items(tree):
    return [tree[name] for name in sorted(tree)]


def _run_legacy(trees):
    system = build_scheme("hidestore", container_size=CONTAINER)
    chunker = FastCDCChunker(**CHUNKER)
    started = time.perf_counter()
    for i, tree in enumerate(trees):
        system.backup(chunker.chunk_stream(_items(tree), tag=f"v{i + 1}"))
    return system.dedup_ratio, time.perf_counter() - started


def _run_segmented(trees, workers):
    system = build_scheme("hidestore", container_size=CONTAINER)
    chunker, fingerprinter = FastCDCChunker(**CHUNKER), Fingerprinter()
    started = time.perf_counter()
    pool = None
    if workers > 1:
        pool = SharedChunkPool(workers, chunker=chunker, metrics=MetricsRegistry())
    try:
        for i, tree in enumerate(trees):
            if pool is not None:
                batches = pool.chunk_blocks(_items(tree))
            else:
                batches = (
                    chunk_segment(chunker, fingerprinter, segment)
                    for segment in iter_segments(_items(tree))
                )
            chunks = (chunk for batch in batches for chunk in batch)
            system.backup(LazyBackupStream(chunks, tag=f"v{i + 1}"))
    finally:
        if pool is not None:
            pool.close()
    return system.dedup_ratio, time.perf_counter() - started


def test_pipeline_ingest_throughput(benchmark):
    trees = _tree_versions()
    logical = sum(len(blob) for tree in trees for blob in tree.values())
    results = {}

    def run_all():
        results["legacy"] = _run_legacy(trees)
        results["w1"] = _run_segmented(trees, workers=1)
        results["w4"] = _run_segmented(trees, workers=4)
        return len(results)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    mbps = {}
    _, base_elapsed = results["legacy"]
    for key, label in (("legacy", "legacy serial"), ("w1", "segmented w=1"),
                       ("w4", "shared pool w=4")):
        ratio, elapsed = results[key]
        mbps[key] = logical / elapsed / MiB
        rows.append(
            [
                label,
                f"{mbps[key]:.1f} MB/s",
                f"{base_elapsed / elapsed:.2f}x",
                f"{ratio:.4f}",
            ]
        )
    table(
        ["ingest path", "throughput", "speedup", "dedup ratio"],
        rows,
        title=f"Segmented ingest — {logical / MiB:.0f} MB logical, {len(trees)} versions",
    )

    # Segment edges force a few extra cuts; dedup must still land in the
    # same ballpark as the legacy concatenated stream.
    legacy_ratio = results["legacy"][0]
    for key in ("w1", "w4"):
        assert abs(results[key][0] - legacy_ratio) < 0.05
    # Any worker count stores the same chunks.
    assert results["w1"][0] == results["w4"][0]

    speedup = base_elapsed / results["w4"][1]
    write_bench_json(
        "ingest_throughput",
        {
            "logical_bytes": logical,
            "versions": len(trees),
            "throughput_mb_s": {k: mbps[k] for k in mbps},
            "speedup_w4": speedup,
            "min_speedup_floor": MIN_SPEEDUP,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"parallel ingest speedup {speedup:.2f}x below the {MIN_SPEEDUP}x floor"
    )
