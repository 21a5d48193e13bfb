"""Parallel backup ingest and restore (the paper's §5.4 made concrete).

The serial systems model *what* HiDeStore stores; this package models
*how fast* it can move bytes.  On ingest, one chunking contract serves
every mode: the byte stream is cut into fixed-size segments
(:func:`iter_segments`) and each segment is chunked + fingerprinted
independently — inline (:func:`chunk_segment`) or on a
:class:`SharedChunkPool` of worker processes — so recipes are
byte-identical at any worker count.  On restore, a prefetching container
reader pool (:func:`restore_stream`) overlaps container I/O with
reassembly.  Filter maintenance stays HiDeStore's own synchronous
``deferred_maintenance`` queue.
"""

from .restore import PipelinedRestoreEngine, execute_plan_prefetched, restore_stream
from .shared_pool import (
    SEGMENT_BYTES,
    IngestPoolError,
    SharedChunkPool,
    chunk_segment,
    iter_segments,
    sweep_orphaned_segments,
)

__all__ = [
    "IngestPoolError",
    "PipelinedRestoreEngine",
    "SEGMENT_BYTES",
    "SharedChunkPool",
    "chunk_segment",
    "execute_plan_prefetched",
    "iter_segments",
    "restore_stream",
    "sweep_orphaned_segments",
]
