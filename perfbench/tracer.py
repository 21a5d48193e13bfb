"""Layer spans for the traced benchmark run, taken from outside the program.

The program under test is not edited: :class:`Tracer` replaces the public
functions each layer exposes with timing wrappers, set on the module or
class where every caller looks the name up, and restores the originals on
:meth:`Tracer.uninstall`.  Storage bytes are counted by a
``StorageBackend`` wrapper installed through the storage layer's own
``install_backend_wrapper`` seam.

A span belongs to one layer.  Its *self* time is its duration minus the
time its child spans cover, so the self times of all layers plus the
``unaccounted`` residual add up to the traced wall time.  Spans are kept
per thread and only while the thread has called :meth:`Tracer.begin`, so
traced and untraced cycles can alternate (and two client threads can be
traced independently) while the wrappers stay installed.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.chunking.fingerprint import Fingerprinter
from repro.client.remote import RemoteRepository
from repro.core.hidestore import HiDeStore
from repro.core.recipe_chain import RecipeChain
from repro.engine import restore as engine_restore
from repro.engine import shared_pool
from repro.replication import planner as replication_planner
from repro.replication import session as replication_session
from repro.replication import targets as replication_targets
from repro.replication.session import ReplicationSession
from repro import repository as repository_module
from repro.repository import LocalRepository
from repro.storage.backend import clear_backend_wrapper, install_backend_wrapper
from repro.storage.container_store import BackendContainerStore
from repro.storage.recipe import FileRecipeStore
from repro.storage.repo import RepoStorage

MB = float(1 << 20)


def object_kind(name: str) -> str:
    """Repository object kind of a backend object name."""
    base = name.rsplit("/", 1)[-1]
    if base.startswith("container-"):
        return "container"
    if base.startswith("manifest-"):
        return "manifest"
    if base == "checkpoint.json":
        return "checkpoint"
    if base.startswith("recipe-"):
        return "recipe"
    return "other"


class CountingBackend:
    """A pass-through ``StorageBackend`` that counts bytes moved by kind.

    ``corrupt_gets`` flips one byte of every container ``get`` — the
    benchmark's negative control, which must surface as failed restores.
    """

    def __init__(self, inner, tracer: "Tracer", corrupt_gets: bool = False) -> None:
        self.inner = inner
        self.tracer = tracer
        self.corrupt_gets = corrupt_gets

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def put(self, name: str, blob: bytes) -> None:
        self.inner.put(name, blob)
        self.tracer.count_io("put", name, len(blob))

    def put_meta(self, name: str, blob: bytes) -> None:
        self.inner.put_meta(name, blob)
        self.tracer.count_io("put", name, len(blob))

    def get(self, name: str) -> bytes:
        blob = self.inner.get(name)
        self.tracer.count_io("get", name, len(blob))
        if self.corrupt_gets and blob and object_kind(name) == "container":
            blob = blob[:-1] + bytes([blob[-1] ^ 0xFF])
        return blob

    def get_range(self, name: str, offset: int, length: int) -> bytes:
        blob = self.inner.get_range(name, offset, length)
        self.tracer.count_io("get", name, len(blob))
        return blob


class Tracer:
    """Per-layer self time and counts for the traced cycles of a run."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.top_s = 0.0
        self._patched: List[Tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------
    @property
    def active(self) -> bool:
        return getattr(self._local, "on", False)

    def begin(self) -> None:
        """Start tracing the calling thread's next cycle."""
        self._local.on = True
        self._local.stack = []

    def end(self) -> None:
        self._local.on = False

    def resume(self) -> None:
        """Continue a cycle paused with :meth:`end`, keeping its open spans."""
        self._local.on = True

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        if not self.active:
            yield
            return
        stack = self._local.stack
        frame = [layer, 0.0]
        stack.append(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            with self._lock:
                self.self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.top_s += elapsed

    def count(self, name: str, amount: float = 1) -> None:
        if self.active:
            with self._lock:
                self.counts[name] += amount

    def count_io(self, op: str, name: str, size: int) -> None:
        if self.active:
            kind = object_kind(name)
            with self._lock:
                self.counts[f"storage.{op}_bytes.{kind}"] += size
                self.counts[f"storage.{op}_count"] += 1

    def outermost(self, layer: str) -> bool:
        """Whether no enclosing span of this thread belongs to ``layer``."""
        return all(frame[0] != layer for frame in self._local.stack[:-1])

    def iterate(self, layer: str, iterable) -> Iterator:
        """Re-yield ``iterable``, timing each step as a ``layer`` span."""
        iterator = iter(iterable)
        while True:
            with self.span(layer):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item

    # -- patching --------------------------------------------------------
    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _timed(self, layer: str, after=None):
        def make(original):
            def wrapper(*args, **kwargs):
                if not self.active:
                    return original(*args, **kwargs)
                with self.span(layer):
                    result = original(*args, **kwargs)
                    if after is not None:
                        after(result, *args)
                return result

            return wrapper

        return make

    def _streamed(self, layer: str, count_bytes: Optional[str] = None):
        """Wrap a function returning ``(plan, data_iter)`` or an iterator."""

        def make(original):
            def wrapper(*args, **kwargs):
                if not self.active:
                    return original(*args, **kwargs)
                with self.span(layer):
                    result = original(*args, **kwargs)
                if isinstance(result, tuple):
                    plan, data = result
                    return plan, self._counted(count_bytes, self.iterate(layer, data))
                return self.iterate(layer, result)

            return wrapper

        return make

    def _counted(self, name: Optional[str], data) -> Iterator[bytes]:
        for block in data:
            if name is not None:
                self.count(name, len(block) / MB)
            yield block

    def install(self) -> None:
        """Wrap every traced layer function and the storage backends."""
        t = self
        patch = self._patch

        def after_chunking(chunks, _chunker, _fingerprinter, segment):
            t.count("chunking.mb", len(segment) / MB)
            t.count("chunking.chunks", len(chunks))

        def after_backup(report, *_):
            t.count("core.unique_chunks", report.unique_chunks)
            t.count("core.duplicate_chunks", report.duplicate_chunks)
            t.count("core.total_chunks", report.total_chunks)

        def after_recipe_write(_result, store, recipe):
            t.count("recipe.bytes_written", os.path.getsize(store._path(recipe.version_id)))

        def after_container(layer):
            def note(*_):
                if t.outermost(layer):
                    t.count(f"{layer}s")

            return note

        def after_deletion(stats, *_):
            t.count("deletion.containers_deleted", stats.containers_deleted)

        def after_sync(report, *_):
            t.count("replication.bytes_shipped", report.bytes_shipped)
            t.count("replication.containers_shipped", report.containers_shipped)
            t.count("replication.containers_skipped", report.containers_skipped)

        patch(LocalRepository, "backup_blocks", self._timed("repository.backup"))
        patch(LocalRepository, "restore", self._streamed("repository.restore", "restore.mb"))
        patch(LocalRepository, "delete_oldest", self._timed("repository.delete"))
        patch(shared_pool, "chunk_segment", self._timed("chunking", after_chunking))
        patch(Fingerprinter, "chunk", self._timed("fingerprint"))
        patch(HiDeStore, "backup", self._timed("core.backup", after_backup))
        patch(HiDeStore, "_apply_maintenance", self._timed("core.maintenance"))
        patch(HiDeStore, "_compact_and_relocate", self._timed("core.maintenance"))
        patch(HiDeStore, "delete_oldest", self._timed("deletion", after_deletion))
        patch(repository_module, "checkpoint_document", self._timed("checkpoint.encode"))
        patch(RepoStorage, "write_checkpoint_document", self._timed("checkpoint.write"))
        patch(RepoStorage, "read_checkpoint_document", self._timed("checkpoint.load"))
        patch(repository_module, "system_from_document", self._timed("checkpoint.load"))
        patch(RecipeChain, "flatten", self._timed("recipe.flatten"))
        patch(FileRecipeStore, "read", self._timed("recipe.read"))
        patch(FileRecipeStore, "peek", self._timed("recipe.read"))
        patch(FileRecipeStore, "write", self._timed("recipe.write", after_recipe_write))
        patch(BackendContainerStore, "write",
              self._timed("container.write", after_container("container.write")))
        patch(BackendContainerStore, "read",
              self._timed("container.read", after_container("container.read")))
        patch(BackendContainerStore, "read_chunks",
              self._timed("container.read", after_container("container.read")))
        patch(engine_restore, "restore_stream", self._streamed("restore.stream"))
        patch(replication_session, "capture_state", self._timed("replication.capture"))
        patch(replication_targets, "capture_state", self._timed("replication.capture"))
        patch(replication_planner.SyncPlanner, "plan", self._timed("replication.plan"))
        patch(ReplicationSession, "run", self._timed("replication.ship", after_sync))
        for name in ("backup_blocks", "versions", "stats", "delete_oldest"):
            patch(RemoteRepository, name, self._timed("client.request"))
        patch(RemoteRepository, "restore", self._streamed("client.request", "restore.mb"))
        install_backend_wrapper(lambda backend: CountingBackend(backend, t))

    def uninstall(self) -> None:
        clear_backend_wrapper()
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
