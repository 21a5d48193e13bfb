"""The benchmark's three workloads, driven through the public API only.

Each workload is a closed loop: one caller per tenant, and the next
request goes out only after the previous reply.  Inputs are evolving file
trees from :class:`repro.workloads.files.FileTreeGenerator`, generated one
version at a time from the run's seed.  Every restored byte is digested
and compared with the tree it came from; every operation that raises or
returns a wrong answer counts as failed.

Each workload also measures, outside its timed loop, the end-to-end
metrics its loop does not produce (see README.md, "Where each number
comes from"), so every run reports the same metric set.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pickle
import queue
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.client.remote import RemoteRepository
from repro.observability import MetricsRegistry
from repro.replication import LocalMirror, ReplicationSession
from repro.repository import LocalRepository
from repro.workloads.files import FileTreeGenerator, FileTreeSpec

from tracer import Tracer

MB = float(1 << 20)
#: Versions the generator may produce; it is lazy, so this only bounds a run.
MAX_VERSIONS = 1_000_000


# ----------------------------------------------------------------------
# Sizes
# ----------------------------------------------------------------------
@dataclass
class Sizes:
    """Input shape and repetition counts of one workload."""

    files: int
    file_mb: float
    edit_rate: float
    churn_rate: float
    setups: int = 3
    retain: int = 4
    #: ingest-steady: cycles always run; exact metrics use exactly these.
    min_cycles: int = 4
    #: restore-aged: versions in the aged repository.
    versions: int = 12
    #: ingest-steady: cold restores from the mirror after the loop.
    mirror_restores: int = 16
    #: restore-aged: deletions timed on the set-up's mirror.
    deletes: int = 6
    #: single-file restores per restore-aged round.
    file_restores: int = 2


SIZES = {
    "ingest-steady": Sizes(files=64, file_mb=0.5, edit_rate=0.01, churn_rate=0.1),
    "restore-aged": Sizes(files=192, file_mb=1 / 16, edit_rate=0.15, churn_rate=0.5),
    "service-mixed": Sizes(files=32, file_mb=0.25, edit_rate=0.05, churn_rate=0.1),
}


def tree_versions(sizes: Sizes, seed: int) -> Iterator[Dict[str, bytes]]:
    """The evolving tree of one tenant, one version per ``next``."""
    spec = FileTreeSpec(
        files=sizes.files,
        mean_file_size=int(sizes.file_mb * MB),
        versions=MAX_VERSIONS,
        edit_rate=sizes.edit_rate,
        churn_rate=sizes.churn_rate,
        seed=seed,
    )
    return FileTreeGenerator(spec).versions()


class Tree:
    """One generated version: file plan, byte blocks and digests."""

    def __init__(self, files: Dict[str, bytes]) -> None:
        self.files = files
        self.names = sorted(files)
        self.plan = [(name, len(files[name])) for name in self.names]
        self.logical = sum(size for _name, size in self.plan)

    def blocks(self) -> List[bytes]:
        return [self.files[name] for name in self.names]

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in self.names:
            h.update(self.files[name])
        return h.hexdigest()

    def file_digest(self, name: str) -> str:
        return hashlib.sha256(self.files[name]).hexdigest()


def consume(restored) -> Tuple[list, str, int]:
    """Drain a ``(plan, data)`` restore; returns plan, SHA-256 and size."""
    plan, data = restored
    h = hashlib.sha256()
    size = 0
    for block in data:
        h.update(block)
        size += len(block)
    return [(rel, int(n)) for rel, n in plan], h.hexdigest(), size


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(path)
        for name in names
    )


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: List[float]) -> float:
    """The highest order statistic with at least ten samples above it.

    Below 21 samples that statistic would lie under the median, so the
    median is reported instead: the run is too short to resolve a tail.
    The sample count is printed beside the metric.
    """
    ordered = sorted(values)
    if len(ordered) < 21:
        return median(ordered)
    return ordered[-11]


class WrongOutput(Exception):
    """An operation returned, but not what the generated inputs require."""


# ----------------------------------------------------------------------
# Run bookkeeping
# ----------------------------------------------------------------------
class Run:
    """Samples, failure counts and the tracer of one benchmark run."""

    def __init__(self, seed: int, seconds: float, trace: bool, workdir: str,
                 sizes: Sizes) -> None:
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes
        self.workdir = workdir
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.values: Dict[str, float] = {}
        #: Container reads billed to the restores (speed_factor's divisor).
        self.container_reads = 0
        self.info: Dict[str, object] = {}
        self.cycles: Dict[bool, List[float]] = {True: [], False: []}
        #: Operation latencies by (name, traced), for the tracing overhead.
        self.op_walls: Dict[Tuple[str, bool], List[float]] = defaultdict(list)
        #: Per-layer values that come from the daemon, not the tracer.
        self.daemon_layers: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    def fresh_dir(self, name: str) -> str:
        path = self.path(name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def fail(self, what: str, exc: BaseException) -> None:
        with self._lock:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def op(self, name: str, fn: Callable, check: Optional[Callable] = None,
           mb: Optional[Callable] = None):
        """Attempt one operation; returns its result, or ``None`` on failure.

        The latency sample (and ``mb(result)`` under ``<name>_mb``) is kept
        only for a correct result; ``check`` runs after the clock stops.
        Any exception is a failed operation: this loop is the boundary that
        must keep running and count it.
        """
        with self._lock:
            self.attempted += 1
        started = time.perf_counter()
        try:
            result = fn()
            elapsed = time.perf_counter() - started
            if check is not None and not check(result):
                raise WrongOutput(f"{name} returned output that does not match its input")
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.fail(name, exc)
            return None
        with self._lock:
            self.samples[name].append(elapsed)
            self.op_walls[name, self.tracer is not None and self.tracer.active].append(elapsed)
            if mb is not None:
                self.samples[f"{name}_mb"].append(mb(result))
        return result

    @contextmanager
    def cycle(self, index: int) -> Iterator[None]:
        """Time one workload cycle; odd cycles are traced in trace runs.

        Time spent in :meth:`bookkeeping` is not part of the cycle.
        """
        traced = self.tracer is not None and index % 2 == 1
        local = self._local
        local.bookkeeping = 0.0
        if traced:
            self.tracer.begin()
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started - local.bookkeeping
            if traced:
                self.tracer.end()
            with self._lock:
                self.cycles[traced].append(elapsed)

    @contextmanager
    def bookkeeping(self) -> Iterator[None]:
        """Benchmark-side work inside a cycle: no spans, not in its time."""
        traced = self.tracer is not None and self.tracer.active
        if traced:
            self.tracer.end()
        started = time.perf_counter()
        try:
            yield
        finally:
            self._local.bookkeeping = (
                getattr(self._local, "bookkeeping", 0.0) + time.perf_counter() - started)
            if traced:
                self.tracer.resume()

    def deadline(self) -> float:
        return time.perf_counter() + self.seconds

    @staticmethod
    def more(index: int, deadline: float, minimum: int = 2) -> bool:
        """Whether to run cycle ``index``: until the deadline, and at least
        ``minimum`` cycles, so a trace run has a traced and an untraced one."""
        return index < minimum or time.perf_counter() < deadline


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Have orphaned descendants re-parented to this process.

    A daemon's helpers (its multiprocessing resource tracker) outlive the
    daemon by a moment; as their subreaper this process can wait for them
    and reap them instead of leaving them to init.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # orphans then go to init; reap() still waits until they end


def processes() -> Iterator[Tuple[int, int, int, str]]:
    """``(pid, ppid, pgid, state)`` of every process in ``/proc``."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # it ended while the table was read
        yield int(entry), int(fields[1]), int(fields[2]), fields[0]


def reap(match: Callable[[int, int], bool], what: str, grace: float = 10.0) -> None:
    """Wait until no process that ``match(ppid, pgid)`` selects is left.

    The ones that are this process's children are reaped here.  Those
    still running after ``grace`` seconds get SIGKILL.  A zombie with
    another parent has ended; only that parent can reap it.
    """
    me = os.getpid()
    end = time.monotonic() + grace
    killed = False
    while True:
        left = []
        for pid, ppid, pgid, state in processes():
            if pid == me or not match(ppid, pgid):
                continue
            if ppid == me:
                try:
                    if os.waitpid(pid, os.WNOHANG)[0] == pid:
                        continue
                except ChildProcessError:
                    continue  # reaped by its Popen
            elif state == "Z":
                continue
            left.append(pid)
        if not left:
            return
        if time.monotonic() >= end:
            if killed:
                raise RuntimeError(f"{what} outlived SIGKILL: pids {left}")
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
            end = time.monotonic() + grace
        time.sleep(0.01)


def reap_children() -> None:
    """Stop and reap every process still parented here."""
    me = os.getpid()
    reap(lambda ppid, _pgid: ppid == me, "a child of the benchmark")


# ----------------------------------------------------------------------
# The daemon subprocess
# ----------------------------------------------------------------------
class Daemon:
    """``hidestore serve 127.0.0.1:0`` as a subprocess in its own session."""

    def __init__(self, root: str, log_path: str) -> None:
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["repro"].__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "127.0.0.1:0", "--root", root],
            stdout=subprocess.PIPE, stderr=self._log, env=env, start_new_session=True,
        )
        self._lines: "queue.Queue[bytes]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.address = self._await_address(timeout=120.0)

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(b"")

    def _await_address(self, timeout: float) -> str:
        end = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.01, end - time.monotonic()))
            except queue.Empty:
                line = b""
            match = re.search(rb"listening on (\S+)", line)
            if match:
                return match.group(1).decode()
            if not line or time.monotonic() >= end:
                self.kill()
                raise RuntimeError("hidestore serve did not start; see its log")

    def terminate(self) -> None:
        """Send SIGTERM; a thread notes when the daemon has exited."""
        self._signalled = time.perf_counter()
        self._exited: Optional[float] = None
        self._waiter = threading.Thread(target=self._wait_exit, daemon=True)
        self.proc.send_signal(signal.SIGTERM)
        self._waiter.start()

    def _wait_exit(self) -> None:
        self.proc.wait()
        self._exited = time.perf_counter()

    def shutdown_seconds(self, timeout: float = 120.0) -> float:
        """Seconds from :meth:`terminate` to exit; kills a daemon that hangs."""
        self._waiter.join(timeout)
        exited = self._exited
        self.kill()
        if exited is None:
            raise RuntimeError(f"hidestore serve did not exit within {timeout:.0f}s of SIGTERM")
        if self.proc.returncode != 0:
            raise RuntimeError(f"hidestore serve exited with {self.proc.returncode}")
        return exited - self._signalled

    def stop(self) -> float:
        self.terminate()
        return self.shutdown_seconds()

    def kill(self) -> None:
        """SIGKILL the daemon's session if the daemon still runs, then wait
        until every process of the session has ended."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
        group = self.proc.pid
        reap(lambda _ppid, pgid: pgid == group, "a helper of hidestore serve")
        self._reader.join(timeout=10.0)
        self.proc.stdout.close()
        self._log.close()


class ShutdownProbe:
    """``shutdown_s`` for the in-process workloads.

    A daemon serves ``root`` (the workload's repository, or a copy of it)
    and one client leaves an idle pooled connection on ``tenant`` — the
    drain service-mixed measures.
    SIGTERM goes out as the timed loop starts, so the drain (an idle wait)
    overlaps the loop instead of adding to the run's length.
    """

    def __init__(self, run: Run, root: str, tenant: str) -> None:
        self.run = run
        self.daemon = Daemon(root, run.path("daemon-probe.log"))
        self.client = RemoteRepository(self.daemon.address, tenant)
        run.op("versions", self.client.versions, check=lambda rows: len(rows) > 0)

    def start(self) -> None:
        self.daemon.terminate()

    def finish(self) -> None:
        try:
            self.run.values["shutdown_s"] = self.daemon.shutdown_seconds()
        finally:
            self.close()

    def close(self) -> None:
        self.daemon.kill()
        self.client.close()


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """High-water RSS of the reaped children: daemons and their workers."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def hot_tier_info(stats: Dict) -> Dict[str, object]:
    active = stats["containers_active"]
    return {
        "containers_archival": stats["containers_archival"],
        "containers_active": active,
        "containers_over_hot_tier": (stats["containers_archival"] + active) / max(1, active),
    }


def new_sync(source: str, mirror: str) -> Callable:
    """One incremental sync of ``source`` to a local mirror, unjournaled."""
    return ReplicationSession(source, LocalMirror(mirror), journal="").run


def synced(report) -> bool:
    return report.committed


def shipped_mb(report) -> float:
    return report.bytes_shipped / MB


# ----------------------------------------------------------------------
# ingest-steady
# ----------------------------------------------------------------------
def ingest_steady(run: Run) -> None:
    sizes = run.sizes
    for _ in range(sizes.setups):
        work = run.fresh_dir("ingest")
        started = time.perf_counter()
        generator = tree_versions(sizes, run.seed)
        tree = Tree(next(generator))
        repo = LocalRepository(os.path.join(work, "repo"))
        mirror = os.path.join(work, "mirror")
        first = repo.backup_blocks(tree.blocks(), tree.plan, tag="v1")
        new_sync(repo.root, mirror)()
        run.samples["setup"].append(time.perf_counter() - started)
    run.info["input"] = {
        "tenant_mb": tree.logical / MB, "files": sizes.files,
        "edit_rate": sizes.edit_rate, "churn_rate": sizes.churn_rate,
        **hot_tier_info(repo.stats()),
    }

    # The probe daemon hosts a copy: the loop keeps rewriting the original.
    shutil.copytree(repo.root, run.path("probe", "repo"))
    probe = ShutdownProbe(run, run.path("probe"), "repo")
    try:
        ingest_loop(run, generator, repo, mirror, first, tree, probe)
    finally:
        probe.close()


def ingest_loop(run: Run, generator, repo: LocalRepository, mirror: str, first: Dict,
                tree: Tree, probe: ShutdownProbe) -> None:
    sizes = run.sizes
    retained = [(first["version_id"], tree.logical)]
    probe.start()
    deadline = run.deadline()
    index = 0
    while run.more(index, deadline, max(2, sizes.min_cycles)):
        tree = Tree(next(generator))
        with run.cycle(index):
            report = run.op(
                "backup",
                lambda: repo.backup_blocks(tree.blocks(), tree.plan, tag=f"c{index}"),
                check=lambda r: r["logical_bytes"] == tree.logical,
                mb=lambda r: r["logical_bytes"] / MB,
            )
            if report is not None:
                retained.append((report["version_id"], tree.logical))
            run.op("sync", new_sync(repo.root, mirror), check=synced, mb=shipped_mb)
            if len(retained) > sizes.retain:
                oldest = retained[0][0]
                if run.op("delete", repo.delete_oldest,
                          check=lambda r: r["version_id"] == oldest) is not None:
                    retained.pop(0)
        index += 1
        if index == sizes.min_cycles:
            # The exact counts are taken after the same cycles in every run.
            run.values["stored_bytes_per_logical"] = (
                dir_bytes(repo.root) / sum(size for _vid, size in retained)
            )
            run.values["sync_mb_per_version"] = statistics.fmean(run.samples["sync_mb"])

    # After the last sync: cold restores of the newest version from the mirror.
    newest = retained[-1][0]
    rng = random.Random(run.seed)
    for _ in range(sizes.mirror_restores):
        repo = LocalRepository(mirror)
        if run.op("restore", lambda: consume(repo.restore(newest)),
                  check=lambda r: r == (tree.plan, tree.digest(), tree.logical),
                  mb=lambda r: r[2] / MB):
            run.container_reads += repo.stats()["containers_read"]
        rel = rng.choice(tree.names)
        repo = LocalRepository(mirror)
        run.op("file_restore", lambda: consume(repo.restore(newest, file=rel)),
               check=lambda r: r[1] == tree.file_digest(rel))
    run.values["peak_rss_mb"] = self_peak_rss_mb()
    probe.finish()


# ----------------------------------------------------------------------
# restore-aged
# ----------------------------------------------------------------------
def build_aged(workdir: str, sizes: Sizes, seed: int) -> Dict:
    """Set-up of restore-aged; runs in a child process.

    Builds the aged repository ``sizes.setups`` times and keeps the last.
    Every version is backed up and then synced to a mirror; the mirror
    then takes ``deletes`` deletions.  Returns the samples, the
    failure counts and the digests the timed restores are checked against.
    """
    run = Run(seed, 0, False, workdir, sizes)
    for _ in range(sizes.setups):
        work = run.fresh_dir("aged")
        started = time.perf_counter()
        repo = LocalRepository(os.path.join(work, "repo"))
        mirror = os.path.join(work, "mirror")
        generator = tree_versions(sizes, seed)
        versions: Dict[int, Dict] = {}
        for index in range(sizes.versions):
            tree = Tree(next(generator))
            report = run.op(
                "backup",
                lambda: repo.backup_blocks(tree.blocks(), tree.plan, tag=f"v{index}"),
                check=lambda r: r["logical_bytes"] == tree.logical,
                mb=lambda r: r["logical_bytes"] / MB,
            )
            if report is None:
                raise RuntimeError("aged set-up backup failed: " + "; ".join(run.errors))
            versions[report["version_id"]] = {
                "plan": tree.plan, "digest": tree.digest(), "logical": tree.logical,
                "files": {name: tree.file_digest(name) for name in tree.names},
            }
            run.op("sync" if index else "seed_sync", new_sync(repo.root, mirror),
                   check=synced, mb=shipped_mb)
        mirror_repo = LocalRepository(mirror)
        for _ in range(sizes.deletes):
            run.op("delete", mirror_repo.delete_oldest)
        # Algorithm 1 rewrites the chain on the first restore; run it here so
        # every timed round does the same work.
        newest = max(versions)
        run.op("flatten", lambda: consume(LocalRepository(repo.root).restore(newest)),
               check=lambda r: r[1] == versions[newest]["digest"])
        run.samples["setup"].append(time.perf_counter() - started)
    return {
        "samples": dict(run.samples),
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "versions": versions,
        "stats": LocalRepository(repo.root).stats(),
        "root": repo.root,
    }


def build_aged_in_child(run: Run) -> Dict:
    """:func:`build_aged` in a child process, so this process's peak RSS
    belongs to the timed restores alone.

    A plain interpreter rather than a multiprocessing pool: the pool's
    resource tracker would outlive the benchmark.  Arguments and result
    pass through pickle files in the work directory.
    """
    request, reply = run.path("aged-request.pickle"), run.path("aged-reply.pickle")
    with open(request, "wb") as handle:
        pickle.dump((run.workdir, run.sizes, run.seed), handle)
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["repro"].__file__)))
    child = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
             "workloads.build_aged_main(*sys.argv[3:])")
    subprocess.run([sys.executable, "-c", child, here, src, request, reply], check=True)
    with open(reply, "rb") as handle:
        return pickle.load(handle)


def build_aged_main(request: str, reply: str) -> None:
    with open(request, "rb") as handle:
        built = build_aged(*pickle.load(handle))
    with open(reply, "wb") as handle:
        pickle.dump(built, handle)


def restore_aged(run: Run) -> None:
    sizes = run.sizes
    built = build_aged_in_child(run)
    run.attempted += built["attempted"]
    run.failed += built["failed"]
    run.errors.extend(built["errors"])
    for name in ("setup", "backup", "backup_mb", "sync", "sync_mb", "delete"):
        run.samples[name] = built["samples"].get(name, [])
    versions = built["versions"]
    root = built["root"]
    run.info["input"] = {
        "version_mb": statistics.fmean(v["logical"] for v in versions.values()) / MB,
        "versions": len(versions), "files": sizes.files,
        "edit_rate": sizes.edit_rate, "churn_rate": sizes.churn_rate,
        **hot_tier_info(built["stats"]),
    }
    run.values["stored_bytes_per_logical"] = (
        dir_bytes(root) / sum(v["logical"] for v in versions.values())
    )

    probe = ShutdownProbe(run, os.path.dirname(root), "repo")
    try:
        restore_rounds(run, versions, root, probe)
    finally:
        probe.close()


def restore_rounds(run: Run, versions: Dict[int, Dict], root: str,
                   probe: ShutdownProbe) -> None:
    sizes = run.sizes
    ids = sorted(versions)
    targets = [ids[-1], ids[len(ids) // 2], ids[0]]
    # The same files every round, so every round does the same work.
    rng = random.Random(run.seed)
    files = []
    for _ in range(sizes.file_restores):
        vid = rng.choice(ids)
        files.append((vid, rng.choice(sorted(versions[vid]["files"]))))
    probe.start()
    deadline = run.deadline()
    index = 0
    while run.more(index, deadline):
        with run.cycle(index):
            for vid in targets:
                expected = versions[vid]
                repo = LocalRepository(root)
                if run.op("restore", lambda: consume(repo.restore(vid)),
                          check=lambda r: r == (expected["plan"], expected["digest"],
                                                expected["logical"]),
                          mb=lambda r: r[2] / MB):
                    with run.bookkeeping():
                        run.container_reads += repo.stats()["containers_read"]
            for vid, rel in files:
                repo = LocalRepository(root)
                run.op("file_restore", lambda: consume(repo.restore(vid, file=rel)),
                       check=lambda r: r[1] == versions[vid]["files"][rel])
        index += 1
    run.values["peak_rss_mb"] = self_peak_rss_mb()
    probe.finish()


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------
@dataclass
class Tenant:
    """One client thread's tenant: inputs, client, mirror, retained versions."""

    name: str
    generator: Iterator[Dict[str, bytes]]
    client: RemoteRepository
    source: str
    mirror: str
    tree: Optional[Tree] = None
    retained: List[Tuple[int, int]] = field(default_factory=list)
    containers_read: int = 0


#: Per-layer metrics read from the daemon's STATS ``metrics`` section:
#: (metric, histogram or counter name, field).
DAEMON_LAYERS = (
    ("ingest.chunk_s", "ingest.chunk_seconds", "sum"),
    ("ingest.handoff_s", "ingest.handoff_seconds", "sum"),
    ("ingest.segments", "ingest.segments_total", None),
    ("server.backup_s", "server.backup_seconds", "sum"),
    ("server.restore_s", "server.restore_seconds", "sum"),
    ("restore.container_read_s", "restore.container_read_seconds", "sum"),
    ("restore.send_s", "restore.send_seconds", "sum"),
    ("server.errors", "server.errors_total", None),
    ("container.read_s", "store.container_read_seconds", "sum"),
    ("container.reads", "store.container_read_seconds", "count"),
    ("container.write_s", "store.container_write_seconds", "sum"),
    ("container.writes", "store.container_write_seconds", "count"),
)

#: Per-layer metrics read from the clients' own registry.
CLIENT_LAYERS = (
    ("client.credit_stall_s", "client.credit_stall_seconds", "sum"),
    ("client.connect_s", "client.connect_seconds", "sum"),
    ("client.retries", "client.retries_total", None),
)


def snapshot_value(snapshot: Dict, name: str, key: Optional[str]) -> float:
    if key is None:
        return snapshot["counters"].get(name, 0)
    return snapshot["histograms"].get(name, {}).get(key) or 0


def snapshot_delta(before: Dict, after: Dict, table, per: int) -> Dict[str, float]:
    return {
        metric: (snapshot_value(after, name, key) - snapshot_value(before, name, key)) / per
        for metric, name, key in table
    }


def write_phase(run: Run, tenant: Tenant) -> None:
    """Back up the tenant's next version, delete the oldest past retention,
    and sync the tenant's directory to its mirror.

    Retention keeps the loop in a steady state: without it every version
    makes the next flatten, ``versions`` and ``stats`` slower.
    """
    client = tenant.client
    with run.bookkeeping():
        tree = tenant.tree = Tree(next(tenant.generator))
    report = run.op(
        "backup", lambda: client.backup_blocks(tree.blocks(), tree.plan),
        check=lambda r: r["logical_bytes"] == tree.logical,
        mb=lambda r: r["logical_bytes"] / MB,
    )
    if report is not None:
        tenant.retained.append((report["version_id"], tree.logical))
    if len(tenant.retained) > run.sizes.retain:
        oldest = tenant.retained[0][0]
        if run.op("delete", client.delete_oldest,
                  check=lambda r: r["version_id"] == oldest) is not None:
            tenant.retained.pop(0)
    run.op("sync", new_sync(tenant.source, tenant.mirror), check=synced, mb=shipped_mb)


def read_phase(run: Run, tenant: Tenant, index: int) -> None:
    """Restore the newest version and one of its files; ``versions``; ``stats``."""
    client, tree = tenant.client, tenant.tree
    newest = tenant.retained[-1][0]
    run.op("restore", lambda: consume(client.restore(newest)),
           check=lambda r: r == (tree.plan, tree.digest(), tree.logical),
           mb=lambda r: r[2] / MB)
    rel = tree.names[index % len(tree.names)]
    run.op("file_restore", lambda: consume(client.restore(newest, file=rel)),
           check=lambda r: r[1] == tree.file_digest(rel), mb=lambda r: r[2] / MB)
    run.op("versions", client.versions,
           check=lambda rows: [row["version_id"] for row in rows]
           == [vid for vid, _size in tenant.retained])
    stats = run.op("stats", client.stats,
                   check=lambda s: s["versions"] == len(tenant.retained))
    if stats is not None:
        with run.bookkeeping(), run._lock:
            run.container_reads += stats["containers_read"] - tenant.containers_read
            tenant.containers_read = stats["containers_read"]


def lockstep_loop(run: Run, tenants: List[Tenant]) -> None:
    """Each client loops over a write phase and a read phase.

    The clients move in lock-step, half a cycle apart: while one tenant
    writes, the other reads.  Each client's next request still waits for
    its previous reply; the barriers only line the two loops up.  Left
    free, the phase between the loops drifts from run to run and the
    latency medians follow it.
    """
    deadline = run.deadline()
    go: List[bool] = []
    start = threading.Barrier(
        len(tenants), action=lambda: go.append(run.more(len(go), deadline)))
    halfway = threading.Barrier(len(tenants))
    errors: List[BaseException] = []

    def client(offset: int, tenant: Tenant) -> None:
        index = 0
        try:
            while True:
                start.wait(timeout=600)
                if not go[-1]:
                    return
                with run.cycle(index):
                    for half in (0, 1):
                        if half:
                            with run.bookkeeping():
                                halfway.wait(timeout=600)
                        if (half + offset) % 2 == 0:
                            write_phase(run, tenant)
                        else:
                            read_phase(run, tenant, index)
                index += 1
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            errors.append(exc)
            start.abort()
            halfway.abort()

    threads = [threading.Thread(target=client, args=(i, tenant))
               for i, tenant in enumerate(tenants)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def service_mixed(run: Run) -> None:
    sizes = run.sizes
    client_metrics = MetricsRegistry()
    daemon: Optional[Daemon] = None
    tenants: List[Tenant] = []
    try:
        for _ in range(sizes.setups):
            if daemon is not None:
                for tenant in tenants:
                    tenant.client.close()
                daemon.stop()
            droot = run.fresh_dir("daemon")
            mirrors = run.fresh_dir("mirrors")
            started = time.perf_counter()
            daemon = Daemon(droot, run.path("daemon.log"))
            tenants = []
            for i in range(2):
                name = f"tenant{i}"
                tenant = Tenant(
                    name=name,
                    generator=tree_versions(sizes, run.seed * 16 + i),
                    client=RemoteRepository(daemon.address, name, metrics=client_metrics),
                    source=os.path.join(droot, name),
                    mirror=os.path.join(mirrors, name),
                )
                tenants.append(tenant)
                tree = tenant.tree = Tree(next(tenant.generator))
                report = tenant.client.backup_blocks(tree.blocks(), tree.plan)
                tenant.retained.append((report["version_id"], tree.logical))
                new_sync(tenant.source, tenant.mirror)()
            run.samples["setup"].append(time.perf_counter() - started)
        for tenant in tenants:
            tenant.containers_read = tenant.client.stats()["containers_read"]
        before = tenants[0].client.server_stats()["metrics"]
        client_before = client_metrics.snapshot()

        lockstep_loop(run, tenants)

        server = tenants[0].client.server_stats()
        # Counted over the loop only; the checks below run after it.
        iterations = len(run.cycles[True]) + len(run.cycles[False])
        run.daemon_layers = snapshot_delta(before, server["metrics"], DAEMON_LAYERS, iterations)
        run.daemon_layers.update(snapshot_delta(
            client_before, client_metrics.snapshot(), CLIENT_LAYERS, iterations))
        run.info["input"] = {
            "tenant_mb": tenants[0].tree.logical / MB, "tenants": len(tenants),
            "files": sizes.files, "edit_rate": sizes.edit_rate,
            "churn_rate": sizes.churn_rate,
            **hot_tier_info(server["repos"][tenants[0].name]),
        }
        # Every client keeps its pooled connection open while the daemon drains.
        run.values["shutdown_s"] = daemon.stop()
        run.values["peak_rss_mb"] = children_peak_rss_mb()
        run.values["stored_bytes_per_logical"] = dir_bytes(droot) / sum(
            size for tenant in tenants for _vid, size in tenant.retained)
    finally:
        if daemon is not None:
            daemon.kill()
        for tenant in tenants:
            tenant.client.close()


WORKLOADS = {
    "ingest-steady": ingest_steady,
    "restore-aged": restore_aged,
    "service-mixed": service_mixed,
}
