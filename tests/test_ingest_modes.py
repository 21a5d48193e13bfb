"""One chunking contract for every ingest mode.

The same two-version tree is backed up through each way a backup can
enter a repository: the CLI serially and with ``--workers``, the daemon
with and without its shared chunking pool, and a library
:class:`~repro.repository.LocalRepository` that takes both versions
through one instance.  Every mode cuts the byte stream into the same
fixed segments, so the stored recipe and manifest objects must be
byte-identical across modes, every version must restore byte-exact, and
a deep verify must come back clean.
"""

import os
import random

import pytest

from repro.cli import main
from repro.client import RemoteRepository
from repro.repository import LocalRepository, materialize, read_tree
from repro.server import DaemonThread

TAGS = ("v1", "v2")


def _versions():
    """Two versions of a 12-file tree that together span several ingest
    segments; v2 edits, appends to, drops and adds files."""
    rng = random.Random(12)
    v1 = {
        f"d{i % 3}/f{i:02d}.bin": rng.randbytes(rng.randrange(150_000, 700_000))
        for i in range(12)
    }
    v2 = dict(v1)
    edited = bytearray(v2["d0/f03.bin"])
    edited[1000:1100] = rng.randbytes(100)
    v2["d0/f03.bin"] = bytes(edited)
    v2["d1/f07.bin"] += rng.randbytes(40_000)
    del v2["d2/f05.bin"]
    v2["d2/new.bin"] = rng.randbytes(90_000)
    return [v1, v2]


VERSIONS = _versions()


def _write_tree(base, files):
    os.makedirs(base, exist_ok=True)
    for rel, payload in files.items():
        path = os.path.join(base, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(payload)
    return base


def _sources(tmp):
    return [_write_tree(os.path.join(tmp, f"src{i + 1}"), files)
            for i, files in enumerate(VERSIONS)]


def _cli(repo, sources, *flags):
    for source, tag in zip(sources, TAGS):
        assert main(["backup", repo, source, "--tag", tag, *flags]) == 0
    return repo


def _daemon(repo, sources, ingest_workers):
    thread = DaemonThread(repo, ingest_workers=ingest_workers)
    address = thread.start()
    try:
        with RemoteRepository(address, "alpha") as remote:
            for source, tag in zip(sources, TAGS):
                remote.backup_tree(read_tree(source), tag=tag)
    finally:
        thread.stop(drain_timeout=5)
    return os.path.join(repo, "alpha")


def _library(repo, sources):
    local = LocalRepository(repo)
    for source, tag in zip(sources, TAGS):
        local.backup_tree(read_tree(source), tag=tag)
    return repo


MODES = {
    "cli-serial": lambda repo, sources: _cli(repo, sources),
    "cli-workers1": lambda repo, sources: _cli(repo, sources, "--workers", "1"),
    "cli-workers4": lambda repo, sources: _cli(repo, sources, "--workers", "4"),
    "daemon-ingest0": lambda repo, sources: _daemon(repo, sources, 0),
    "daemon-ingest4": lambda repo, sources: _daemon(repo, sources, 4),
    "library": _library,
}


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _objects(root):
    """Every recipe and manifest object of a plain-directory repository."""
    out = {}
    for kind in ("recipes", "manifests"):
        for name in sorted(os.listdir(os.path.join(root, kind))):
            out[f"{kind}/{name}"] = _read(os.path.join(root, kind, name))
    return out


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("reference"))
    root = _cli(os.path.join(tmp, "repo"), _sources(tmp))
    return _objects(root)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_every_ingest_mode_stores_identical_recipes(mode, reference, tmp_path):
    root = MODES[mode](str(tmp_path / "repo"), _sources(str(tmp_path)))

    objects = _objects(root)
    assert sorted(objects) == sorted(reference)
    assert len(objects) == 2 * len(VERSIONS)
    for name in reference:
        assert objects[name] == reference[name], f"{mode}: {name} differs"

    repo = LocalRepository(root)
    for version, files in enumerate(VERSIONS, start=1):
        plan, data = repo.restore(version, verify=True)
        out = str(tmp_path / f"out{version}")
        materialize(plan, data, out)
        restored = {rel: _read(path) for rel, path in read_tree(out)}
        assert restored == files, f"{mode}: version {version} not byte-exact"
    report = repo.verify(deep=True)
    assert report["ok"], report["issues"]
    assert report["versions_checked"] == len(VERSIONS)
