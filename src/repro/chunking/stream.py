"""Chunk and backup-stream primitives.

A *chunk* is the unit of deduplication: a (fingerprint, size) pair plus an
optional payload.  Real byte-level backups carry payloads; the simulated
benchmark workloads carry only fingerprints and sizes, which is all every
metric in the paper depends on (dedup ratio, lookups/GB, speed factor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence

from ..errors import ChunkingError
from ..units import FINGERPRINT_SIZE


@dataclass(frozen=True)
class Chunk:
    """One deduplication unit of a backup stream.

    Attributes:
        fingerprint: content digest (SHA-1 in real streams; any unique
            20-byte token in simulated streams).
        size: payload size in bytes.  Always known, even without a payload.
        data: the payload, or ``None`` for metadata-only (simulated) chunks.
    """

    fingerprint: bytes
    size: int
    data: Optional[bytes] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.fingerprint, bytes) or not self.fingerprint:
            raise ChunkingError("chunk fingerprint must be non-empty bytes")
        if self.size <= 0:
            raise ChunkingError(f"chunk size must be positive, got {self.size}")
        if self.data is not None and len(self.data) != self.size:
            raise ChunkingError(
                f"chunk size {self.size} disagrees with payload length {len(self.data)}"
            )

    @property
    def has_data(self) -> bool:
        """Whether the chunk carries a real payload."""
        return self.data is not None

    def drop_data(self) -> "Chunk":
        """Return a metadata-only copy (used when payloads are already stored)."""
        if self.data is None:
            return self
        return Chunk(self.fingerprint, self.size)

    def short_fp(self) -> str:
        """First 8 hex digits of the fingerprint, for logs and errors."""
        return self.fingerprint.hex()[:8]


class BackupStream:
    """A single backup version presented as an ordered sequence of chunks.

    The stream knows its ``tag`` (a caller-chosen label such as ``"v3"``)
    and exposes the aggregate logical size.  It can be iterated repeatedly
    when constructed from a sequence; single-pass iterables are consumed.
    """

    def __init__(self, chunks: Iterable[Chunk], tag: str = "") -> None:
        self._chunks: Sequence[Chunk] = (
            chunks if isinstance(chunks, (list, tuple)) else list(chunks)
        )
        self.tag = tag

    def __iter__(self) -> Iterator[Chunk]:
        return iter(self._chunks)

    def __len__(self) -> int:
        return len(self._chunks)

    def __getitem__(self, idx: int) -> Chunk:
        return self._chunks[idx]

    @property
    def chunks(self) -> Sequence[Chunk]:
        return self._chunks

    @property
    def logical_size(self) -> int:
        """Total pre-deduplication bytes of this version."""
        return sum(c.size for c in self._chunks)

    @property
    def unique_fingerprints(self) -> int:
        """Number of distinct fingerprints within this single version."""
        return len({c.fingerprint for c in self._chunks})

    def fingerprints(self) -> List[bytes]:
        return [c.fingerprint for c in self._chunks]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BackupStream(tag={self.tag!r}, chunks={len(self._chunks)}, "
            f"logical={self.logical_size})"
        )


class LazyBackupStream(BackupStream):
    """A single-pass :class:`BackupStream` over a live chunk iterator.

    Lets a backup consume chunking output as it is produced instead of
    materializing every chunk first.  Iterating twice (or asking for
    ``len``/``chunks`` after iteration started) is a programming error and
    raises, rather than silently yielding nothing.
    """

    def __init__(self, chunks: Iterator[Chunk], tag: str = "") -> None:
        self._iterator = chunks
        self._consumed = False
        self.tag = tag

    def __iter__(self) -> Iterator[Chunk]:
        if self._consumed:
            raise RuntimeError("LazyBackupStream can only be iterated once")
        self._consumed = True
        return self._iterator

    def _materialized(self):
        raise RuntimeError(
            "LazyBackupStream is single-pass; build a BackupStream from a "
            "chunk list when random access or re-iteration is needed"
        )

    def __len__(self) -> int:
        # TypeError, not RuntimeError: list(stream) probes len() for a size
        # hint and only a TypeError tells it "no length" instead of failing.
        raise TypeError(
            "LazyBackupStream is single-pass and has no length; build a "
            "BackupStream from a chunk list for a sized stream"
        )

    def __getitem__(self, idx: int) -> Chunk:
        self._materialized()

    @property
    def chunks(self):
        self._materialized()


def _mix64(value: int) -> int:
    """splitmix64 finalizer: a cheap, high-quality 64-bit mixer."""
    z = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def synthetic_fingerprint(token: int) -> bytes:
    """Map an integer chunk identity onto a deterministic 20-byte fingerprint.

    Simulated workloads name chunks with integers.  The leading 16 bytes are
    a mixed (uniformly distributed) image of the token so that everything a
    real SHA-1 digest's uniformity is relied on for — min-hash similarity
    sampling (SiLo), hook sampling (Sparse Indexing), Bloom-filter hashing —
    behaves as with real digests.  The trailing 4 bytes carry the raw token,
    so distinct tokens can never collide.
    """
    if token < 0:
        raise ChunkingError("synthetic chunk tokens must be non-negative")
    if token >= 1 << 32:
        raise ChunkingError("synthetic chunk tokens must fit in 32 bits")
    head = _mix64(token).to_bytes(8, "big") + _mix64(token ^ 0x5DEECE66D).to_bytes(8, "big")
    return head + token.to_bytes(FINGERPRINT_SIZE - 16, "big")


def concat_stream_bytes(stream: Iterable[Chunk]) -> bytes:
    """Concatenate payloads of a byte-carrying stream (test/verification aid)."""
    parts = []
    for chunk in stream:
        if chunk.data is None:
            raise ChunkingError(
                f"chunk {chunk.short_fp()} carries no payload; cannot concatenate"
            )
        parts.append(chunk.data)
    return b"".join(parts)
