"""Chunking substrate: content-defined chunkers and fingerprinting.

The paper's pipeline starts by splitting the backup stream into variable-size
chunks (4-8 KiB average) and hashing each with SHA-1.  This subpackage
provides the chunkers referenced in the paper — TTTD (used by the prototype),
Rabin CDC, FastCDC and AE — plus fixed-size chunking as a baseline, and the
:class:`~repro.chunking.stream.Chunk` / :class:`~repro.chunking.stream.BackupStream`
types every other layer consumes.
"""

from .ae import AEChunker
from .base import BaseChunker
from .fastcdc import FastCDCChunker
from .fingerprint import DEFAULT_FINGERPRINTER, Fingerprinter, sha1_fingerprint
from .fixed import FixedChunker
from .rabin import RabinChunker
from .stream import (
    BackupStream,
    Chunk,
    LazyBackupStream,
    concat_stream_bytes,
    synthetic_fingerprint,
)
from .tttd import TTTDChunker

__all__ = [
    "AEChunker",
    "BackupStream",
    "BaseChunker",
    "Chunk",
    "DEFAULT_FINGERPRINTER",
    "FastCDCChunker",
    "Fingerprinter",
    "FixedChunker",
    "LazyBackupStream",
    "RabinChunker",
    "TTTDChunker",
    "concat_stream_bytes",
    "sha1_fingerprint",
    "synthetic_fingerprint",
    "make_chunker",
]

_CHUNKERS = {
    "fixed": FixedChunker,
    "rabin": RabinChunker,
    "tttd": TTTDChunker,
    "fastcdc": FastCDCChunker,
    "ae": AEChunker,
}


def make_chunker(name: str, **kwargs) -> BaseChunker:
    """Construct a chunker by name (``fixed``/``rabin``/``tttd``/``fastcdc``/``ae``)."""
    try:
        cls = _CHUNKERS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown chunker {name!r}; choose from {sorted(_CHUNKERS)}"
        ) from None
    return cls(**kwargs)
