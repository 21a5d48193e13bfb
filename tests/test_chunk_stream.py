"""Tests for chunk/stream primitives (repro.chunking.stream)."""

import pytest

from repro.chunking.stream import (
    BackupStream,
    Chunk,
    LazyBackupStream,
    concat_stream_bytes,
    synthetic_fingerprint,
)
from repro.errors import ChunkingError
from repro.units import FINGERPRINT_SIZE


class TestChunk:
    def test_basic_construction(self):
        chunk = Chunk(b"\x01" * 20, 4096)
        assert chunk.size == 4096
        assert not chunk.has_data
        assert chunk.data is None

    def test_with_payload(self):
        chunk = Chunk(b"\x02" * 20, 3, b"abc")
        assert chunk.has_data
        assert chunk.data == b"abc"

    def test_payload_length_must_match_size(self):
        with pytest.raises(ChunkingError):
            Chunk(b"\x02" * 20, 4, b"abc")

    def test_rejects_empty_fingerprint(self):
        with pytest.raises(ChunkingError):
            Chunk(b"", 10)

    def test_rejects_non_positive_size(self):
        with pytest.raises(ChunkingError):
            Chunk(b"\x01" * 20, 0)
        with pytest.raises(ChunkingError):
            Chunk(b"\x01" * 20, -5)

    def test_drop_data_strips_payload_only(self):
        chunk = Chunk(b"\x03" * 20, 2, b"hi")
        bare = chunk.drop_data()
        assert bare.data is None
        assert bare.fingerprint == chunk.fingerprint
        assert bare.size == chunk.size

    def test_drop_data_is_noop_without_payload(self):
        chunk = Chunk(b"\x03" * 20, 2)
        assert chunk.drop_data() is chunk

    def test_equality_ignores_payload(self):
        a = Chunk(b"\x04" * 20, 2, b"hi")
        b = Chunk(b"\x04" * 20, 2)
        assert a == b

    def test_short_fp(self):
        chunk = Chunk(b"\xab" * 20, 1)
        assert chunk.short_fp() == "abababab"


class TestSyntheticFingerprint:
    def test_width_matches_sha1(self):
        assert len(synthetic_fingerprint(0)) == FINGERPRINT_SIZE

    def test_distinct_tokens_never_collide(self):
        fps = {synthetic_fingerprint(t) for t in range(5000)}
        assert len(fps) == 5000

    def test_deterministic(self):
        assert synthetic_fingerprint(42) == synthetic_fingerprint(42)

    def test_rejects_negative(self):
        with pytest.raises(ChunkingError):
            synthetic_fingerprint(-1)

    def test_rejects_oversized_token(self):
        with pytest.raises(ChunkingError):
            synthetic_fingerprint(1 << 33)

    def test_leading_bytes_are_well_mixed(self):
        # Sequential tokens must not produce ordered fingerprints — SiLo's
        # min-hash similarity sampling depends on uniformity.
        fps = [synthetic_fingerprint(t) for t in range(1000)]
        assert fps != sorted(fps)
        # First-byte distribution should cover a large share of the space.
        assert len({fp[0] for fp in fps}) > 200


class TestBackupStream:
    def test_iterates_and_indexes(self):
        chunks = [Chunk(synthetic_fingerprint(t), 100) for t in range(5)]
        stream = BackupStream(chunks, tag="v1")
        assert len(stream) == 5
        assert stream[2].fingerprint == synthetic_fingerprint(2)
        assert [c.size for c in stream] == [100] * 5

    def test_logical_size(self):
        stream = BackupStream([Chunk(b"a" * 20, 10), Chunk(b"b" * 20, 30)])
        assert stream.logical_size == 40

    def test_unique_fingerprints_counts_distinct(self):
        fp = synthetic_fingerprint(1)
        stream = BackupStream([Chunk(fp, 1), Chunk(fp, 1), Chunk(b"x" * 20, 1)])
        assert stream.unique_fingerprints == 2

    def test_accepts_generators(self):
        stream = BackupStream(
            (Chunk(synthetic_fingerprint(t), 10) for t in range(3))
        )
        assert len(stream) == 3

    def test_fingerprints_list(self):
        stream = BackupStream([Chunk(synthetic_fingerprint(t), 1) for t in (3, 1)])
        assert stream.fingerprints() == [
            synthetic_fingerprint(3),
            synthetic_fingerprint(1),
        ]


class TestLazyBackupStream:
    def _stream(self, tag=""):
        chunks = iter([Chunk(b"\x05" * 20, 3, b"abc"), Chunk(b"\x06" * 20, 2, b"de")])
        return LazyBackupStream(chunks, tag=tag)

    def test_single_pass(self):
        stream = self._stream(tag="v1")
        assert stream.tag == "v1"
        assert concat_stream_bytes(stream) == b"abcde"
        with pytest.raises(RuntimeError):
            iter(stream)

    def test_has_no_length_or_random_access(self):
        stream = self._stream()
        with pytest.raises(TypeError):
            len(stream)
        with pytest.raises(RuntimeError):
            stream.chunks
        with pytest.raises(RuntimeError):
            stream[0]
        # list() probes len() for a size hint; the TypeError keeps it working.
        assert [c.size for c in stream] == [3, 2]


class TestConcatStreamBytes:
    def test_concatenates_payloads_in_order(self):
        chunks = [Chunk(b"a" * 20, 2, b"he"), Chunk(b"b" * 20, 3, b"llo")]
        assert concat_stream_bytes(chunks) == b"hello"

    def test_raises_on_metadata_only_chunk(self):
        with pytest.raises(ChunkingError):
            concat_stream_bytes([Chunk(b"a" * 20, 2)])
