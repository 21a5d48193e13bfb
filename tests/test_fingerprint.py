"""Tests for the fingerprinting layer."""

import hashlib

import pytest

from repro.chunking.fingerprint import (
    DEFAULT_FINGERPRINTER,
    Fingerprinter,
    sha1_fingerprint,
)
from repro.errors import ChunkingError


class TestFingerprinter:
    def test_fingerprinter_is_picklable(self):
        # Chunking-pool workers receive the fingerprinter by pickle.
        import pickle

        fp = Fingerprinter("sha256", width=16)
        clone = pickle.loads(pickle.dumps(fp))
        assert clone.fingerprint(b"abc") == fp.fingerprint(b"abc")

    def test_default_is_sha1_20_bytes(self):
        data = b"hello world"
        assert DEFAULT_FINGERPRINTER.fingerprint(data) == hashlib.sha1(data).digest()

    def test_sha1_helper(self):
        assert sha1_fingerprint(b"x") == hashlib.sha1(b"x").digest()

    def test_md5_pads_to_width(self):
        fp = Fingerprinter("md5").fingerprint(b"abc")
        assert len(fp) == 20
        assert fp[:16] == hashlib.md5(b"abc").digest()
        assert fp[16:] == b"\x00" * 4

    def test_sha256_truncates_to_width(self):
        fp = Fingerprinter("sha256").fingerprint(b"abc")
        assert fp == hashlib.sha256(b"abc").digest()[:20]

    def test_custom_width(self):
        fp = Fingerprinter("sha1", width=8).fingerprint(b"abc")
        assert fp == hashlib.sha1(b"abc").digest()[:8]

    def test_chunk_wraps_payload(self):
        chunk = Fingerprinter().chunk(b"payload")
        assert chunk.size == 7
        assert chunk.data == b"payload"
        assert chunk.fingerprint == hashlib.sha1(b"payload").digest()

    def test_identical_payloads_share_fingerprint(self):
        fp = Fingerprinter()
        assert fp.chunk(b"same").fingerprint == fp.chunk(b"same").fingerprint

    def test_distinct_payloads_differ(self):
        fp = Fingerprinter()
        assert fp.chunk(b"a").fingerprint != fp.chunk(b"b").fingerprint

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ChunkingError):
            Fingerprinter("crc32")

    def test_bad_width_rejected(self):
        with pytest.raises(ChunkingError):
            Fingerprinter("sha1", width=0)
