"""Tests of the benchmark itself: seeding, exact counts, the negative
control and the metric declarations in ``BENCHMARK.json``.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from repro.storage.backend import clear_backend_wrapper, install_backend_wrapper  # noqa: E402

from run import measure  # noqa: E402
from tracer import CountingBackend, Tracer  # noqa: E402
from workloads import Sizes, Tree, tree_versions  # noqa: E402

EXACT = ("sync_mb_per_version", "stored_bytes_per_logical", "speed_factor")


def tiny(**overrides) -> Sizes:
    base = dict(files=6, file_mb=1 / 16, edit_rate=0.15, churn_rate=0.5, setups=1,
                versions=4, min_cycles=2, mirror_restores=1, deletes=1,
                file_restores=1)
    base.update(overrides)
    return Sizes(**base)


def declared(section: str) -> set:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"] for metric in json.load(handle)[section]}


@pytest.fixture(scope="module")
def aged(tmp_path_factory):
    """restore-aged twice with one seed, plus once with another."""
    return [
        measure("restore-aged", seed, 0.1, False,
                str(tmp_path_factory.mktemp(f"aged{i}")), tiny())
        for i, seed in enumerate((5, 5, 6))
    ]


def test_same_seed_same_inputs():
    def digests(seed):
        generator = tree_versions(tiny(), seed)
        return [Tree(next(generator)).digest() for _ in range(3)]

    assert digests(3) == digests(3)
    assert digests(3) != digests(4)


def test_exact_counts_repeat_for_a_seed(aged):
    (run_a, first), (run_b, second), (_run_c, other) = aged
    assert run_a.failed == run_b.failed == 0
    for name in EXACT:
        assert first[name][0] == second[name][0], name
        assert first[name][0] > 0, name
    assert any(first[name][0] != other[name][0] for name in EXACT)


def test_end_to_end_metrics_match_declaration(aged):
    _run, metrics = aged[0]
    assert set(metrics) == declared("end_to_end")
    assert all(value != 0 for value, _unit, _n in metrics.values())


def test_corrupted_restores_raise_error_rate(tmp_path):
    install_backend_wrapper(lambda backend: CountingBackend(backend, Tracer(),
                                                            corrupt_gets=True))
    try:
        run, metrics = measure("restore-aged", 5, 0.1, False, str(tmp_path), tiny())
    finally:
        clear_backend_wrapper()
    assert run.failed > 0
    assert metrics["success_ratio"][0] < 1.0


@pytest.mark.parametrize("workload", ["ingest-steady", "service-mixed"])
def test_traced_run_reports_every_layer(tmp_path, workload):
    run, metrics = measure(workload, 2, 0.1, True, str(tmp_path),
                           tiny(edit_rate=0.05, churn_rate=0.1))
    assert run.failed == 0, run.errors
    assert set(metrics) == declared("per_layer")
    assert metrics["trace.cycles"][0] >= 1
    # Self times add up to the top-level spans; the residual is what is left.
    assert sum(run.tracer.self_s.values()) == pytest.approx(run.tracer.top_s)
    assert metrics["unaccounted_s"][0] >= 0
