"""Shared fixtures for the test suite."""

from __future__ import annotations

import signal

import pytest

from repro.cache.tagarray import CacheGeometry
from repro.gpu.config import GPUConfig, L1DConfig


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json from the current simulator "
             "instead of comparing against them",
    )
    parser.addoption(
        "--update-corpus",
        action="store_true",
        default=False,
        help="rewrite tests/fuzz/corpus.json from the current simulator "
             "instead of comparing against it",
    )


@pytest.fixture
def deadline():
    """Fail the test after 10 s instead of hanging the suite: for cases
    whose bug was an endless loop (pytest-timeout is not a dependency)."""

    def expire(signum, frame):
        raise TimeoutError("test did not finish within its 10 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def update_golden(request) -> bool:
    return request.config.getoption("--update-golden")


@pytest.fixture
def update_corpus(request) -> bool:
    return request.config.getoption("--update-corpus")


@pytest.fixture
def baseline_geometry() -> CacheGeometry:
    """Table 1 L1D: 32 sets x 4 ways x 128 B, hashed index."""
    return CacheGeometry(num_sets=32, assoc=4, line_size=128, index_fn="hash")


@pytest.fixture
def tiny_geometry() -> CacheGeometry:
    """Small geometry for exhaustive-state tests."""
    return CacheGeometry(num_sets=4, assoc=2, line_size=128, index_fn="linear")


@pytest.fixture
def tiny_config() -> GPUConfig:
    """A one-SM machine with short latencies for fast timing tests."""
    return GPUConfig(
        num_sms=1,
        num_partitions=2,
        max_warps_per_sm=8,
        max_ctas_per_sm=2,
        icnt_latency=4,
        l2_latency=4,
        dram_latency=20,
        dram_service_interval=2,
        l1d=L1DConfig(num_sets=4, assoc=2, mshr_entries=4, mshr_merge=2,
                      miss_queue_depth=2, hit_latency=2),
    )


@pytest.fixture
def small_config() -> GPUConfig:
    """Two SMs, Table-1-shaped caches, short memory latencies."""
    return GPUConfig(
        num_sms=2,
        num_partitions=3,
        icnt_latency=4,
        l2_latency=8,
        dram_latency=40,
        dram_service_interval=2,
    )
