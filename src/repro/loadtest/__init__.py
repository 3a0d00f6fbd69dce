"""Load-testing harness for the simulation service (``repro loadtest``).

Drives thousands of concurrent asyncio clients against a running (or
self-hosted) cluster with a zipfian hot/cold cell mix, measures
latency percentiles, throughput, coalescing and throttle rates, and
gates the run on configurable SLOs.
"""

from repro.loadtest.client import (
    AsyncServeClient,
    ConnectionPool,
    LoadClientError,
)
from repro.loadtest.harness import (
    LoadTestConfig,
    LoadTestReport,
    SloConfig,
    run_loadtest,
)
from repro.loadtest.mix import MixConfig, build_population, build_schedule

__all__ = [
    "AsyncServeClient",
    "ConnectionPool",
    "LoadClientError",
    "LoadTestConfig",
    "LoadTestReport",
    "MixConfig",
    "SloConfig",
    "build_population",
    "build_schedule",
    "run_loadtest",
]
