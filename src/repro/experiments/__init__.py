"""Experiment layer: runners, the parallel sweep executor with its
content-addressed result store, the functional cache-simulation path and
one driver per paper table/figure (see DESIGN.md's per-experiment index)."""

from repro.experiments import figures
from repro.experiments.cachesim import capacity_sweep, profile_reuse
from repro.experiments.executor import Cell, SweepExecutor
from repro.experiments.runner import (
    FIG10_SCHEMES,
    SCHEME_LABELS,
    TRAFFIC_SCHEMES,
    build_simulator,
    configure,
    get_executor,
    harness_config,
    run_cell,
    run_sweep,
    run_workload,
    set_executor,
)
from repro.experiments.store import (
    SIM_VERSION,
    MemoryStore,
    ResultStore,
    cell_key,
    open_store,
)

__all__ = [
    "figures",
    "run_workload",
    "run_cell",
    "run_sweep",
    "build_simulator",
    "harness_config",
    "configure",
    "get_executor",
    "set_executor",
    "Cell",
    "SweepExecutor",
    "MemoryStore",
    "ResultStore",
    "cell_key",
    "open_store",
    "SIM_VERSION",
    "SCHEME_LABELS",
    "FIG10_SCHEMES",
    "TRAFFIC_SCHEMES",
    "profile_reuse",
    "capacity_sweep",
]
