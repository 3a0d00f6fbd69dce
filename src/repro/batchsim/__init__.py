"""Kernel replay: the packed engine's blocking replay path.

The package decodes and partitions a recorded trace once
(:mod:`repro.batchsim.decode`), then advances any number of
policy/ablation lanes through it with per-policy specialized kernels
(:mod:`repro.batchsim.kernels`), each lane bit-identical to a solo
reference-engine replay.  :mod:`repro.batchsim.engine` exposes
:func:`~repro.batchsim.engine.run_kernels` — how a fresh blocking
``ReplayEngine(..., engine="fast")`` (or its other spelling, ``batch``)
replays — and the multi-lane :func:`~repro.batchsim.engine.replay_batch`
front door; :mod:`repro.batchsim.grid` expands ``--grid`` axes into
lanes.
"""

from repro.batchsim.engine import Lane, replay_batch
from repro.batchsim.grid import GridAxis, cell_label, expand_grid, parse_grid_axis

__all__ = [
    "Lane",
    "replay_batch",
    "GridAxis",
    "parse_grid_axis",
    "expand_grid",
    "cell_label",
]
