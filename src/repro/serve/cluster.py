"""``ClusterScheduler``: a second name for the serve scheduler.

The benchmark's serve-warm workload (``perfbench/workloads.py``) builds
its server from ``repro.serve.cluster.ClusterScheduler``.  The benchmark
runs unchanged against every commit it compares, so the name stays
bound here to :class:`repro.serve.scheduler.Scheduler`.
"""

from repro.serve.scheduler import Scheduler as ClusterScheduler

__all__ = ["ClusterScheduler"]
