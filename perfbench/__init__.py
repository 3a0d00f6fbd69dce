"""Fixed benchmark of the reproduction: three workloads, end-to-end and per-layer metrics."""
