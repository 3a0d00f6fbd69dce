"""Analysis layer: reuse-distance and LRU stack-position profiling,
metrics, CS/CI classing, ASCII table/figure rendering."""

from repro.analysis.classify import (
    MEMORY_ACCESS_RATIO_THRESHOLD,
    Classification,
    classify_all,
    classify_ratio,
    classify_workload,
    ratios_by_app,
)
from repro.analysis.metrics import geometric_mean, normalize, safe_ratio
from repro.analysis.report import (
    ascii_table,
    grouped_bars,
    normalized_summary,
    stacked_percent_rows,
)
from repro.analysis.reuse import (
    RD_LABELS,
    RD_RANGES,
    RddHistogram,
    ReuseProfiler,
    bucket_of,
    rd_of_sequence,
)
from repro.analysis.telemetry import PdSample, PdTracker

__all__ = [
    "ReuseProfiler",
    "RddHistogram",
    "RD_RANGES",
    "RD_LABELS",
    "bucket_of",
    "rd_of_sequence",
    "geometric_mean",
    "normalize",
    "safe_ratio",
    "classify_all",
    "classify_ratio",
    "classify_workload",
    "ratios_by_app",
    "Classification",
    "MEMORY_ACCESS_RATIO_THRESHOLD",
    "ascii_table",
    "grouped_bars",
    "stacked_percent_rows",
    "normalized_summary",
    "PdTracker",
    "PdSample",
]
