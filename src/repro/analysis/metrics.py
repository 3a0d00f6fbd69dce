"""Metric helpers shared by the figure drivers.

The paper reports geometric means over application groups (Fig. 10's
G.MEANS bars) and normalizes every quantity to the 16 KB baseline; the
helpers here implement both.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; zero/negative entries are invalid inputs here
    (IPC ratios and traffic ratios are strictly positive)."""
    vals = list(values)
    if not vals:
        raise ValueError("geometric mean of an empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError(f"geometric mean requires positive values, got {vals}")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def normalize(values: Dict[str, float], baseline_key: str) -> Dict[str, float]:
    """Divide every entry by the baseline entry (paper's normalization)."""
    base = values[baseline_key]
    if base == 0:
        raise ZeroDivisionError(f"baseline {baseline_key!r} is zero")
    return {k: v / base for k, v in values.items()}


def safe_ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
