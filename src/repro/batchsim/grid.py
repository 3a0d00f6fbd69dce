"""Ablation-grid expansion for ``repro sweep --grid``.

A grid axis is one policy knob swept over explicit values
(``nasc=0,2,4``) or an integer range (``nasc=0:8`` or ``pl=2:14:4``);
:func:`expand_grid` crosses the axes into one policy-kwargs dict per
cell, which the fast engine then replays as one lane each.  This is
the Fig. 9-style frontier map: hundreds of (Nasc, PD-bits,
sampling-period) points over a single decoded trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

Number = Union[int, float]


@dataclass(frozen=True)
class GridAxis:
    """One swept policy knob and its values, in sweep order."""

    name: str
    values: Tuple[Number, ...]

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ValueError(f"invalid grid axis name {self.name!r}")
        if not self.values:
            raise ValueError(f"grid axis {self.name!r} has no values")


def _parse_number(text: str, axis: str) -> Number:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"grid axis {axis!r}: {text!r} is not a number"
        ) from None


def parse_grid_axis(text: str) -> GridAxis:
    """Parse one ``--grid`` argument.

    Accepted forms::

        name=v1,v2,v3      explicit values (int or float)
        name=lo:hi         integer range, inclusive, step 1
        name=lo:hi:step    integer range, inclusive, given step
    """
    name, sep, spec = text.partition("=")
    name = name.strip()
    if not sep or not spec:
        raise ValueError(
            f"invalid grid axis {text!r}; expected name=v1,v2,... or "
            f"name=lo:hi[:step]"
        )
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"invalid grid range {text!r}; expected name=lo:hi[:step]"
            )
        try:
            lo, hi = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise ValueError(
                f"grid axis {name!r}: range bounds must be integers"
            ) from None
        if step <= 0:
            raise ValueError(f"grid axis {name!r}: step must be positive")
        if hi < lo:
            raise ValueError(f"grid axis {name!r}: empty range {spec!r}")
        return GridAxis(name, tuple(range(lo, hi + 1, step)))
    values = tuple(
        _parse_number(v.strip(), name) for v in spec.split(",") if v.strip()
    )
    return GridAxis(name, values)


def expand_grid(axes: Sequence[GridAxis]) -> List[Dict[str, Number]]:
    """Cross the axes into one policy-kwargs dict per grid cell.

    The first axis varies slowest (row-major), matching the order the
    axes were given on the command line.
    """
    if not axes:
        return []
    seen = set()
    for axis in axes:
        if axis.name in seen:
            raise ValueError(f"duplicate grid axis {axis.name!r}")
        seen.add(axis.name)
    cells: List[Dict[str, Number]] = [{}]
    for axis in axes:
        cells = [
            {**cell, axis.name: value}
            for cell in cells
            for value in axis.values
        ]
    return cells


def cell_label(kwargs: Dict[str, Number]) -> str:
    """Canonical display label for one grid cell (axis order preserved)."""
    return ",".join(f"{k}={v}" for k, v in kwargs.items())


__all__ = ["GridAxis", "parse_grid_axis", "expand_grid", "cell_label"]
