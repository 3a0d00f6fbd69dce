"""Grid expansion and the ``--grid`` frontier-map path."""

from __future__ import annotations

import pytest

from repro.batchsim.grid import (
    GridAxis,
    cell_label,
    expand_grid,
    parse_grid_axis,
)
from repro.trace.sweep import ReplaySweepExecutor

from tests.oracle import assert_results_identical


class TestParseGridAxis:
    def test_explicit_values(self):
        axis = parse_grid_axis("nasc=0,2,4")
        assert axis == GridAxis("nasc", (0, 2, 4))

    def test_float_values(self):
        axis = parse_grid_axis("scale=0.5,1.5")
        assert axis.values == (0.5, 1.5)

    def test_inclusive_range(self):
        assert parse_grid_axis("nasc=0:3").values == (0, 1, 2, 3)

    def test_stepped_range(self):
        assert parse_grid_axis("pd_bits=2:6:2").values == (2, 4, 6)

    @pytest.mark.parametrize("bad", [
        "nasc", "nasc=", "=1,2", "nasc=a,b", "nasc=1:2:0",
        "nasc=5:1", "nasc=1:2:3:4", "nasc=0.5:2", "2bad=1,2",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_grid_axis(bad)


class TestExpandGrid:
    def test_row_major_cross_product(self):
        cells = expand_grid([GridAxis("a", (1, 2)), GridAxis("b", (3, 4))])
        assert cells == [
            {"a": 1, "b": 3}, {"a": 1, "b": 4},
            {"a": 2, "b": 3}, {"a": 2, "b": 4},
        ]

    def test_empty_axes(self):
        assert expand_grid([]) == []

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            expand_grid([GridAxis("a", (1,)), GridAxis("a", (2,))])

    def test_labels_preserve_axis_order(self):
        cells = expand_grid([GridAxis("b", (1,)), GridAxis("a", (2,))])
        assert cell_label(cells[0]) == "b=1,a=2"


class TestRunGrid:
    AXES = [GridAxis("nasc", (0, 2)), GridAxis("pd_bits", (2, 4))]

    def test_grid_identical_across_engines(self):
        reference = ReplaySweepExecutor(engine="reference").run_grid(
            "MM", "dlp", self.AXES, num_sms=2, scale=0.4)
        batch = ReplaySweepExecutor(engine="batch").run_grid(
            "MM", "dlp", self.AXES, num_sms=2, scale=0.4)
        assert list(batch) == list(reference)
        for label in reference:
            assert_results_identical(
                reference[label], batch[label], label=f"grid/{label}")

    def test_grid_points_warm_incrementally(self):
        executor = ReplaySweepExecutor(engine="batch")
        executor.run_grid("MM", "dlp", self.AXES, num_sms=2, scale=0.4)
        assert executor.stats.replayed == 4
        executor.run_grid("MM", "dlp", self.AXES, num_sms=2, scale=0.4)
        assert executor.stats.store_hits == 4
        assert executor.stats.replayed == 4  # nothing re-run
