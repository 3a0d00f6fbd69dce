"""Sweep executor unit behaviour (the differential oracle lives in
tests/integration/test_executor_differential.py)."""

from __future__ import annotations

import pytest

from repro.experiments import runner
from repro.experiments.executor import MODE_REPLAY, Cell, SweepExecutor
from repro.experiments.store import MemoryStore, ResultStore


class TestCell:
    def test_make_normalises(self):
        cell = Cell.make("mm", "dlp", num_sms=1, b=2, a=1)
        assert cell.abbr == "MM"
        assert cell.policy_kwargs == (("a", 1), ("b", 2))

    def test_cells_are_hashable_and_comparable(self):
        assert Cell.make("MM", "dlp") == Cell.make("mm", "dlp")
        assert len({Cell.make("MM", "dlp"), Cell.make("MM", "dlp")}) == 1

    def test_resolved_config_defaults_to_harness_machine(self):
        assert Cell.make("MM", "dlp", num_sms=2).resolved_config() == (
            runner.harness_config(2)
        )

    def test_explicit_config_wins(self):
        cfg = runner.harness_config(1).with_l1d(assoc=8)
        cell = Cell.make("MM", "baseline", config=cfg)
        assert cell.resolved_config() is cfg
        assert cell.key() != Cell.make("MM", "baseline").key()


class TestModes:
    def test_each_executor_refuses_the_other_mode(self):
        """A cell's key names its mode's experiment: run on the other
        executor, its result would answer that experiment from the
        store."""
        from repro.trace.sweep import ReplaySweepExecutor

        timing = Cell.make("MM", "dlp", num_sms=1, scale=0.1)
        replay = Cell.make("MM", "dlp", num_sms=1, scale=0.1,
                           mode=MODE_REPLAY)
        store = MemoryStore()
        for executor, cell in ((ReplaySweepExecutor(store=store), timing),
                               (SweepExecutor(store), replay)):
            with pytest.raises(ValueError, match="this executor runs"):
                executor.run_cells([cell])
        assert len(store) == 0


class TestSweepShape:
    def test_run_sweep_nests_by_app_then_scheme(self):
        executor = SweepExecutor(MemoryStore())
        out = executor.run_sweep(
            ["MM", "HS"], ["baseline", "dlp"], num_sms=1, scale=0.1
        )
        assert set(out) == {"MM", "HS"}
        assert set(out["MM"]) == {"baseline", "dlp"}
        assert executor.stats.simulated == 4

    def test_sweep_reuses_store_across_calls(self):
        executor = SweepExecutor(MemoryStore())
        executor.run_sweep(["MM"], ["baseline"], num_sms=1, scale=0.1)
        executor.run_sweep(["MM"], ["baseline"], num_sms=1, scale=0.1)
        assert executor.stats.simulated == 1
        assert executor.stats.store_hits == 1


class TestRunnerWiring:
    def test_run_cell_goes_through_executor_store(self, tmp_path):
        previous = runner.configure(store=str(tmp_path), jobs=1)
        try:
            r1 = runner.run_cell("MM", "baseline", num_sms=1)
            r2 = runner.run_cell("MM", "baseline", num_sms=1)
            executor = runner.get_executor()
            assert isinstance(executor.store, ResultStore)
            assert executor.stats.simulated == 1
            assert executor.stats.store_hits == 1
            assert r1 == r2
        finally:
            runner.set_executor(previous)

    def test_clear_cache_clears_active_store(self):
        previous = runner.set_executor(SweepExecutor(MemoryStore()))
        try:
            runner.run_cell("MM", "baseline", num_sms=1)
            assert len(runner.get_executor().store) == 1
            runner.clear_cache()
            assert len(runner.get_executor().store) == 0
        finally:
            runner.set_executor(previous)

    def test_set_executor_returns_previous(self):
        ex = SweepExecutor(MemoryStore())
        prev = runner.set_executor(ex)
        try:
            assert runner.get_executor() is ex
        finally:
            assert runner.set_executor(prev) is ex


class TestJobs:
    def test_jobs_floor_is_one(self):
        assert SweepExecutor(jobs=0).jobs == 1
        assert SweepExecutor(jobs=-3).jobs == 1

    def test_single_pending_cell_skips_the_pool(self):
        # jobs=2 with one miss must not pay pool startup; behavioural
        # proxy: the result still matches a plain serial run.
        pooled = SweepExecutor(MemoryStore(), jobs=2)
        serial = SweepExecutor(MemoryStore(), jobs=1)
        cell = Cell.make("MM", "baseline", num_sms=1, scale=0.1)
        assert pooled.run_cell(cell) == serial.run_cell(cell)
