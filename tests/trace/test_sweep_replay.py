"""Replay sweep accounting: 1 capture + N replays, asserted on counters.

This is the acceptance test for the record-once / replay-per-scheme
economics: a 4-policy sweep over one app must record exactly one trace
and run exactly four replays (cold), and a warm re-run must resolve
entirely from the result store — proven by store/recorder counters,
never wall clock.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import harness_config
from repro.experiments.store import ResultStore
from repro.trace import RECORDER_STATS, ReplaySweepExecutor, replay_workload
from repro.workloads import make_workload
from tests.oracle import assert_results_identical

SCHEMES = ("baseline", "stall_bypass", "global_protection", "dlp")
SCALE = 0.1


class TestColdEconomics:
    #: The L1D engine every executor here replays with; the subclass
    #: below reruns each test on the fast engine with the same counts.
    engine = "reference"

    @pytest.mark.parametrize("trace_mode", ["disk", "memory"])
    def test_four_policy_sweep_is_one_capture_four_replays(
        self, tmp_path, trace_mode
    ):
        RECORDER_STATS.reset()
        executor = ReplaySweepExecutor(
            trace_dir=tmp_path / "traces" if trace_mode == "disk" else None,
            engine=self.engine,
        )
        executor.run_sweep(["MM"], SCHEMES, num_sms=1, scale=SCALE)

        assert executor.stats.recorded == 1
        assert executor.stats.replayed == 4
        assert executor.stats.store_hits == 0
        assert executor.stats.trace_hits == 3  # schemes 2-4 reuse the trace
        assert RECORDER_STATS.captures == 1   # the stream ran exactly once

    def test_capacity_scheme_shares_the_app_trace(self, tmp_path):
        executor = ReplaySweepExecutor(trace_dir=tmp_path / "traces",
                                       engine=self.engine)
        executor.run_sweep(["MM"], list(SCHEMES) + ["32kb"],
                           num_sms=1, scale=SCALE)
        assert executor.stats.recorded == 1
        assert executor.stats.replayed == 5
        assert executor.stats.trace_hits == 4

    def test_traces_are_per_app(self, tmp_path):
        executor = ReplaySweepExecutor(trace_dir=tmp_path / "traces",
                                       engine=self.engine)
        executor.run_sweep(["MM", "HS"], SCHEMES, num_sms=1, scale=SCALE)
        assert executor.stats.recorded == 2
        assert executor.stats.replayed == 8
        assert executor.stats.trace_hits == 6
        assert len(executor.traces.ls()) == 2

    def test_duplicate_cell_replays_once(self, tmp_path):
        executor = ReplaySweepExecutor(trace_dir=tmp_path / "traces",
                                       engine=self.engine)
        executor.run_sweep(["MM"], ("dlp", "dlp"), num_sms=1, scale=SCALE)
        assert executor.stats.replayed == 1
        assert executor.stats.store_hits == 1

        executor = ReplaySweepExecutor(engine=self.engine)
        first, second = executor._run_cells(
            "MM", [("dlp", {}), ("dlp", {})], 1, SCALE, 0)
        assert executor.stats.replayed == 1
        assert executor.stats.store_hits == 1
        assert_results_identical(first, second, label="MM/dlp twice")


class TestColdEconomicsFast(TestColdEconomics):
    engine = "fast"


class TestWarmEconomics:
    #: As in TestColdEconomics.
    engine = "reference"

    def test_warm_rerun_is_all_store_hits(self, tmp_path):
        store_dir, trace_dir = tmp_path / "store", tmp_path / "traces"
        cold = ReplaySweepExecutor(store=ResultStore(store_dir),
                                   trace_dir=trace_dir, engine=self.engine)
        cold_results = cold.run_sweep(["MM"], SCHEMES, num_sms=1, scale=SCALE)
        assert cold.stats.recorded == 1 and cold.stats.replayed == 4

        warm = ReplaySweepExecutor(store=ResultStore(store_dir),
                                   trace_dir=trace_dir, engine=self.engine)
        warm_results = warm.run_sweep(["MM"], SCHEMES, num_sms=1, scale=SCALE)
        assert warm.stats.store_hits == 4
        assert warm.stats.recorded == 0
        assert warm.stats.replayed == 0

        for scheme in SCHEMES:
            assert_results_identical(
                cold_results["MM"][scheme], warm_results["MM"][scheme],
                label=f"MM/{scheme} cold-vs-warm",
            )

    def test_shared_trace_dir_skips_recording(self, tmp_path):
        trace_dir = tmp_path / "traces"
        first = ReplaySweepExecutor(trace_dir=trace_dir, engine=self.engine)
        first.run_sweep(["MM"], SCHEMES, num_sms=1, scale=SCALE)

        # Fresh executor, fresh (empty) result store, same trace dir:
        # replays re-run but the capture does not.
        second = ReplaySweepExecutor(trace_dir=trace_dir, engine=self.engine)
        second.run_sweep(["MM"], SCHEMES, num_sms=1, scale=SCALE)
        assert second.stats.recorded == 0
        assert second.stats.trace_hits == 4
        assert second.stats.replayed == 4


class TestWarmEconomicsFast(TestWarmEconomics):
    engine = "fast"


class TestCorrectness:
    def test_sweep_results_match_direct_replay(self, tmp_path):
        config = harness_config(1)
        executor = ReplaySweepExecutor(trace_dir=tmp_path / "traces")
        results = executor.run_sweep(["HS"], SCHEMES, num_sms=1, scale=SCALE)
        for scheme in SCHEMES:
            direct = replay_workload(
                make_workload("HS", SCALE), config, scheme
            )
            assert_results_identical(
                results["HS"][scheme], direct, label=f"HS/{scheme}"
            )

    def test_replay_keys_never_collide_with_scheme_variants(self, tmp_path):
        executor = ReplaySweepExecutor(trace_dir=tmp_path / "traces")
        a = executor.run_cell("MM", "dlp", num_sms=1, scale=SCALE)
        b = executor.run_cell("MM", "dlp", num_sms=1, scale=SCALE,
                              sample_limit=50)
        # distinct policy kwargs -> distinct cells, both replayed
        assert executor.stats.replayed == 2
        assert a is not b
