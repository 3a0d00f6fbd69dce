"""Loadtest harness: percentiles, SLO gating, one tiny real run, and
resubmission of jobs the server evicted."""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.serve.scheduler as scheduler_module
from repro.loadtest.harness import (
    LoadTestConfig,
    LoadTestReport,
    SloConfig,
    evaluate_slos,
    percentile,
    run_loadtest,
)
from repro.loadtest.mix import MixConfig
from repro.serve.server import ServerThread
from tests.serve.test_scheduler import payload_for


def report_with(**overrides) -> LoadTestReport:
    base = dict(
        clients=10, requests=10, workers=2, completed=10, failed=0,
        failures=[], throttled_responses=0, transport_retries=0,
        wall_s=1.0, throughput_rps=10.0, p50_s=0.1, p95_s=0.2,
        p99_s=0.3, max_s=0.4, coalescing_rate=0.2, store_hit_rate=0.3,
        hot_rate=0.5, predict_answers=0, cells_requeued=0,
        worker_restarts=0, worker_killed=False,
    )
    base.update(overrides)
    return LoadTestReport(**base)


class TestPercentile:
    def test_empty_is_none(self):
        # regression: an empty sample used to report 0.0, which let an
        # all-failed run pass any p99 SLO gate
        assert percentile([], 0.99) is None

    def test_nearest_rank(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 1.0) == 100.0

    def test_single_sample(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.99) == 7.0


class TestEvaluateSlos:
    def test_clean_report_has_no_violations(self):
        slo = SloConfig(p99_s=1.0, min_coalescing_rate=0.1,
                        max_throttled_rate=0.5)
        assert evaluate_slos(report_with(), slo) == []

    def test_p99_breach(self):
        violations = evaluate_slos(report_with(p99_s=2.0),
                                   SloConfig(p99_s=1.0))
        assert violations and "p99" in violations[0]

    def test_failure_budget_breach(self):
        violations = evaluate_slos(
            report_with(failed=3), SloConfig(max_failures=1))
        assert violations and "failures 3" in violations[0]

    def test_coalescing_floor_breach(self):
        violations = evaluate_slos(
            report_with(coalescing_rate=0.01),
            SloConfig(min_coalescing_rate=0.2))
        assert violations and "coalescing" in violations[0]

    def test_throttle_ceiling_breach(self):
        violations = evaluate_slos(
            report_with(throttled_responses=8),
            SloConfig(max_throttled_rate=0.5))
        assert violations and "429 rate" in violations[0]

    def test_none_slos_gate_nothing(self):
        bad = report_with(p99_s=100.0, coalescing_rate=0.0,
                          throttled_responses=100)
        assert evaluate_slos(bad, SloConfig()) == []

    def test_zero_completion_run_fails_the_gate(self):
        # regression: percentile([]) returned 0.0, so a run where every
        # request failed reported p99 = 0.0 and PASSED a p99 SLO whose
        # failure budget was permissive.  Zero completed requests must
        # be a violation in its own right.
        report = report_with(
            completed=0, failed=0, p50_s=None, p95_s=None,
            p99_s=None, max_s=None, throughput_rps=0.0,
        )
        violations = evaluate_slos(report, SloConfig(p99_s=60.0))
        assert violations and "no requests completed" in violations[0]

    def test_none_p99_does_not_crash_the_p99_gate(self):
        report = report_with(completed=0, p99_s=None)
        violations = evaluate_slos(report, SloConfig(p99_s=1.0))
        assert all("p99" not in v for v in violations)

    def test_empty_percentiles_serialise_as_null(self):
        report = report_with(completed=0, p50_s=None, p95_s=None,
                             p99_s=None, max_s=None)
        lat = report.to_dict()["latency_s"]
        assert lat == {"p50": None, "p95": None, "p99": None,
                       "max": None}


class TestTinyRealRun:
    """One self-hosted run through the whole stack, kept tiny."""

    @pytest.fixture(scope="class")
    def report(self):
        config = LoadTestConfig(
            clients=6,
            mix=MixConfig(population=3, apps=("MM",),
                          schemes=("baseline", "dlp"), scale=0.05),
            slo=SloConfig(p99_s=60.0),
            workers=2,
            ramp_seconds=0.05,
        )
        return run_loadtest(config)

    def test_every_request_completes(self, report):
        assert report.completed == 6
        assert report.failed == 0 and report.failures == []
        assert report.passed and report.violations == []

    def test_duplicates_were_served_hot(self, report):
        # 6 zipfian requests over 3 distinct cells: at least 3
        # duplicates, each coalesced or served from the store
        assert report.cells.get("simulated", 0) <= 3
        assert report.hot_rate > 0

    def test_latency_and_throughput_populated(self, report):
        assert 0 < report.p50_s <= report.p99_s <= report.max_s
        assert report.throughput_rps > 0
        assert report.wall_s > 0

    def test_report_serialises(self, report):
        doc = report.to_dict()
        assert doc["completed"] == 6
        assert doc["passed"] is True
        assert set(doc["latency_s"]) == {"p50", "p95", "p99", "max"}


class TestResubmitOnGone:
    """With 2 settled jobs kept, a client polling every 0.2 s finds its
    job evicted (410) once the 20 ms stub cells before it settle, and
    must submit it again: every request still completes."""

    def test_evicted_jobs_are_resubmitted(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "RETAINED_JOBS", 2)

        def slow_sim(cell):
            time.sleep(0.02)
            return payload_for(cell)

        with ServerThread(workers=1, pool=ThreadPoolExecutor(max_workers=1),
                          sim_fn=slow_sim) as srv:
            config = LoadTestConfig(
                clients=6,
                mix=MixConfig(population=6, apps=("MM", "HS", "BT"),
                              schemes=("baseline", "dlp"), scale=0.05),
                ramp_seconds=0.0, poll_initial=0.2,
                host="127.0.0.1", port=srv.port,
            )
            report = run_loadtest(config)
            jobs = srv.client().metrics()["jobs"]
        assert report.failures == [] and report.completed == 6
        assert jobs["evicted"] > 0
        assert jobs["submitted"] > report.requests
