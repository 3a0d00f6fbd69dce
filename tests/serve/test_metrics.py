"""Histograms, snapshots, and the Prometheus rendering."""

from __future__ import annotations

from repro.analysis.telemetry import render_latency_histogram
from repro.serve.metrics import (
    DEFAULT_BUCKETS,
    LatencyHistogram,
    ServeMetrics,
    render_prometheus,
)


class TestLatencyHistogram:
    def test_observations_land_in_correct_buckets(self):
        hist = LatencyHistogram(buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert abs(snap["sum"] - 5.555) < 1e-9
        # cumulative counts, Prometheus-style
        assert snap["buckets"] == {"0.01": 1, "0.1": 2, "1": 3, "+Inf": 4}

    def test_boundary_value_is_inclusive(self):
        hist = LatencyHistogram(buckets=(0.1, 1.0))
        hist.observe(0.1)
        assert hist.snapshot()["buckets"]["0.1"] == 1

    def test_empty_histogram(self):
        snap = LatencyHistogram().snapshot()
        assert snap["count"] == 0 and snap["sum"] == 0
        assert snap["buckets"]["+Inf"] == 0

    def test_default_buckets_resolve_tier0_latencies(self):
        # regression: the default buckets started at 1 ms, so every
        # tier-0 analytical answer (~18 µs) and warm store hit piled
        # into the first bucket and the histogram carried no signal.
        assert DEFAULT_BUCKETS[0] <= 1e-05
        hist = LatencyHistogram()
        hist.observe(18e-06)   # tier-0 analytical answer
        hist.observe(300e-06)  # warm store hit
        snap = hist.snapshot()["buckets"]
        assert snap["2.5e-05"] == 1   # 18 µs resolved below 25 µs
        assert snap["0.0001"] == 1    # 300 µs not yet counted at 100 µs
        assert snap["0.0005"] == 2

    def test_default_buckets_sorted_for_bisect(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_bisect_matches_linear_scan(self):
        # observe() now bisects; first-bucket-with-seconds<=bound
        # semantics must be unchanged, boundaries included.
        hist = LatencyHistogram()
        probes = [b for b in DEFAULT_BUCKETS]
        probes += [b * 0.999 for b in DEFAULT_BUCKETS]
        probes += [b * 1.001 for b in DEFAULT_BUCKETS]
        probes += [0.0, 1e-9, 500.0]
        for seconds in probes:
            hist.observe(seconds)
        linear = [0] * (len(DEFAULT_BUCKETS) + 1)
        for seconds in probes:
            for i, bound in enumerate(DEFAULT_BUCKETS):
                if seconds <= bound:
                    linear[i] += 1
                    break
            else:
                linear[-1] += 1
        assert hist.counts == linear


class TestServeMetrics:
    def test_snapshot_shape(self):
        metrics = ServeMetrics()
        metrics.jobs_submitted = 3
        metrics.cells_coalesced = 2
        metrics.http_connections, metrics.http_requests = 2, 7
        metrics.sim_latency_for("dlp").observe(0.2)
        doc = metrics.snapshot(
            queued=1, running=2, jobs_active=1,
            store_stats={"hits": 5, "misses": 1, "puts": 1},
            draining=True, uptime=12.5,
        )
        assert doc["jobs"]["submitted"] == 3
        assert doc["cells"]["coalesced"] == 2
        assert doc["cells"]["queued"] == 1 and doc["cells"]["running"] == 2
        assert doc["store"]["hits"] == 5
        assert doc["http"] == {"connections": 2, "requests": 7}
        assert doc["draining"] is True
        assert doc["uptime_seconds"] == 12.5
        assert doc["sim_latency_seconds"]["dlp"]["count"] == 1

    def test_sim_latency_per_scheme_isolated(self):
        metrics = ServeMetrics()
        metrics.sim_latency_for("dlp").observe(0.1)
        metrics.sim_latency_for("baseline").observe(0.2)
        metrics.sim_latency_for("dlp").observe(0.3)
        doc = metrics.snapshot()
        assert doc["sim_latency_seconds"]["dlp"]["count"] == 2
        assert doc["sim_latency_seconds"]["baseline"]["count"] == 1


class TestPrometheusRendering:
    def test_counters_and_histograms_render(self):
        metrics = ServeMetrics()
        metrics.jobs_submitted = 2
        metrics.http_requests = 3
        metrics.queue_wait.observe(0.004)
        metrics.sim_latency_for("dlp").observe(0.2)
        text = render_prometheus(metrics.snapshot(queued=1))
        assert "repro_serve_jobs_submitted 2" in text
        assert "repro_serve_cells_queued 1" in text
        assert "repro_serve_http_requests 3" in text
        assert "repro_serve_http_connections 0" in text
        assert 'repro_serve_queue_wait_seconds_bucket{le="0.005"} 1' in text
        assert ('repro_serve_sim_latency_seconds_bucket'
                '{scheme="dlp",le="0.25"} 1') in text
        assert "repro_serve_sim_latency_seconds_count" in text
        # every line is "name{labels} value" or "name value"
        for line in text.strip().splitlines():
            assert line.startswith("repro_serve_"), line
            assert len(line.rsplit(" ", 1)) == 2, line


class TestAsciiRendering:
    def test_render_handles_json_sorted_buckets(self):
        # JSON round-trips sort bucket keys lexicographically; the
        # renderer must recover numeric order before un-cumulating.
        hist = LatencyHistogram(buckets=(0.001, 0.01, 0.25))
        for v in (0.0005, 0.0005, 0.2, 2.0):
            hist.observe(v)
        snap = hist.snapshot()
        scrambled = dict(sorted(snap["buckets"].items()))
        text = render_latency_histogram(
            "queue wait", {**snap, "buckets": scrambled}
        )
        assert "n=4" in text
        assert "<= 0.001s" in text and "<= +Infs" in text
        lines = [l for l in text.splitlines() if l.startswith("<=")]
        counts = [int(l.split()[2]) for l in lines]
        assert counts == [2, 1, 1] and all(c >= 0 for c in counts)

    def test_render_empty(self):
        text = render_latency_histogram("idle", LatencyHistogram().snapshot())
        assert "(empty)" in text
