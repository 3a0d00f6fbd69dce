"""Record → replay round trip: the subsystem's differential oracle.

The contract under test is the ISSUE's acceptance criterion: replaying a
recorded trace through a policy produces *bit-identical* SimResult cache
counters to driving that policy from the live functional stream the
trace was recorded from.  Comparison is via the canonical-JSON
fingerprint of ``tests.oracle`` — a dropped counter or an int silently
becoming a float fails loudly.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import build_simulator, harness_config
from repro.experiments.store import stream_fingerprint
from repro.trace import (
    RECORDER_STATS,
    TimingTapRecorder,
    TraceReader,
    capture_records,
    record_app,
    record_workload,
    replay_trace,
    replay_workload,
)
from repro.workloads import make_workload
from tests.oracle import assert_results_identical

APPS = ("MM", "HS", "BT")
SCHEMES = ("baseline", "stall_bypass", "global_protection", "dlp")
SCALE = 0.1


@pytest.fixture(scope="module")
def config():
    return harness_config(2)


@pytest.fixture(scope="module")
def traces(tmp_path_factory, config):
    """One recorded trace per app (records once for the whole module)."""
    root = tmp_path_factory.mktemp("traces")
    out = {}
    for app in APPS:
        path = root / f"{app}.rptr"
        record_app(app, path, config, scale=SCALE)
        out[app] = path
    return out


class TestReplayOracle:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("app", APPS)
    def test_trace_replay_bit_identical_to_functional_path(
        self, traces, config, app, scheme
    ):
        from_trace = replay_trace(traces[app], scheme, config)
        live = replay_workload(make_workload(app, SCALE), config, scheme)
        assert_results_identical(from_trace, live, label=f"{app}/{scheme}")

    def test_capacity_schemes_share_the_same_trace(self, traces, config):
        # "32kb" only changes the replayed cache, never the stream.
        from_trace = replay_trace(traces["MM"], "32kb", config)
        live = replay_workload(make_workload("MM", SCALE), config, "32kb")
        assert_results_identical(from_trace, live, label="MM/32kb")

    def test_replay_counts_every_record(self, traces, config):
        reader = TraceReader(traces["MM"])
        result = replay_trace(reader, "baseline", config)
        assert result.l1d.accesses == reader.total_records

    def test_replay_has_no_timing(self, traces, config):
        result = replay_trace(traces["MM"], "baseline", config)
        assert result.cycles == 0
        assert result.ipc == 0.0


class TestRecorder:
    def test_header_identifies_the_capture(self, traces, config):
        reader = TraceReader(traces["HS"])
        assert reader.meta["source"] == "registry"
        assert reader.meta["abbr"] == "HS"
        assert reader.meta["scale"] == SCALE
        assert reader.header["stream"] == stream_fingerprint(
            "HS", config, scale=SCALE, seed=0
        )

    def test_capture_counters_increment(self, config, tmp_path):
        RECORDER_STATS.reset()
        records = capture_records(make_workload("MM", SCALE), config)
        assert RECORDER_STATS.captures == 1
        assert RECORDER_STATS.records == len(records) > 0
        record_workload(make_workload("MM", SCALE), config,
                        tmp_path / "mm.rptr")
        assert RECORDER_STATS.captures == 2
        assert RECORDER_STATS.records == 2 * len(records)

    def test_file_and_memory_capture_agree(self, traces, config):
        # the live capture is globally interleaved; the file groups by
        # SM — per-SM order (the cache-visible one) must be identical
        records = capture_records(make_workload("MM", SCALE), config)
        reader = TraceReader(traces["MM"])
        for sm in range(config.num_sms):
            assert [r for r in records if r.sm_id == sm] == list(
                reader.sm_stream(sm)
            )


class TestTimingTap:
    def test_tap_sees_every_completed_access(self, tmp_path):
        config = harness_config(1)
        sim = build_simulator("MM", "baseline", config, scale=SCALE)
        recorder = TimingTapRecorder(sim)
        result = sim.run()
        assert recorder.total_records == result.l1d.accesses > 0

        path = recorder.write(tmp_path / "mm_timing.rptr",
                              meta={"abbr": "MM"})
        reader = TraceReader(path)
        assert reader.meta["source"] == "timing_tap"
        assert reader.total_records == result.l1d.accesses
        # the timing stream replays cleanly through the replay engine
        replayed = replay_trace(reader, "baseline", config)
        assert replayed.l1d.accesses == result.l1d.accesses


class TestReplayHeaderGuard:
    """Replay cross-checks per-SM record counts against the header."""

    def test_engine_counts_match_header(self, traces, config):
        from repro.trace.replay import ReplayEngine, _resolve

        reader = TraceReader(traces["MM"])
        cfg, factory = _resolve("baseline", config)
        engine = ReplayEngine(cfg, factory)
        engine.run(iter(reader))
        assert engine.replayed_per_sm[: reader.num_sms] == reader.records_per_sm
        assert engine.replayed_records == reader.total_records

    def test_doctored_counts_rejected(self, traces, config, tmp_path):
        import shutil

        from repro.trace.format import TraceFormatError
        from tests.trace.test_format import doctor_header

        path = tmp_path / "doctored.rptr"
        shutil.copy(traces["MM"], path)

        def cut(header):
            header["records_per_sm"][0] -= 1
            header["total_records"] -= 1

        doctor_header(path, cut)
        with pytest.raises(TraceFormatError):
            replay_trace(str(path), "baseline", config)


class TestInMemorySmIds:
    """An in-memory stream names each record's SM; an id outside the
    engine's SM range is rejected instead of replaying into another SM."""

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("which", ["negative", "num_sms"])
    def test_out_of_range_sm_id_rejected(self, config, engine, which):
        from repro.trace import replay_records

        bad = -1 if which == "negative" else config.num_sms
        records = [
            r._replace(sm_id=bad) if r.sm_id == 1 else r
            for r in capture_records(make_workload("MM", SCALE), config)
        ]
        with pytest.raises(
            ValueError,
            match=f"sm_id {bad} out of range for {config.num_sms} SMs",
        ):
            replay_records(iter(records), config, "dlp", engine=engine)
