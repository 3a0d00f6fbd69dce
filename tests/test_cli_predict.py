"""CLI surface of the prediction tier: ``repro predict`` and
``repro trace info --rdd``."""

from __future__ import annotations

from repro.cli import main


class TestPredictCommand:
    def test_small_grid_prints_calibrated_table(self, capsys):
        assert main(["predict", "--apps", "MM,KM",
                     "--schemes", "baseline,dlp",
                     "--sms", "2", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "MM" in out and "KM" in out
        assert "DLP" in out          # scheme display labels
        # the stats line makes the tier explicit
        assert "no cache was stepped" in out
        assert "profiled 2 streams" in out
        # calibrated answers carry error bars
        assert "±err" in out or "err" in out

    def test_raw_flag_skips_calibration(self, capsys):
        assert main(["predict", "--apps", "MM",
                     "--schemes", "baseline",
                     "--sms", "2", "--scale", "0.25", "--raw"]) == 0
        out = capsys.readouterr().out
        assert "raw model" in out

    def test_unknown_scheme_is_a_usage_error(self, capsys):
        assert main(["predict", "--apps", "MM",
                     "--schemes", "clairvoyant"]) == 2
        err = capsys.readouterr().err
        assert "clairvoyant" in err

    def test_unknown_app_is_a_usage_error(self):
        assert main(["predict", "--apps", "NOPE",
                     "--schemes", "baseline",
                     "--sms", "2", "--scale", "0.25"]) == 2

    def test_trace_dir_profiles_from_recorded_stream(self, tmp_path, capsys):
        from repro.experiments.runner import harness_config
        from repro.experiments.store import trace_key
        from repro.trace.record import record_workload
        from repro.workloads import make_workload

        config = harness_config(2)
        key = trace_key("MM", config, scale=0.25, seed=0)
        record_workload(make_workload("MM", 0.25, seed=0), config,
                        tmp_path / f"{key}.rptr")
        assert main(["predict", "--apps", "MM", "--schemes", "baseline",
                     "--sms", "2", "--scale", "0.25",
                     "--trace-dir", str(tmp_path)]) == 0
        assert "profiled 1 stream" in capsys.readouterr().out


class TestTraceInfoRdd:
    def test_rdd_report_without_replay(self, tmp_path, capsys):
        path = tmp_path / "mm.rptr"
        assert main(["trace", "record", "MM", "--out", str(path),
                     "--sms", "2", "--scale", "0.25"]) == 0
        capsys.readouterr()
        assert main(["trace", "info", str(path), "--rdd"]) == 0
        out = capsys.readouterr().out
        assert "reuse-distance distribution" in out
        assert "per-instruction RDDs" in out
        assert "RD 1~4" in out

    def test_rdd_rows_match_repro_profile(self, tmp_path, capsys):
        """One walker: the trace's reads give the live stream's rows,
        at the recorded scale."""
        path = tmp_path / "bfs.rptr"
        flags = ["--sms", "2", "--scale", "0.2"]
        assert main(["trace", "record", "BFS", "--out", str(path),
                     *flags]) == 0
        capsys.readouterr()
        assert main(["trace", "info", str(path), "--rdd"]) == 0
        traced = capsys.readouterr().out
        assert main(["profile", "BFS", *flags]) == 0
        live = capsys.readouterr().out

        def overall_row(out, label):
            row = next(line for line in out.splitlines()
                       if line.startswith(label + " "))
            return row[len(label):].strip()

        assert overall_row(traced, "overall") == overall_row(live, "BFS")
        per_pc = live[live.index("per-instruction RDDs"):]
        assert traced.endswith(per_pc)
        assert per_pc.count("pc=0x") == 6

    def test_info_without_rdd_stays_header_only(self, tmp_path, capsys):
        path = tmp_path / "mm.rptr"
        main(["trace", "record", "MM", "--out", str(path),
              "--sms", "2", "--scale", "0.25"])
        capsys.readouterr()
        assert main(["trace", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "per-instruction RDDs" not in out
