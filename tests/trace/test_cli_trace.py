"""CLI: ``repro trace ...`` verbs and ``repro sweep --replay``.

Warm-path assertions parse the printed counter lines — never wall
clock — mirroring tests/test_cli_sweep.py.
"""

from __future__ import annotations

import re

import pytest

from repro.cli import main


def trace_counters(out: str) -> dict:
    m = re.search(
        r"trace: recorded (\d+) traces, (\d+) trace hits; "
        r"replayed (\d+) cells, (\d+) store hits",
        out,
    )
    assert m, f"trace counter line missing from output:\n{out}"
    return {
        "recorded": int(m.group(1)),
        "trace_hits": int(m.group(2)),
        "replayed": int(m.group(3)),
        "store_hits": int(m.group(4)),
    }


@pytest.fixture
def recorded(tmp_path, capsys):
    path = tmp_path / "mm.rptr"
    rc = main(["trace", "record", "MM", "--out", str(path),
               "--sms", "1", "--scale", "0.1"])
    assert rc == 0
    capsys.readouterr()
    return path


class TestRecordInfo:
    def test_record_reports_count_and_path(self, tmp_path, capsys):
        path = tmp_path / "mm.rptr"
        assert main(["trace", "record", "MM", "--out", str(path),
                     "--sms", "1", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"recorded \d+ records \(1 SMs\)", out)
        assert path.exists()

    def test_info_prints_header_fields(self, recorded, capsys):
        assert main(["trace", "info", str(recorded)]) == 0
        out = capsys.readouterr().out
        assert "total_records" in out
        assert "'abbr': 'MM'" in out
        assert "format_version" in out

    def test_unknown_app_is_a_clean_error(self, tmp_path, capsys):
        rc = main(["trace", "record", "NOPE",
                   "--out", str(tmp_path / "x.rptr")])
        assert rc == 2
        assert "unknown workload" in capsys.readouterr().err


class TestReplay:
    def test_replay_prints_all_four_schemes(self, recorded, capsys):
        assert main(["trace", "replay", str(recorded)]) == 0
        out = capsys.readouterr().out
        for label in ("16KB(Baseline)", "Stall-Bypass",
                      "Global-Protection", "DLP"):
            assert label in out

    def test_verify_passes_on_registry_trace(self, recorded, capsys):
        assert main(["trace", "replay", str(recorded), "--verify",
                     "--schemes", "baseline,dlp"]) == 0
        out = capsys.readouterr().out
        assert "verify baseline: identical" in out
        assert "verify dlp: identical" in out
        assert "replay identical to functional path" in out

    def test_verify_rejects_foreign_traces(self, tmp_path, capsys):
        src = tmp_path / "t.csv"
        src.write_text("0 1 0x400 R\n")
        assert main(["trace", "import", str(src),
                     str(tmp_path / "t.rptr")]) == 0
        rc = main(["trace", "replay", str(tmp_path / "t.rptr"), "--verify"])
        assert rc == 2
        assert "registry-recorded" in capsys.readouterr().err

    def test_unknown_scheme_is_a_clean_error(self, recorded, capsys):
        rc = main(["trace", "replay", str(recorded),
                   "--schemes", "bogus"])
        assert rc == 2
        assert "unknown scheme" in capsys.readouterr().err


class TestImport:
    def test_import_then_replay(self, tmp_path, capsys):
        src = tmp_path / "t.csv"
        src.write_text("".join(
            f"0, {i % 16}, 0x400, R\n" for i in range(128)
        ))
        assert main(["trace", "import", str(src),
                     str(tmp_path / "t.rptr")]) == 0
        out = capsys.readouterr().out
        assert "imported 128 records (1 SMs)" in out
        assert main(["trace", "replay", str(tmp_path / "t.rptr"),
                     "--schemes", "baseline"]) == 0

    def test_replay_refuses_another_line_size(self, tmp_path, capsys):
        src = tmp_path / "t.csv"
        src.write_text("".join(f"0, {i}, 0x400, R\n" for i in range(5)))
        assert main(["trace", "import", str(src), str(tmp_path / "t.rptr"),
                     "--line-size", "64"]) == 0
        capsys.readouterr()
        rc = main(["trace", "replay", str(tmp_path / "t.rptr")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "line-size mismatch" in captured.err
        assert "64 B" in captured.err and "128 B" in captured.err


class TestReplaySweep:
    #: The subclass below reruns each test under ``--engine fast`` and
    #: expects the same counter line.
    ARGS = ["sweep", "--apps", "MM", "--replay",
            "--sms", "1", "--scale", "0.1"]

    def test_cold_sweep_is_one_capture_four_replays(self, tmp_path, capsys):
        assert main(self.ARGS + ["--trace-dir", str(tmp_path / "tr"),
                                 "--store", str(tmp_path / "st")]) == 0
        c = trace_counters(capsys.readouterr().out)
        assert c["recorded"] == 1
        assert c["trace_hits"] == 3
        assert c["replayed"] == 4
        assert c["store_hits"] == 0

    def test_warm_sweep_resolves_from_store(self, tmp_path, capsys):
        extra = ["--trace-dir", str(tmp_path / "tr"),
                 "--store", str(tmp_path / "st")]
        assert main(self.ARGS + extra) == 0
        capsys.readouterr()
        assert main(self.ARGS + extra) == 0
        c = trace_counters(capsys.readouterr().out)
        assert c["recorded"] == 0
        assert c["replayed"] == 0
        assert c["store_hits"] == 4

    def test_shared_trace_dir_skips_recapture(self, tmp_path, capsys):
        trace_dir = ["--trace-dir", str(tmp_path / "tr")]
        assert main(self.ARGS + trace_dir) == 0
        capsys.readouterr()
        # no result store: replays rerun, the capture does not
        assert main(self.ARGS + trace_dir) == 0
        c = trace_counters(capsys.readouterr().out)
        assert c["recorded"] == 0
        assert c["trace_hits"] == 4
        assert c["replayed"] == 4


class TestReplaySweepFast(TestReplaySweep):
    ARGS = TestReplaySweep.ARGS + ["--engine", "fast"]
