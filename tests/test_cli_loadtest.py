"""``repro loadtest`` from the CLI: JSON report, SLO exit codes."""

from __future__ import annotations

import json

import pytest

import repro.loadtest
from repro.cli import main

TINY = [
    "loadtest", "--clients", "4", "--workers", "1",
    "--population", "2", "--apps", "MM", "--schemes", "baseline",
    "--scale", "0.05", "--ramp", "0.05",
]


class TestLoadtestCli:
    def test_json_report_and_pass_exit(self, capsys):
        code = main(TINY + ["--slo-p99", "60", "--json"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code == 0
        assert doc["passed"] is True
        assert doc["completed"] == 4 and doc["failed"] == 0
        assert doc["clients"] == 4 and doc["workers"] == 1
        assert set(doc["latency_s"]) == {"p50", "p95", "p99", "max"}

    def test_slo_breach_exits_nonzero(self, capsys):
        # an impossible p99 bound: a real request cannot finish in 1 ns
        code = main(TINY + ["--slo-p99", "0.000000001"])
        captured = capsys.readouterr()
        assert code == 1
        assert "loadtest: FAIL" in captured.out
        assert "SLO violation" in captured.err
        assert "p99" in captured.err

    def test_unknown_scheme_exits_2_before_any_server_starts(
            self, capsys, monkeypatch):
        monkeypatch.setattr(repro.loadtest, "run_loadtest",
                            lambda config: pytest.fail("server started"))
        argv = list(TINY)
        argv[argv.index("baseline")] = "dlpp"
        assert main(argv) == 2
        assert "unknown scheme 'dlpp'" in capsys.readouterr().err
