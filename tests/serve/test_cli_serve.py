"""The ``repro serve`` / ``repro submit`` command-line surface.

Parser registration is checked directly; the ``submit`` verbs run
against a real in-process :class:`ServerThread` with stub workers, so
these stay fast while exercising the whole client/server/CLI path.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cache.l1d import L1DStats
from repro.cli import build_parser, main
from repro.gpu.simulator import SimResult
from repro.serve.server import ServerThread
from repro.workloads import ALL_APPS


def stub_sim(cell):
    return SimResult(cycles=4200, thread_insns=100, warp_insns=50,
                     l1d=L1DStats(), interconnect={}, l2={}, dram={},
                     policy={}).to_dict()


@pytest.fixture()
def server(tmp_path):
    with ServerThread(workers=1, store=tmp_path / "store",
                      pool=ThreadPoolExecutor(max_workers=1),
                      sim_fn=stub_sim) as srv:
        yield srv


def submit(server, *argv):
    return main(["submit", "--port", str(server.port), *argv])


class TestParser:
    def test_serve_registered_with_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1" and args.port == 8642
        assert args.workers == 2 and args.drain_timeout == 30.0

    def test_submit_subcommands_registered(self):
        parser = build_parser()
        for argv in (
            ["submit", "cell", "MM", "dlp"],
            ["submit", "sweep", "--apps", "MM,HS"],
            ["submit", "replay", "--apps", "MM"],
            ["submit", "status", "job-000001"],
            ["submit", "cancel", "job-000001"],
            ["submit", "metrics"],
            ["submit", "health"],
        ):
            args = parser.parse_args(argv)
            assert args.command == "submit"
            assert args.submit_command == argv[1]

    def test_submit_priority_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["submit", "cell", "MM", "dlp", "--priority", "urgent"]
            )

    def test_store_prune_flags_registered(self):
        args = build_parser().parse_args(
            ["store", "prune", "--max-age", "7d", "--max-entries", "100"]
        )
        assert args.action == "prune"
        assert args.max_age == "7d" and args.max_entries == 100


class TestSubmitCommands:
    def test_cell_submit_and_wait_renders_result(self, server, capsys):
        code = submit(server, "cell", "MM", "baseline",
                      "--sms", "1", "--wait")
        assert code == 0
        out = capsys.readouterr().out
        assert "submitted job-" in out
        assert "4200" in out            # the stub result's cycle count

    def test_submit_without_wait_prints_job_id(self, server, capsys):
        assert submit(server, "sweep", "--apps", "MM,HS",
                      "--schemes", "baseline,dlp", "--sms", "1") == 0
        out = capsys.readouterr().out
        assert "submitted job-" in out and "4 units" in out
        assert "priority bulk" in out

    def test_sweep_apps_all_expands_to_every_app(self, server, capsys):
        assert submit(server, "sweep", "--apps", "all",
                      "--schemes", "baseline", "--sms", "1") == 0
        assert f"{len(ALL_APPS)} units" in capsys.readouterr().out

    def test_unknown_app_exits_2_before_contacting_the_server(self, capsys):
        # nothing listens on port 1: the list is refused before any I/O
        assert main(["submit", "--port", "1", "sweep",
                     "--apps", "MM,NOPE"]) == 2
        assert "unknown app 'NOPE'" in capsys.readouterr().err

    def test_status_and_wait(self, server, capsys):
        submit(server, "cell", "MM", "dlp", "--sms", "1")
        job_id = capsys.readouterr().out.split()[1]
        assert submit(server, "status", job_id, "--wait") == 0
        assert "4200" in capsys.readouterr().out

    def test_health(self, server, capsys):
        assert submit(server, "health") == 0
        out = capsys.readouterr().out
        assert "status" in out and "ok" in out

    def test_metrics_table_and_prometheus(self, server, capsys):
        submit(server, "cell", "MM", "dlp", "--sms", "1", "--wait")
        capsys.readouterr()
        assert submit(server, "metrics") == 0
        out = capsys.readouterr().out
        assert "cells.simulated" in out and "queue wait" in out
        assert "http.connections" in out and "http.requests" in out
        assert submit(server, "metrics", "--prom") == 0
        out = capsys.readouterr().out
        assert "repro_serve_cells_simulated 1" in out
        assert "repro_serve_http_requests" in out

    def test_unreachable_server_exits_2(self, capsys):
        # nothing listens on this ephemeral-range port
        assert main(["submit", "--port", "1", "health"]) == 2
        assert "cannot reach repro-serve" in capsys.readouterr().err


class TestSubmitFailurePath:
    def test_failed_job_exits_1_with_fingerprint(self, tmp_path, capsys):
        def boom(cell):
            raise RuntimeError("stub exploded")

        with ServerThread(workers=1, store=tmp_path / "store",
                          pool=ThreadPoolExecutor(max_workers=1),
                          sim_fn=boom) as srv:
            code = main(["submit", "--port", str(srv.port),
                         "cell", "MM", "dlp", "--sms", "1", "--wait"])
        assert code == 1
        err = capsys.readouterr().err
        assert "stub exploded" in err
        assert '"abbr": "MM"' in err and '"scheme": "dlp"' in err
