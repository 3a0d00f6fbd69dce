"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for argv in (["list"], ["run", "SS"], ["compare", "SS"],
                     ["figure", "fig2"], ["profile", "SS"]):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_policy_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "SS", "--policy", "magic"])

    def test_figure_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("argv", [
        ["run", "SS"], ["sweep"], ["serve"], ["loadtest"],
        ["trace", "replay", "t.rptr"],
    ], ids=lambda argv: argv[0])
    def test_engine_flags_parse_to_canonical_names(self, argv):
        parser = build_parser()
        assert parser.parse_args(argv).engine == "reference"
        assert parser.parse_args(argv + ["--engine", "fast"]).engine == "fast"
        assert parser.parse_args(argv + ["--engine", "batch"]).engine == "fast"
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["--engine", "turbo"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Histogram" in out and "STR" in out

    def test_figure_static(self, capsys):
        assert main(["figure", "overhead"]) == 0
        assert "7.48%" in capsys.readouterr().out

    def test_figure_fig2(self, capsys):
        assert main(["figure", "fig2"]) == 0
        assert "Addr 0" in capsys.readouterr().out

    def test_run_small(self, capsys):
        assert main(["run", "gemm", "--sms", "2", "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "GEMM" in out and "ipc" in out

    def test_run_unknown_app_errors(self, capsys):
        assert main(["run", "NOPE"]) == 2
        assert "error" in capsys.readouterr().err

    def test_profile_small(self, capsys):
        assert main(["profile", "SC", "--sms", "2"]) == 0
        out = capsys.readouterr().out
        assert "RD 1~4" in out
        assert "per-instruction" in out
