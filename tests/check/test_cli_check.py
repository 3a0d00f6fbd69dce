"""End-to-end tests for the ``repro check`` CLI verb.

Covers the acceptance contract: exit 0 on the clean repo with no
baseline, non-zero on an injected R001/R006 violation, JSON output,
baseline suppression, and the R005 SIM_VERSION manifest drift cases.
"""

import json
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.check import manifest
from repro.check.lint import run_check
from repro.cli import main

R001_SNIPPET = "import random\n\n\ndef roll():\n    return random.random()\n"
R006_SNIPPET = textwrap.dedent(
    """
    def bump(entry):
        entry.pd = entry.pd + 4
    """
)


@pytest.fixture()
def violating_file(tmp_path):
    path = tmp_path / "injected.py"
    path.write_text(R001_SNIPPET + R006_SNIPPET, encoding="utf-8")
    return path


class TestCheckCommand:
    def test_repo_is_clean_with_no_baseline(self, capsys):
        assert main(["check"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_injected_violations_fail(self, violating_file, capsys):
        assert main(["check", str(violating_file)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out and "R006" in out

    def test_json_output(self, violating_file, capsys):
        assert main(["check", "--json", str(violating_file)]) == 1
        payload = json.loads(capsys.readouterr().out)
        rules = {f["rule"] for f in payload["findings"]}
        assert {"R001", "R006"} <= rules
        assert payload["suppressed"] == 0
        assert "R005" in payload["checked_rules"]
        for f in payload["findings"]:
            assert f["fingerprint"] and f["line"] >= 1

    def test_baseline_suppression_roundtrip(self, violating_file, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main([
            "check", str(violating_file),
            "--baseline", str(baseline), "--update-baseline",
        ]) == 0
        assert baseline.exists()
        # baselined findings no longer fail the check ...
        assert main([
            "check", str(violating_file), "--baseline", str(baseline)
        ]) == 0
        assert "baseline-suppressed" in capsys.readouterr().out
        # ... but a new violation alongside them does
        extra = violating_file.read_text() + "\ndef g(line):\n    line.insn_id += 1\n"
        violating_file.write_text(extra, encoding="utf-8")
        assert main([
            "check", str(violating_file), "--baseline", str(baseline)
        ]) == 1

    def test_update_baseline_requires_baseline_path(self, violating_file):
        assert main(["check", str(violating_file), "--update-baseline"]) == 2

    def test_explicit_paths_skip_repo_rules(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert main(["check", str(clean)]) == 0


class TestSimVersionManifest:
    """R005 drift taxonomy, exercised on a synthetic package tree."""

    @pytest.fixture()
    def fake_root(self, tmp_path):
        root = tmp_path / "repro"
        (root / "core").mkdir(parents=True)
        (root / "cache").mkdir()
        (root / "check").mkdir()
        (root / "experiments").mkdir()
        (root / "core" / "dlp.py").write_text("PD = 4\n", encoding="utf-8")
        (root / "cache" / "line.py").write_text("PL = 4\n", encoding="utf-8")
        (root / "experiments" / "store.py").write_text(
            'SIM_VERSION = "1"\n', encoding="utf-8"
        )
        return root

    def test_missing_manifest_reported(self, fake_root):
        messages = manifest.diff_manifest(fake_root)
        assert len(messages) == 1
        assert "missing" in messages[0]

    def test_fresh_manifest_is_clean(self, fake_root):
        manifest.write_manifest(fake_root)
        assert manifest.diff_manifest(fake_root) == []

    def test_semantic_change_without_bump_flagged(self, fake_root):
        manifest.write_manifest(fake_root)
        (fake_root / "core" / "dlp.py").write_text("PD = 5\n", encoding="utf-8")
        messages = manifest.diff_manifest(fake_root)
        assert len(messages) == 1
        assert "bump SIM_VERSION" in messages[0]
        assert "core/dlp.py" in messages[0]

    def test_new_semantic_file_without_bump_flagged(self, fake_root):
        manifest.write_manifest(fake_root)
        (fake_root / "cache" / "mshr.py").write_text("M = 32\n", encoding="utf-8")
        messages = manifest.diff_manifest(fake_root)
        assert messages and "cache/mshr.py" in messages[0]

    def test_timing_simulator_edit_without_bump_flagged(self, fake_root):
        (fake_root / "gpu").mkdir()
        ldst = fake_root / "gpu" / "ldst.py"
        ldst.write_text("QUEUE_DEPTH = 4\n", encoding="utf-8")
        manifest.write_manifest(fake_root)
        ldst.write_text("QUEUE_DEPTH = 8\n", encoding="utf-8")
        messages = manifest.diff_manifest(fake_root)
        assert len(messages) == 1
        assert "bump SIM_VERSION" in messages[0]
        assert "gpu/ldst.py" in messages[0]

    def test_bumped_version_with_stale_manifest_flagged(self, fake_root):
        manifest.write_manifest(fake_root)
        (fake_root / "experiments" / "store.py").write_text(
            'SIM_VERSION = "2"\n', encoding="utf-8"
        )
        messages = manifest.diff_manifest(fake_root)
        assert len(messages) == 1
        assert "--update-manifest" in messages[0]

    def test_update_manifest_clears_the_drift(self, fake_root):
        manifest.write_manifest(fake_root)
        (fake_root / "core" / "dlp.py").write_text("PD = 5\n", encoding="utf-8")
        (fake_root / "experiments" / "store.py").write_text(
            'SIM_VERSION = "2"\n', encoding="utf-8"
        )
        manifest.write_manifest(fake_root)
        assert manifest.diff_manifest(fake_root) == []

    def test_repo_manifest_is_current(self):
        # The committed manifest must match the committed sources; if this
        # fails, someone edited a semantic package without the bump workflow.
        assert manifest.diff_manifest() == []


class TestRunCheckEngine:
    def test_out_callable_receives_lines(self, violating_file):
        lines = []
        code = run_check(paths=[str(violating_file)], out=lines.append)
        assert code == 1
        assert any("R001" in line for line in lines)

    def test_update_manifest_on_copy(self, tmp_path):
        src_root = manifest.package_root()
        root = tmp_path / "repro"
        for pkg in ("core", "cache", "experiments"):
            shutil.copytree(src_root / pkg, root / pkg)
        (root / "check").mkdir()
        path = manifest.write_manifest(root)
        assert path.exists()
        assert manifest.diff_manifest(root) == []
