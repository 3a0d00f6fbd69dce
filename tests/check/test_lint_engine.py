"""Engine-level tests for the linter: allow-marker semantics, R010
marker hygiene, the strict/baseline interaction and SARIF output.

These drive :class:`repro.check.lint.Linter` and :func:`run_check`
directly on small sources — no committed fixtures, no repo scan.
"""

import json
import textwrap

import pytest

from repro.check.lint import (
    Linter,
    load_baseline,
    run_check,
    sarif_payload,
    write_baseline,
)

R001_LINE = "import random\nvalue = random.random()\n"


@pytest.fixture()
def linter():
    return Linter()


def lint(linter, source, relpath="repro/core/seeded.py"):
    return linter.lint_source(textwrap.dedent(source), relpath)


class TestAllowMarkers:
    def test_one_marker_covers_multiple_rules(self, linter):
        fs = lint(
            linter,
            """
            def bump(entry):
                entry.pd = entry.pd + 0.5  # repro-check: allow(R002,R006) seeded fixture
            """,
        )
        assert fs == []

    def test_two_markers_share_a_line(self, linter):
        fs = lint(
            linter,
            """
            def bump(entry):
                entry.pd = entry.pd + 0.5  # repro-check: allow(R002) fixture # repro-check: allow(R006) fixture
            """,
        )
        assert fs == []
        assert len(linter.markers) == 2
        assert all(m.used for m in linter.markers)

    def test_marker_on_any_line_of_a_multiline_statement(self, linter):
        fs = lint(
            linter,
            """
            def bump(entry, a, b):
                entry.pd = (
                    entry.pd
                    + a  # repro-check: allow(R006) exercised bound elsewhere
                    + b
                )
            """,
        )
        assert fs == []

    def test_marker_on_a_decorator_line(self, linter):
        fs = lint(
            linter,
            """
            def wrap(f):
                return f

            @wrap  # repro-check: allow(R004) fixture wants the shared list
            def collect(items=[]):
                return items
            """,
        )
        assert fs == []

    def test_standalone_comment_marker_covers_next_statement(self, linter):
        fs = lint(
            linter,
            """
            def bump(entry):
                # repro-check: allow(R006) fixture
                entry.pd = entry.pd + 4
            """,
        )
        assert fs == []

    def test_docstring_mentioning_the_syntax_is_not_a_marker(self, linter):
        fs = lint(
            linter,
            '''
            def bump(entry):
                """Mark with ``# repro-check: allow(R006)`` to accept."""
                entry.pd = entry.pd + 4
            ''',
        )
        assert "R006" in {f.rule for f in fs}
        assert linter.markers == []

    def test_marker_does_not_leak_to_other_statements(self, linter):
        fs = lint(
            linter,
            """
            def bump(entry):
                entry.pd = entry.pd + 4  # repro-check: allow(R006) fixture
                entry.pd = entry.pd + 8
            """,
        )
        assert [f.line for f in fs if f.rule == "R006"] == [4]


class TestMarkerHygieneR010:
    def test_unused_marker_is_dead(self, linter):
        lint(linter, "x = 1  # repro-check: allow(R001) nothing here\n")
        fs = linter.marker_findings()
        assert [f.rule for f in fs] == ["R010"]
        assert "suppresses nothing" in fs[0].message

    def test_used_but_unjustified_marker(self, linter):
        fs = lint(
            linter,
            """
            import random  # repro-check: allow(R001)
            value = random.random()
            """,
        )
        assert fs == []
        hygiene = linter.marker_findings()
        assert [f.rule for f in hygiene] == ["R010"]
        assert "no justification" in hygiene[0].message

    def test_used_and_justified_marker_is_clean(self, linter):
        lint(
            linter,
            """
            import random  # repro-check: allow(R001) fixture noise source
            value = random.random()
            """,
        )
        assert linter.marker_findings() == []


class TestRunCheckModes:
    def test_strict_refuses_a_baseline(self, tmp_path):
        lines = []
        code = run_check(
            strict=True, baseline=str(tmp_path / "b.json"), out=lines.append
        )
        assert code == 2
        assert any("--strict refuses a baseline" in line for line in lines)

    def test_strict_surfaces_r010(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "x = 1  # repro-check: allow(R001) nothing\n", encoding="utf-8"
        )
        lines = []
        assert run_check(paths=[str(bad)], out=lines.append) == 0
        assert run_check(paths=[str(bad)], strict=True, out=lines.append) == 1
        assert any("R010" in line for line in lines)

    def test_baseline_round_trip(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(R001_LINE, encoding="utf-8")
        linter = Linter()
        findings = linter.lint_file(bad)
        assert findings
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, findings)
        assert load_baseline(baseline) == {f.fingerprint() for f in findings}
        assert run_check(
            paths=[str(bad)], baseline=str(baseline), out=lambda _line: None
        ) == 0

    def test_missing_baseline_file_suppresses_nothing(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == set()


class TestSarif:
    def test_payload_structure(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(R001_LINE, encoding="utf-8")
        findings = Linter().lint_file(bad)
        doc = sarif_payload(findings, ["R001", "R006"])
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-check"
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] == \
            ["R001", "R006"]
        result = run["results"][0]
        assert result["ruleId"] == findings[0].rule
        assert result["partialFingerprints"]["reproCheck/v1"] == \
            findings[0].fingerprint()
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] == findings[0].line

    def test_run_check_writes_the_report(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(R001_LINE, encoding="utf-8")
        report = tmp_path / "check.sarif"
        lines = []
        code = run_check(
            paths=[str(bad)], sarif=str(report), out=lines.append
        )
        assert code == 1
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert {r["ruleId"] for r in doc["runs"][0]["results"]} == {"R001"}
        assert any("sarif report written" in line for line in lines)
