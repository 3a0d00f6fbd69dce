"""Fixture tests for the ``repro check`` AST rules.

Each rule gets at least one positive fixture (must fire) and one
negative fixture (must stay quiet); the suppression and dedup behaviour
of the engine is covered at the end.
"""

import textwrap

import pytest

from repro.check.lint import Linter


@pytest.fixture()
def linter():
    return Linter()


def findings_for(linter, source, relpath="src/repro/somewhere/mod.py"):
    return linter.lint_source(textwrap.dedent(source), relpath)


def rules_of(findings):
    return [f.rule for f in findings]


class TestR001Nondeterminism:
    def test_import_random_fires(self, linter):
        fs = findings_for(linter, "import random\n")
        assert rules_of(fs) == ["R001"]

    def test_numpy_random_alias_fires(self, linter):
        fs = findings_for(
            linter,
            """
            import numpy as np

            def f():
                return np.random.default_rng()
            """,
        )
        assert "R001" in rules_of(fs)

    def test_time_time_fires(self, linter):
        fs = findings_for(
            linter,
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert "R001" in rules_of(fs)

    def test_builtin_hash_fires(self, linter):
        fs = findings_for(linter, "def f(x):\n    return hash(x)\n")
        assert "R001" in rules_of(fs)

    def test_set_iteration_fires(self, linter):
        fs = findings_for(
            linter,
            """
            def f(items):
                for item in set(items):
                    print(item)
            """,
        )
        assert "R001" in rules_of(fs)

    def test_set_comprehension_source_fires(self, linter):
        fs = findings_for(
            linter,
            """
            def f(items):
                return [i * 2 for i in {i % 4 for i in items}]
            """,
        )
        assert "R001" in rules_of(fs)

    def test_list_of_set_fires(self, linter):
        fs = findings_for(linter, "def f(xs):\n    return list(set(xs))\n")
        assert "R001" in rules_of(fs)

    def test_sorted_set_iteration_is_fine(self, linter):
        fs = findings_for(
            linter,
            """
            def f(items):
                for item in sorted(set(items)):
                    print(item)
            """,
        )
        assert fs == []

    def test_rng_module_is_exempt(self, linter):
        fs = findings_for(
            linter, "import random\n", relpath="src/repro/utils/rng.py"
        )
        assert fs == []

    def test_time_in_telemetry_wallclock_context_still_fires(self, linter):
        # No blanket exemptions outside utils/rng: wall-clock reads in
        # simulation code are exactly the hazard R001 exists for.
        fs = findings_for(
            linter,
            "import time\n\nSTART = time.monotonic()\n",
            relpath="src/repro/core/dlp.py",
        )
        assert "R001" in rules_of(fs)


class TestR002FloatContamination:
    def test_float_literal_into_counter_fires(self, linter):
        fs = findings_for(
            linter,
            """
            def f(entry):
                entry.tda_hits = entry.tda_hits + 0.5
            """,
        )
        assert "R002" in rules_of(fs)

    def test_true_division_into_pd_fires(self, linter):
        fs = findings_for(
            linter,
            """
            def f(entry, nasc):
                entry.pd = nasc / 2
            """,
        )
        assert "R002" in rules_of(fs)

    def test_integer_arithmetic_is_fine(self, linter):
        fs = findings_for(
            linter,
            """
            def f(entry, nasc):
                entry.pd = min(max(entry.pd + (nasc >> 1), 0), 15)
            """,
        )
        assert fs == []


class TestR003BitfieldMasking:
    """The fixtures of the retired syntactic rule R003, each now proven
    (or refuted) by R006's interval analysis outside the simulation
    packages too."""

    def test_unclamped_increment_fires(self, linter):
        fs = findings_for(
            linter,
            """
            def f(entry):
                entry.pd = entry.pd + 4
            """,
        )
        assert rules_of(fs) == ["R006"]

    def test_augassign_fires(self, linter):
        fs = findings_for(
            linter,
            """
            def f(line):
                line.protected_life += 1
            """,
        )
        assert rules_of(fs) == ["R006"]

    def test_module_level_store_fires(self, linter):
        fs = findings_for(
            linter,
            """
            from repro.core.pdpt import PdptEntry

            ENTRY = PdptEntry()
            ENTRY.pd = ENTRY.pd + 4
            """,
        )
        assert rules_of(fs) == ["R006"]
        assert fs[0].line == 5

    def test_out_of_range_dataclass_default_fires(self, linter):
        fs = findings_for(
            linter,
            """
            from dataclasses import dataclass

            @dataclass
            class Fetch:
                first_insn_id: int = 200
            """,
        )
        assert rules_of(fs) == ["R006"]
        assert "first_insn_id" in fs[0].message

    def test_min_max_clamp_is_fine(self, linter):
        fs = findings_for(
            linter,
            """
            def f(entry, delta, pd_max):
                entry.pd = min(max(entry.pd + delta, 0), pd_max)
            """,
        )
        assert fs == []

    def test_mask_is_fine(self, linter):
        fs = findings_for(
            linter,
            """
            def f(entry, v):
                entry.insn_id = v & 0x7F
            """,
        )
        assert fs == []

    def test_guarded_decrement_is_fine(self, linter):
        fs = findings_for(
            linter,
            """
            def f(line):
                if line.protected_life > 0:
                    line.protected_life -= 1
            """,
        )
        assert fs == []

    def test_non_hw_field_is_ignored(self, linter):
        fs = findings_for(
            linter,
            """
            def f(line):
                line.lru_stamp = line.lru_stamp + 1
            """,
        )
        assert fs == []


class TestR004ProcessHazards:
    def test_mutable_default_fires(self, linter):
        fs = findings_for(
            linter,
            """
            def f(items=[]):
                items.append(1)
            """,
        )
        assert "R004" in rules_of(fs)

    def test_dict_default_fires(self, linter):
        fs = findings_for(linter, "def f(cache={}):\n    return cache\n")
        assert "R004" in rules_of(fs)

    def test_none_default_is_fine(self, linter):
        fs = findings_for(linter, "def f(items=None):\n    return items\n")
        assert fs == []

    def test_global_in_executor_code_fires(self, linter):
        fs = findings_for(
            linter,
            """
            _pool = None

            def init():
                global _pool
                _pool = object()
            """,
            relpath="src/repro/experiments/executor.py",
        )
        assert "R004" in rules_of(fs)

    def test_global_outside_executor_scope_is_fine(self, linter):
        fs = findings_for(
            linter,
            """
            _thing = None

            def init():
                global _thing
                _thing = object()
            """,
            relpath="src/repro/analysis/report.py",
        )
        assert fs == []


class TestEngineBehaviour:
    def test_inline_allow_suppresses(self, linter):
        fs = findings_for(
            linter,
            """
            def f(entry):
                entry.pd = entry.pd + 4  # repro-check: allow(R006)
            """,
        )
        assert fs == []

    def test_allow_star_suppresses_everything(self, linter):
        fs = findings_for(
            linter,
            """
            def f(entry):
                entry.pd = entry.pd + 0.5  # repro-check: allow(*)
            """,
        )
        assert fs == []

    def test_allow_of_other_rule_does_not_suppress(self, linter):
        fs = findings_for(
            linter,
            """
            def f(entry):
                entry.pd = entry.pd + 4  # repro-check: allow(R001)
            """,
        )
        assert "R006" in rules_of(fs)

    def test_nested_attribute_chain_reports_once(self, linter):
        fs = findings_for(
            linter,
            """
            import numpy as np

            def f():
                return np.random.default_rng()
            """,
        )
        r001 = [f for f in fs if f.rule == "R001"]
        assert len(r001) == 1

    def test_fingerprints_survive_line_moves(self, linter):
        src_a = "def f(entry):\n    entry.pd = entry.pd + 4\n"
        src_b = "# a new leading comment\n\n\n" + src_a
        fp_a = [f.fingerprint() for f in findings_for(linter, src_a)]
        fp_b = [f.fingerprint() for f in findings_for(linter, src_b)]
        assert fp_a and fp_a == fp_b

    def test_syntax_error_reported_as_finding(self, linter):
        fs = findings_for(linter, "def broken(:\n")
        assert fs and all(f.rule == "R000" for f in fs)

    def test_repo_lints_clean(self, linter):
        findings = linter.lint()
        assert findings == [], "\n".join(f.format() for f in findings)
