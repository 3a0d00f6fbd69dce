"""Tests for the engine-parity extractor and its committed manifest.

The live extraction must satisfy the cross-engine laws and match the
committed ``parity_manifest.json`` byte-for-byte; mutated copies must be
flagged with actionable messages.  ``classify_guard`` — the heart of
R007 — is unit-tested on expression fixtures directly, and R006's field
table is checked against the extraction it is derived from.
"""

import ast
import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check.analysis import parity
from repro.check.analysis.intervals import ValueRangeAnalyzer
from repro.check.analysis.parity import (
    check_consistency,
    classify_guard,
    compute_parity,
    diff_parity,
    live_parity,
    load_parity,
)
from repro.check.lint import run_check
from repro.check.manifest import package_root
from repro.check.rules.base import ModuleSource
from repro.check.rules.bit_widths import (
    _names_a_field,
    default_field_table,
    field_table,
)


@pytest.fixture(scope="module")
def current():
    return compute_parity()


class TestLiveExtraction:
    def test_consistency_laws_hold(self, current):
        assert check_consistency(current) == []

    def test_manifest_is_in_sync(self, current):
        assert diff_parity(load_parity(), current) == []

    def test_manifest_round_trips_through_json(self, current):
        assert json.loads(json.dumps(current)) == load_parity()

    def test_extraction_has_all_surfaces(self, current):
        # the knobs are declared once (repro.core.protected), so there
        # are no knob defaults or fallback guards left to compare
        assert set(current) == {
            "version", "width_constants", "fastsim_constant_imports",
            "fastsim_constant_redefinitions", "hw_widths",
            "packed_correspondence",
        }
        assert current["hw_widths"], "no @hw_checked declarations extracted"
        assert current["fastsim_constant_redefinitions"] == []

    def test_live_extraction_is_the_computed_one(self, current):
        assert live_parity(package_root()) == current


class TestConsistencyOnDrift:
    def test_redefined_width_constant_is_flagged(self, current):
        mutated = copy.deepcopy(current)
        mutated["fastsim_constant_redefinitions"] = ["PD_BITS"]
        problems = check_consistency(mutated)
        assert any("redefines width constants" in p for p in problems)

    def test_unimported_width_constant_is_flagged(self, current):
        mutated = copy.deepcopy(current)
        mutated["fastsim_constant_imports"].remove("TDA_HIT_BITS")
        problems = check_consistency(mutated)
        assert any("does not import ['TDA_HIT_BITS']" in p for p in problems)

    def test_conflicting_hw_widths_are_flagged(self, current):
        mutated = copy.deepcopy(current)
        site = dict(next(iter(mutated["hw_widths"].values())))
        field = next(iter(site))
        site[field] = 99
        mutated["hw_widths"]["repro/core/seeded.py:Seeded"] = site
        problems = check_consistency(mutated)
        assert any(
            f"hardware field {field!r} declared with conflicting" in p
            for p in problems
        )

    def test_pl_must_mirror_pd_width(self, current):
        mutated = copy.deepcopy(current)
        mutated["width_constants"]["PL_BITS"] = 5
        problems = check_consistency(mutated)
        assert any("must share its width" in p for p in problems)

    def test_packed_array_claiming_an_undeclared_field_is_flagged(
        self, current
    ):
        mutated = copy.deepcopy(current)
        mutated["packed_correspondence"]["_zzz"] = "zzz_hits"
        problems = check_consistency(mutated)
        assert any(
            "'_zzz'" in p and "no @hw_checked declaration" in p
            for p in problems
        )
        # R006 builds its table from the same extraction without the
        # orphan, and still proves the declared fields
        table = field_table(mutated)
        assert "_zzz" not in table.packed_fields
        tree = ast.parse(
            "def f(self, i, v):\n"
            "    self._zzz[i] = v\n"
            "    self._pdl[i] = v\n"
        )
        violations = ValueRangeAnalyzer(table).analyze_module(tree)
        assert [v.field_name for v in violations] == ["_pdl"]


class TestDerivedFieldTable:
    """R006's field table is read off the extraction; these are the
    widths its hand-written tables used to hold."""

    def test_committed_manifest_gives_the_paper_widths(self):
        table = field_table(load_parity())
        assert table.scalar_fields == {
            "pd": 4, "protected_life": 4, "tda_hits": 8, "vta_hits": 10,
            "insn_id": 7, "pending_insn_id": 7, "first_insn_id": 7,
            "global_pd": 4, "_gpd": 4,
        }
        assert table.packed_fields == {
            "_pli": 4, "_iid": 7, "_pnd": 7, "_pdt": 8, "_pdv": 10,
            "_pdl": 4, "_vta_iid": 7,
        }
        assert table.bound_tokens == {
            "pd_max": 15, "_pd_max": 15, "pl_max": 15, "_pl_max": 15,
            "tda_hit_max": 255, "_tda_hit_max": 255,
            "vta_hit_max": 1023, "_vta_hit_max": 1023,
        }
        assert table.const_names == {
            "INSN_ID_BITS": 7, "TDA_HIT_BITS": 8, "VTA_HIT_BITS": 10,
            "PD_BITS": 4, "PL_BITS": 4, "PDPT_ENTRIES": 128,
        }

    def test_live_table_matches_the_manifest(self):
        assert default_field_table() == field_table(load_parity())

    def test_import_and_linter_set_up_run_no_extraction(self):
        # the table is extracted on the first check, so importing the
        # rules and building a linter parse no source file
        src = Path(__file__).resolve().parents[2] / "src"
        script = (
            "from repro.check.lint import Linter\n"
            "from repro.check.rules.bit_widths import default_field_table\n"
            "Linter()\n"
            "assert default_field_table.cache_info().currsize == 0\n"
        )
        subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(src)),
            check=True,
            timeout=60,
        )

    def test_one_check_run_extracts_once(self, monkeypatch):
        # R006's field table and R007's checks read one extraction
        calls = []
        compute = parity.compute_parity

        def counting(root=None):
            calls.append(root)
            return compute(root)

        monkeypatch.setattr(parity, "compute_parity", counting)
        parity.live_parity.cache_clear()
        default_field_table.cache_clear()
        try:
            assert run_check(out=lambda line: None) == 0
        finally:
            parity.live_parity.cache_clear()
            default_field_table.cache_clear()
        assert calls == [package_root()]

    def test_text_prefilter_keeps_the_modules_the_walk_keeps(self):
        table = default_field_table()
        names = table.scalar_fields.keys() | table.packed_fields.keys()
        kept = []
        for path in sorted(package_root().rglob("*.py")):
            module = ModuleSource(path.name, path.read_text(encoding="utf-8"))
            walked = any(
                (isinstance(node, ast.Attribute) and node.attr in names)
                or (isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)
                    and node.target.id in names)
                for node in ast.walk(module.tree)
            )
            assert _names_a_field(module, table) == walked, path
            kept.append(walked)
        assert 0 < sum(kept) < len(kept)

    def test_a_wider_declaration_widens_its_packed_array(self, current):
        mutated = copy.deepcopy(current)
        for fields in mutated["hw_widths"].values():
            if "pd" in fields:
                fields["pd"] = 5
        table = field_table(mutated)
        assert table.scalar_fields["pd"] == 5
        assert table.packed_fields["_pdl"] == 5
        assert table.scalar_fields["protected_life"] == 4

    def test_unresolved_width_is_left_out(self, current):
        mutated = copy.deepcopy(current)
        for fields in mutated["hw_widths"].values():
            if "vta_hits" in fields:
                fields["vta_hits"] = "<unresolved:VTA_BITS>"
        mutated["width_constants"]["VTA_HIT_BITS"] = "<unresolved:X>"
        table = field_table(mutated)
        assert "vta_hits" not in table.scalar_fields
        assert "_pdv" not in table.packed_fields
        assert "vta_hit_max" not in table.bound_tokens


class TestDiff:
    def test_missing_manifest_points_at_update_parity(self, current):
        (message,) = diff_parity(None, current)
        assert "--update-parity" in message

    def test_mutated_extraction_diffs_with_rebaseline_hint(self, current):
        mutated = copy.deepcopy(current)
        mutated["width_constants"]["PD_BITS"] = 5
        messages = diff_parity(load_parity(), mutated)
        assert messages
        assert all("--update-parity" in m for m in messages)
        assert any("width_constants.PD_BITS" in m for m in messages)


def guard_of(expr):
    return classify_guard(ast.parse(expr, mode="eval").body)


class TestClassifyGuard:
    def test_or_truthiness(self):
        assert guard_of("self._nasc_override or nasc") == \
            ("nasc", "or_truthiness")

    def test_is_not_none(self):
        assert guard_of("vta_assoc if vta_assoc is not None else assoc") == \
            ("vta_assoc", "is_not_none")

    def test_inverted_is_none(self):
        assert guard_of("assoc if vta_assoc is None else vta_assoc") == \
            ("vta_assoc", "is_not_none")

    def test_bare_truthiness(self):
        assert guard_of("vta_assoc if vta_assoc else assoc") == \
            ("vta_assoc", "truthiness")

    def test_unrelated_expressions_pass(self):
        assert guard_of("x or y") is None
        assert guard_of("x if x is not None else y") is None
        assert guard_of("nasc + 1") is None
