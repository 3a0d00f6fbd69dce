"""Seeded-violation fixtures for the static verification rules R006-R009.

Each rule gets sources that must fire and sources that must stay quiet,
lint through the real engine (scoping, suppression and dedup included).
The acceptance regressions live here too: reintroducing the historical
nasc ``or``-truthiness drift is caught by R007, and adding ``engine`` to
a store-key builder is caught by R008.
"""

import textwrap

import pytest

from repro.check.lint import Linter


@pytest.fixture()
def linter():
    return Linter()


def findings_for(linter, source, relpath):
    return linter.lint_source(textwrap.dedent(source), relpath)


def rules_of(findings):
    return [f.rule for f in findings]


class TestR006BitWidthProof:
    def test_unclamped_field_write_fires(self, linter):
        fs = findings_for(
            linter,
            """
            def bump(entry, delta):
                entry.pd = entry.pd + delta
            """,
            relpath="repro/core/seeded.py",
        )
        assert "R006" in rules_of(fs)

    def test_clamped_write_is_quiet(self, linter):
        fs = findings_for(
            linter,
            """
            def bump(entry, pd_max):
                entry.pd = min(entry.pd + 1, pd_max)
            """,
            relpath="repro/core/seeded.py",
        )
        assert "R006" not in rules_of(fs)

    def test_fastsim_packed_write_fires(self, linter):
        fs = findings_for(
            linter,
            """
            def fill(self, way, insn):
                self._iid[way] = insn
            """,
            relpath="repro/fastsim/seeded.py",
        )
        assert "R006" in rules_of(fs)

    def test_outside_simulation_packages_fires(self, linter):
        # the field table, not the package path, decides what is proven
        fs = findings_for(
            linter,
            """
            def bump(entry, delta):
                entry.pd = entry.pd + delta
            """,
            relpath="repro/analysis/seeded.py",
        )
        assert "R006" in rules_of(fs)

    def test_lru_cached_hash_pc_alias_proves(self, linter):
        fs = findings_for(
            linter,
            """
            from functools import lru_cache

            from repro.utils.hashing import hash_pc

            _insn_id = lru_cache(maxsize=1024)(hash_pc)


            class Op:
                def __init__(self, pc):
                    self.insn_id = _insn_id(pc)
            """,
            relpath="repro/gpu/seeded.py",
        )
        assert fs == []

    def test_lru_cached_unknown_function_fires(self, linter):
        fs = findings_for(
            linter,
            """
            from functools import lru_cache

            _insn_id = lru_cache(maxsize=1024)(int)


            class Op:
                def __init__(self, pc):
                    self.insn_id = _insn_id(pc)
            """,
            relpath="repro/gpu/seeded.py",
        )
        assert "R006" in rules_of(fs)

    def test_allow_marker_with_justification_suppresses(self, linter):
        fs = findings_for(
            linter,
            """
            def fill(self, way, insn):
                # repro-check: allow(R006) insn is hash_pc-folded upstream
                self._iid[way] = insn
            """,
            relpath="repro/fastsim/seeded.py",
        )
        assert "R006" not in rules_of(fs)


class TestR007OverrideGuard:
    def test_nasc_or_truthiness_regression(self, linter):
        # The historical bug shape: `or` drops an explicit nasc=0.
        fs = findings_for(
            linter,
            """
            def resolve(self, vta_assoc):
                nasc = self._nasc_override or vta_assoc
                return nasc
            """,
            relpath="repro/core/seeded.py",
        )
        r007 = [f for f in fs if f.rule == "R007"]
        assert r007, rules_of(fs)
        assert "nasc" in r007[0].message
        assert "historical nasc bug" in r007[0].message

    def test_bare_truthiness_conditional_fires(self, linter):
        fs = findings_for(
            linter,
            """
            def resolve(spec, assoc):
                return spec.vta_assoc if spec.vta_assoc else assoc
            """,
            relpath="repro/fastsim/seeded.py",
        )
        assert "R007" in rules_of(fs)

    def test_is_not_none_guard_is_quiet(self, linter):
        fs = findings_for(
            linter,
            """
            def resolve(spec, assoc):
                return spec.vta_assoc if spec.vta_assoc is not None else assoc
            """,
            relpath="repro/fastsim/seeded.py",
        )
        assert "R007" not in rules_of(fs)

    def test_unrelated_or_is_quiet(self, linter):
        fs = findings_for(
            linter,
            """
            def resolve(label, default):
                return label or default
            """,
            relpath="repro/core/seeded.py",
        )
        assert "R007" not in rules_of(fs)

    def test_outside_policy_packages_is_quiet(self, linter):
        fs = findings_for(
            linter,
            """
            def resolve(self, vta_assoc):
                return self._nasc_override or vta_assoc
            """,
            relpath="repro/serve/seeded.py",
        )
        assert "R007" not in rules_of(fs)


class TestR008KeyPurity:
    def test_engine_in_key_builder_regression(self, linter):
        # The law R008 exists for: engines are bit-identical, so a key
        # must never depend on which one computed the result.
        fs = findings_for(
            linter,
            """
            import json


            def cell_key(abbr, scheme, engine):
                doc = {"abbr": abbr, "scheme": scheme, "engine": engine}
                return json.dumps(doc, sort_keys=True)
            """,
            relpath="repro/experiments/seeded.py",
        )
        r008 = [f for f in fs if f.rule == "R008"]
        assert r008, rules_of(fs)
        assert "engine" in r008[0].message

    def test_engine_attribute_read_fires(self, linter):
        fs = findings_for(
            linter,
            """
            def key(self):
                return f"{self.abbr}-{self.engine}"
            """,
            relpath="repro/experiments/seeded.py",
        )
        assert "R008" in rules_of(fs)

    def test_unconditional_non_blocking_fires(self, linter):
        fs = findings_for(
            linter,
            """
            def fingerprint(cfg):
                return {"abbr": cfg.abbr, "non_blocking": cfg.non_blocking}
            """,
            relpath="repro/experiments/seeded.py",
        )
        assert "R008" in rules_of(fs)

    def test_guarded_non_blocking_is_quiet(self, linter):
        fs = findings_for(
            linter,
            """
            def fingerprint(cfg):
                doc = {"abbr": cfg.abbr}
                if cfg.non_blocking:
                    doc["non_blocking"] = True
                return doc
            """,
            relpath="repro/experiments/seeded.py",
        )
        assert "R008" not in rules_of(fs)

    def test_unsorted_json_dumps_fires(self, linter):
        fs = findings_for(
            linter,
            """
            import json


            def trace_key(doc):
                return json.dumps(doc)
            """,
            relpath="repro/trace/seeded.py",
        )
        assert "R008" in rules_of(fs)

    def test_sorted_json_dumps_is_quiet(self, linter):
        fs = findings_for(
            linter,
            """
            import json


            def trace_key(doc):
                return json.dumps(doc, sort_keys=True)
            """,
            relpath="repro/trace/seeded.py",
        )
        assert "R008" not in rules_of(fs)

    def test_process_lifetime_value_fires(self, linter):
        fs = findings_for(
            linter,
            """
            def job_key(self):
                return f"job-{id(self)}"
            """,
            relpath="repro/serve/seeded.py",
        )
        assert "R008" in rules_of(fs)

    def test_non_key_builder_is_exempt(self, linter):
        fs = findings_for(
            linter,
            """
            def describe(self, engine):
                return f"{self.abbr} via {engine}"
            """,
            relpath="repro/experiments/seeded.py",
        )
        assert "R008" not in rules_of(fs)

    def test_outside_store_packages_is_quiet(self, linter):
        fs = findings_for(
            linter,
            """
            def cell_key(engine):
                return str(engine)
            """,
            relpath="repro/core/seeded.py",
        )
        assert "R008" not in rules_of(fs)


class TestR009AsyncHygiene:
    def test_time_sleep_in_coroutine_fires(self, linter):
        fs = findings_for(
            linter,
            """
            import time


            async def pump(self):
                time.sleep(0.1)
            """,
            relpath="repro/serve/seeded.py",
        )
        r009 = [f for f in fs if f.rule == "R009"]
        assert r009
        assert "asyncio.sleep" in r009[0].message

    def test_future_result_fires(self, linter):
        fs = findings_for(
            linter,
            """
            async def run(self, future):
                return future.result()
            """,
            relpath="repro/serve/seeded.py",
        )
        assert "R009" in rules_of(fs)

    def test_shutdown_without_wait_false_fires(self, linter):
        fs = findings_for(
            linter,
            """
            async def stop(self):
                self._pool.shutdown(wait=True)
            """,
            relpath="repro/serve/seeded.py",
        )
        assert "R009" in rules_of(fs)

    def test_shutdown_wait_false_is_quiet(self, linter):
        fs = findings_for(
            linter,
            """
            async def stop(self):
                self._pool.shutdown(wait=False)
            """,
            relpath="repro/serve/seeded.py",
        )
        assert "R009" not in rules_of(fs)

    def test_open_in_coroutine_fires(self, linter):
        fs = findings_for(
            linter,
            """
            async def dump(self, path):
                with open(path) as handle:
                    return handle.read()
            """,
            relpath="repro/serve/seeded.py",
        )
        assert "R009" in rules_of(fs)

    def test_nested_sync_helper_is_exempt(self, linter):
        fs = findings_for(
            linter,
            """
            async def run(self, loop, pool, path):
                def work():
                    with open(path) as handle:
                        return handle.read()

                return await loop.run_in_executor(pool, work)
            """,
            relpath="repro/serve/seeded.py",
        )
        assert "R009" not in rules_of(fs)

    def test_sync_function_is_exempt(self, linter):
        fs = findings_for(
            linter,
            """
            import time


            def pump(self):
                time.sleep(0.1)
            """,
            relpath="repro/serve/seeded.py",
        )
        assert "R009" not in rules_of(fs)

    def test_outside_serve_is_quiet(self, linter):
        fs = findings_for(
            linter,
            """
            import time


            async def pump(self):
                time.sleep(0.1)
            """,
            relpath="repro/experiments/seeded.py",
        )
        assert "R009" not in rules_of(fs)
