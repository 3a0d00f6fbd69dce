"""Unit tests for the R006 abstract-interpretation engine.

The :class:`Interval` lattice and arithmetic are tested directly; the
analyzer behaviours (branch refinement, clamp idioms, loops, aliases,
call summaries) are tested by driving :class:`ValueRangeAnalyzer` over
small parsed sources against the repo's default field table.
"""

import ast
import textwrap

import pytest

from repro.check.analysis.intervals import INF, Interval, ValueRangeAnalyzer
from repro.check.rules.bit_widths import default_field_table

TOP = Interval.top()


class TestIntervalDomain:
    def test_const_and_of_bits(self):
        assert Interval.const(7) == Interval(7, 7)
        assert Interval.of_bits(4) == Interval(0, 15)
        assert Interval.of_bits(7) == Interval(0, 127)

    def test_predicates(self):
        assert Interval.const(3).is_const()
        assert not TOP.is_const()
        assert Interval(1, 0).is_bottom()
        assert Interval(0, 15).within(0, 15)
        assert not Interval(0, 16).within(0, 15)

    def test_join_meet(self):
        a, b = Interval(0, 4), Interval(2, 9)
        assert a.join(b) == Interval(0, 9)
        assert a.meet(b) == Interval(2, 4)
        assert Interval(1, 0).join(a) == a
        assert a.meet(Interval(20, 30)).is_bottom()

    def test_add_sub_neg(self):
        assert Interval(0, 15).add(Interval.const(1)) == Interval(1, 16)
        assert Interval(0, 15).sub(Interval.const(1)) == Interval(-1, 14)
        assert Interval(2, 5).neg() == Interval(-5, -2)

    def test_mul_corners_handle_infinity(self):
        assert Interval(2, 3).mul(Interval(4, 5)) == Interval(8, 15)
        # 0 * inf must not poison the result with NaN
        spanning = Interval(0, INF).mul(Interval.const(0))
        assert spanning == Interval(0, 0)

    def test_shifts(self):
        assert Interval(0, 255).rshift(Interval.const(4)) == Interval(0, 15)
        assert Interval(0, 3).lshift(Interval.const(2)) == Interval(0, 12)
        # non-constant shift amounts are unknown
        assert Interval(0, 255).rshift(Interval(0, 4)) == TOP

    def test_bitand_mask_idiom(self):
        assert Interval(0, INF).bitand(Interval.const(0x7F)) == Interval(0, 127)
        assert TOP.bitand(Interval.const(15)) == Interval(0, 15)
        # commuted: constant on the left
        assert Interval.const(0x7F).bitand(Interval(0, INF)) == Interval(0, 127)

    def test_mod_and_floordiv(self):
        assert Interval(0, INF).mod(Interval.const(128)) == Interval(0, 127)
        assert Interval(0, 255).floordiv(Interval.const(16)) == Interval(0, 15)
        assert Interval(0, 10).mod(Interval(-5, 5)) == TOP

    def test_min_max(self):
        assert Interval(0, INF).min_(Interval.const(15)) == Interval(0, 15)
        assert Interval(-INF, 15).max_(Interval.const(0)) == Interval(0, 15)

    def test_bottom_propagates(self):
        bottom = Interval(1, 0)
        assert bottom.add(Interval.const(1)).is_bottom()
        assert Interval.const(1).sub(bottom).is_bottom()
        assert bottom.min_(Interval.const(3)).is_bottom()


def violations_in(source):
    analyzer = ValueRangeAnalyzer(default_field_table())
    return analyzer.analyze_module(ast.parse(textwrap.dedent(source)))


def fields_of(violations):
    return [v.field_name for v in violations]


class TestAnalyzerStores:
    def test_unclamped_increment_fires(self):
        vs = violations_in(
            """
            def f(entry):
                entry.pd = entry.pd + 1
            """
        )
        assert fields_of(vs) == ["pd"]
        assert vs[0].bits == 4
        assert "4-bit" in vs[0].describe()

    def test_min_clamp_proves(self):
        assert violations_in(
            """
            def f(entry, pd_max):
                entry.pd = min(entry.pd + 1, pd_max)
            """
        ) == []

    def test_unguarded_decrease_fires(self):
        vs = violations_in(
            """
            def f(entry):
                entry.pd = entry.pd - 1
            """
        )
        assert fields_of(vs) == ["pd"]

    def test_mask_fold_proves(self):
        assert violations_in(
            """
            def f(line, value):
                line.insn_id = value & 0x7F
            """
        ) == []

    def test_unknown_value_is_a_finding_not_a_pass(self):
        vs = violations_in(
            """
            def f(line, value):
                line.insn_id = value
            """
        )
        assert fields_of(vs) == ["insn_id"]


class TestAnalyzerRefinement:
    def test_branch_test_refines_the_arm(self):
        assert violations_in(
            """
            def f(entry, pd_max):
                if entry.pd < pd_max:
                    entry.pd = entry.pd + 1
            """
        ) == []

    def test_raise_refines_the_fall_through(self):
        assert violations_in(
            """
            def f(entry, delta, pd_max):
                if delta < 0:
                    raise ValueError(delta)
                entry.pd = min(delta, pd_max)
            """
        ) == []

    def test_without_the_raise_the_same_store_fires(self):
        vs = violations_in(
            """
            def f(entry, delta, pd_max):
                entry.pd = min(delta, pd_max)
            """
        )
        assert fields_of(vs) == ["pd"]

    def test_truthiness_refines_positive(self):
        assert violations_in(
            """
            def f(line):
                if line.protected_life:
                    line.protected_life = line.protected_life - 1
            """
        ) == []

    def test_ifexp_clamp_idioms(self):
        assert violations_in(
            """
            def f(entry, pd_max):
                npd = entry.pd + 1
                entry.pd = npd if npd < pd_max else pd_max

            def g(entry):
                npd = entry.pd - 1
                entry.pd = npd if npd > 0 else 0
            """
        ) == []

    def test_bound_token_parameter_is_exact(self):
        # pl_max seeds as the constant 15, not just "a 4-bit value"
        assert violations_in(
            """
            def f(line, pl_max):
                line.protected_life = pl_max
            """
        ) == []


class TestAnalyzerLoopsAndAliases:
    def test_loop_body_clamp_survives_the_join(self):
        assert violations_in(
            """
            def f(entry, items, pd_max):
                for _ in items:
                    entry.pd = min(entry.pd + 1, pd_max)
            """
        ) == []

    def test_loop_accumulation_without_clamp_fires(self):
        vs = violations_in(
            """
            def f(entry, items):
                for _ in items:
                    entry.pd = entry.pd + 1
            """
        )
        assert "pd" in fields_of(vs)

    def test_packed_array_alias_tracked(self):
        vs = violations_in(
            """
            def f(self, way):
                pdl = self._pdl
                pdl[way] = 20
            """
        )
        assert fields_of(vs) == ["_pdl"]

    def test_packed_array_alias_clamp_proves(self):
        assert violations_in(
            """
            def f(self, way):
                pdl = self._pdl
                pdl[way] = min(pdl[way] + 1, self._pd_max)
            """
        ) == []

    def test_whole_array_literal_fill(self):
        vs = violations_in(
            """
            def f(self, n):
                self._pdl = [0] * n
                self._pli = [99] * n
            """
        )
        assert fields_of(vs) == ["_pli"]

    def test_slice_copy_is_as_wide_as_its_source(self):
        # 8-bit TDA-hit counters from their own field prove; from the
        # 10-bit VTA-hit field, or from an unknown list, they do not
        vs = violations_in(
            """
            def f(dst, src):
                dst._pdt[:] = src._pdt
                dst._pdt[:] = src._pdv
                dst._pdt[:] = src.other
            """
        )
        assert fields_of(vs) == ["_pdt", "_pdt"]


class TestAnalyzerSummaries:
    def test_local_call_summary(self):
        assert violations_in(
            """
            def fold(value):
                return value & 15

            def f(entry, value):
                entry.pd = fold(value)
            """
        ) == []

    def test_local_call_summary_reports_bad_return(self):
        vs = violations_in(
            """
            def widen(value):
                return value + 1000

            def f(entry, value):
                entry.pd = widen(value)
            """
        )
        assert fields_of(vs) == ["pd"]

    def test_hash_pc_known_return(self):
        assert violations_in(
            """
            from repro.utils.hashing import hash_pc

            def f(line, pc):
                line.insn_id = hash_pc(pc)
            """
        ) == []

    def test_local_lru_cache_alias_returns_what_it_wraps(self):
        assert violations_in(
            """
            from functools import lru_cache

            from repro.utils.hashing import hash_pc

            def f(line, pc):
                fold = lru_cache(maxsize=8)(hash_pc)
                line.insn_id = fold(pc)
            """
        ) == []

    def test_recursion_degrades_to_unknown(self):
        vs = violations_in(
            """
            def loop(value):
                return loop(value)

            def f(entry, value):
                entry.pd = loop(value)
            """
        )
        assert fields_of(vs) == ["pd"]


class TestClassDefaults:
    def test_in_range_default_is_fine(self):
        assert violations_in(
            """
            class Entry:
                pd: int = 0
                tda_hits: int = 255
            """
        ) == []

    def test_out_of_range_default_fires(self):
        vs = violations_in(
            """
            class Entry:
                pd: int = 20
            """
        )
        assert fields_of(vs) == ["pd"]
