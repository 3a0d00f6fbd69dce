"""Hardware bit-width contract tests (paper Fig. 8 widths).

All tests use :func:`repro.check.contracts.instrument` to build
force-checked subclasses, so they enforce contracts regardless of the
``REPRO_CHECK`` environment the suite runs under.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cache.line import CacheLine
from repro.cache.mshr import MshrEntry
from repro.check.contracts import (
    BitField,
    HardwareContractViolation,
    SaturatingCounter,
    declared_contracts,
    hw_checked,
    instrument,
    set_field_width,
)
from repro.core.pdpt import (
    INSN_ID_BITS,
    PD_BITS,
    TDA_HIT_BITS,
    VTA_HIT_BITS,
    PdptEntry,
    PredictionTable,
)
from repro.core.protection import pd_increment
from repro.core.vta import VictimEntry
from repro.utils.hashing import hash_pc

CheckedEntry = instrument(PdptEntry)
CheckedLine = instrument(CacheLine)


class TestDeclarations:
    def test_paper_widths_declared(self):
        spec = dict(declared_contracts(PdptEntry))
        assert spec["insn_id"].width == 7
        assert spec["tda_hits"].width == 8
        assert spec["vta_hits"].width == 10
        assert spec["pd"].width == 4

    def test_line_widths_declared(self):
        spec = dict(declared_contracts(CacheLine))
        assert spec["insn_id"].width == 7
        assert spec["pending_insn_id"].width == 7
        assert spec["protected_life"].width == 4

    def test_vta_and_mshr_carry_the_7bit_id(self):
        assert dict(declared_contracts(VictimEntry))["insn_id"].width == 7
        assert dict(declared_contracts(MshrEntry))["first_insn_id"].width == 7

    def test_enforcement_matches_environment(self):
        # The production classes carry descriptors iff REPRO_CHECK was set
        # at import time: zero overhead in a default build.
        from repro.check.contracts import CheckedField, contracts_enabled

        is_checked = isinstance(PdptEntry.__dict__.get("pd"), CheckedField)
        assert is_checked == contracts_enabled()

    def test_bad_contract_declarations_rejected(self):
        with pytest.raises(ValueError):
            BitField(0)
        with pytest.raises(TypeError):
            hw_checked(pd=4)(type("X", (), {}))
        with pytest.raises(ValueError):
            instrument(type("NoSpec", (), {}))


class TestProtectedLifeSaturation:
    """PL is a 4-bit field: the paper's maximum protection is 2**4 - 1."""

    def test_pl_saturates_at_15(self):
        line = CheckedLine(way=0)
        line.grant_protection(pd=999, pl_max=(1 << 4) - 1)
        assert line.protected_life == 15

    def test_unclamped_pl_write_raises(self):
        line = CheckedLine(way=0)
        with pytest.raises(HardwareContractViolation):
            line.protected_life = 16

    def test_negative_pl_write_raises(self):
        line = CheckedLine(way=0)
        with pytest.raises(HardwareContractViolation):
            line.protected_life = -1

    def test_decay_floors_at_zero(self):
        line = CheckedLine(way=0)
        line.protected_life = 1
        line.decay_protection()
        line.decay_protection()
        assert line.protected_life == 0


class TestSevenBitInstructionId:
    def test_wrapped_ids_accepted(self):
        for pc in (0x0, 0x1234, 0xFFFF_FFFF, 2**40 + 17):
            line = CheckedLine(way=0)
            line.insn_id = hash_pc(pc)
            assert 0 <= line.insn_id < 128

    def test_unwrapped_id_rejected(self):
        line = CheckedLine(way=0)
        with pytest.raises(HardwareContractViolation):
            line.insn_id = 128  # 8 bits: the hash must fold, not pass through

    def test_pdpt_entry_id_rejected_at_construction(self):
        with pytest.raises(HardwareContractViolation):
            CheckedEntry(insn_id=1 << 7)


class TestTypeDiscipline:
    def test_float_write_raises(self):
        entry = CheckedEntry(insn_id=3)
        with pytest.raises(HardwareContractViolation) as exc:
            entry.tda_hits = 2.5
        assert "float" in str(exc.value)

    def test_bool_write_raises(self):
        entry = CheckedEntry(insn_id=3)
        with pytest.raises(HardwareContractViolation):
            entry.pd = True

    def test_numpy_style_index_ints_accepted(self):
        class FakeNumpyInt:
            def __init__(self, v):
                self.v = v

            def __index__(self):
                return self.v

        entry = CheckedEntry(insn_id=3)
        entry.pd = FakeNumpyInt(7)
        assert entry.pd.__index__() == 7


class TestSaturatingCounters:
    def test_tda_counter_saturates_at_8_bits(self):
        table = PredictionTable()
        table.entries = [CheckedEntry(i) for i in range(table.num_entries)]
        for _ in range(300):
            table.record_tda_hit(5)
        assert table.entries[5].tda_hits == (1 << TDA_HIT_BITS) - 1

    def test_vta_counter_saturates_at_10_bits(self):
        table = PredictionTable()
        table.entries = [CheckedEntry(i) for i in range(table.num_entries)]
        for _ in range(1500):
            table.record_vta_hit(9)
        assert table.entries[9].vta_hits == (1 << VTA_HIT_BITS) - 1

    def test_overflowing_write_is_a_violation_not_a_wrap(self):
        entry = CheckedEntry(insn_id=0)
        entry.tda_hits = (1 << TDA_HIT_BITS) - 1
        with pytest.raises(HardwareContractViolation):
            entry.tda_hits += 1


class TestPdSteps:
    """PD increments are {0, 1/2, 1, 2, 4} x Nasc (Section 4.2)."""

    @pytest.mark.parametrize("nasc", [4, 8])
    def test_step_set(self, nasc):
        allowed = {0, nasc >> 1, nasc, 2 * nasc, 4 * nasc}
        for hit_vta in range(0, 25):
            for hit_tda in range(0, 25):
                assert pd_increment(nasc, hit_vta, hit_tda) in allowed

    def test_steps_stay_inside_the_4bit_pd(self):
        table = PredictionTable()
        table.entries = [CheckedEntry(i) for i in range(table.num_entries)]
        for delta in (4, 8, 16, 99):
            table.adjust_pd(2, delta)  # clamped to pd_max by the table
        assert table.pd(2) == (1 << PD_BITS) - 1


class TestWidthOverrides:
    def test_set_field_width_widens_one_instance(self):
        entry = CheckedEntry(insn_id=0)
        set_field_width(entry, "pd", 6)
        entry.pd = 63
        assert entry.pd == 63
        with pytest.raises(HardwareContractViolation):
            entry.pd = 64
        # other instances keep the paper width
        other = CheckedEntry(insn_id=1)
        with pytest.raises(HardwareContractViolation):
            other.pd = 63

    def test_set_field_width_noop_on_unchecked_class(self):
        entry = PdptEntry(0)
        set_field_width(entry, "pd", 2)  # must not raise either way

    def test_set_field_width_rejects_bad_width(self):
        with pytest.raises(ValueError):
            set_field_width(CheckedEntry(insn_id=0), "pd", 0)

    def test_prediction_table_ablation_widths(self):
        # Force-checked subclass entries via a subclassed table would be
        # heavyweight; instead verify the table's own widening hook.
        table = PredictionTable(
            num_entries=256, tda_hit_bits=4, vta_hit_bits=5, pd_bits=6
        )
        assert table.entries[255].insn_id == 255
        assert table.pd_max == 63

    def test_instrument_override(self):
        Narrow = instrument(PdptEntry, pd=BitField(2))
        entry = Narrow(insn_id=0)
        entry.pd = 3
        with pytest.raises(HardwareContractViolation):
            entry.pd = 4


class TestSaturatingCounterKind:
    def test_kinds_render_in_messages(self):
        entry = CheckedEntry(insn_id=0)
        with pytest.raises(HardwareContractViolation) as exc:
            entry.vta_hits = 1 << VTA_HIT_BITS
        assert "saturating counter" in str(exc.value)
        with pytest.raises(HardwareContractViolation) as exc:
            entry.insn_id = 1 << INSN_ID_BITS
        assert "bit-field" in str(exc.value)


class TestImportFootprint:
    def test_simulator_import_does_not_load_the_linter(self):
        # repro.core imports repro.check for the contracts; the linter
        # and its analyzers must stay out of every simulation process
        src = Path(__file__).resolve().parents[2] / "src"
        script = (
            "import sys\n"
            "import repro.core\n"
            "assert 'repro.check.contracts' in sys.modules\n"
            "loaded = sorted(m for m in sys.modules if m.startswith("
            "('repro.check.lint', 'repro.check.rules', "
            "'repro.check.analysis')))\n"
            "assert not loaded, loaded\n"
        )
        subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(src)),
            check=True,
            timeout=60,
        )
