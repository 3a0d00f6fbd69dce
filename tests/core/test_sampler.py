"""Sampling window (Section 4.1.4: 200-access samples + instruction cap)."""

import pytest

from repro.core import ProtectionKnobs, make_policy
from repro.core.sampler import SampleWindow


class TestAccessSampling:
    def test_completes_at_access_limit(self):
        w = SampleWindow(access_limit=5, insn_limit=10**9)
        assert [w.tick_access() for _ in range(5)] == [False] * 4 + [True]
        assert w.samples_completed == 1

    def test_counter_resets_after_sample(self):
        w = SampleWindow(access_limit=3, insn_limit=10**9)
        for _ in range(3):
            w.tick_access()
        assert w.accesses == 0
        for _ in range(2):
            assert not w.tick_access()

    def test_paper_default_is_200(self):
        # the default is declared with the knobs that build the window
        assert make_policy("dlp").sampler.access_limit == 200

    def test_multiple_samples(self):
        w = SampleWindow(access_limit=2, insn_limit=10**9)
        completions = sum(w.tick_access() for _ in range(10))
        assert completions == 5


class TestInstructionCap:
    def test_cap_closes_window_with_accesses(self):
        w = SampleWindow(access_limit=200, insn_limit=100)
        w.tick_access()
        assert w.tick_instructions(100)
        assert w.closed_by["instructions"] == 1

    def test_cap_without_accesses_does_nothing(self):
        # an empty window has no hit data: no PD update possible
        w = SampleWindow(access_limit=200, insn_limit=100)
        assert not w.tick_instructions(500)

    def test_instruction_counter_accumulates(self):
        w = SampleWindow(access_limit=200, insn_limit=100)
        w.tick_access()
        assert not w.tick_instructions(60)
        assert w.tick_instructions(60)

    def test_reset(self):
        w = SampleWindow(access_limit=5, insn_limit=100)
        w.tick_access()
        w.tick_instructions(10)
        w.reset()
        assert w.accesses == 0
        assert w.instructions == 0


class TestValidation:
    def test_rejects_bad_limits(self):
        # the limits are range-checked where they are declared
        with pytest.raises(ValueError):
            ProtectionKnobs(sample_limit=0)
        with pytest.raises(ValueError):
            ProtectionKnobs(insn_sample_limit=0)


class TestAlignment:
    """PD updates must stay aligned to the access_limit boundary."""

    def test_overshoot_detected(self):
        w = SampleWindow(access_limit=200, insn_limit=10**9)
        w.accesses = 205  # a window close was skipped upstream
        with pytest.raises(RuntimeError, match="200-access aligned"):
            w.tick_access()

    def test_exact_alignment_never_overshoots(self):
        w = SampleWindow(access_limit=200, insn_limit=10**9)
        closes = sum(1 for _ in range(1000) if w.tick_access())
        assert closes == 5
        assert w.accesses == 0
