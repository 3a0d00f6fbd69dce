"""The one declaration of the protection knobs, and the check that
refuses a knob a scheme does not take."""

import dataclasses

import pytest

from repro.core import (
    KNOB_NAMES,
    DlpPolicy,
    GlobalProtectionPolicy,
    ProtectionKnobs,
    check_policy_kwargs,
)
from repro.core.pdpt import PD_BITS


class TestDeclaration:
    def test_defaults_are_the_papers(self):
        knobs = ProtectionKnobs()
        assert (knobs.sample_limit, knobs.insn_sample_limit, knobs.vta_assoc,
                knobs.pd_bits, knobs.nasc, knobs.bypass_enabled) == \
            (200, 100_000, None, PD_BITS, None, True)
        assert knobs.pl_max == (1 << PD_BITS) - 1

    def test_knob_names_in_declaration_order(self):
        assert KNOB_NAMES == ("sample_limit", "insn_sample_limit",
                              "vta_assoc", "pd_bits", "nasc",
                              "bypass_enabled")

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ProtectionKnobs().nasc = 2

    @pytest.mark.parametrize("cls", [DlpPolicy, GlobalProtectionPolicy])
    def test_policies_hold_the_declaration(self, cls):
        assert cls().knobs == ProtectionKnobs()
        assert cls(nasc=0, pd_bits=6).knobs == \
            ProtectionKnobs(nasc=0, pd_bits=6)


class TestResolve:
    def test_unset_knobs_follow_the_cache(self):
        assert ProtectionKnobs().resolve(4) == (4, 4)

    def test_nasc_follows_an_explicit_vta(self):
        assert ProtectionKnobs(vta_assoc=8).resolve(4) == (8, 8)

    def test_nasc_zero_stays_zero(self):
        # a truthiness fallback would turn the freeze ablation into Nasc 4
        assert ProtectionKnobs(nasc=0).resolve(4) == (4, 0)

    def test_explicit_nasc_wins(self):
        assert ProtectionKnobs(vta_assoc=2, nasc=3).resolve(4) == (2, 3)


class TestRangeChecks:
    @pytest.mark.parametrize("knobs", [
        {"sample_limit": 0},
        {"insn_sample_limit": 0},
        {"vta_assoc": 0},
        {"nasc": -1},
        {"pd_bits": -1},
        {"pd_bits": 0},
        {"pd_bits": "4"},
        {"sample_limit": 2.5},
        {"nasc": 1.5},
        {"vta_assoc": True},
        {"bypass_enabled": "no"},
        {"bypass_enabled": 2},
    ])
    def test_refused(self, knobs):
        with pytest.raises(ValueError):
            ProtectionKnobs(**knobs)

    @pytest.mark.parametrize("knobs", [
        {"sample_limit": 1},
        {"insn_sample_limit": 1},
        {"vta_assoc": 1},
        {"nasc": 0},
        {"pd_bits": 1},
        {"pd_bits": 2},
        {"pd_bits": 6},
        {"bypass_enabled": False},
        {"bypass_enabled": 0},
        {"bypass_enabled": 1},
    ])
    def test_boundaries_accepted(self, knobs):
        ProtectionKnobs(**knobs)


class TestCheckPolicyKwargs:
    def test_protected_scheme_takes_the_declared_knobs(self):
        check_policy_kwargs("dlp", {"nasc": 0, "pd_bits": 6})
        check_policy_kwargs("global_protection", {"vta_assoc": 2})

    def test_no_knobs_is_always_fine(self):
        for scheme in ("baseline", "stall_bypass", "32kb", "dlp"):
            check_policy_kwargs(scheme, {})

    def test_unknown_knob_names_the_accepted_ones(self):
        with pytest.raises(ValueError) as info:
            check_policy_kwargs("dlp", {"pl": 2})
        message = str(info.value)
        assert message.startswith("scheme 'dlp' takes no knob pl;")
        assert "\n" not in message
        for name in KNOB_NAMES:
            assert name in message

    @pytest.mark.parametrize("scheme", ["baseline", "stall_bypass", "64kb"])
    def test_unprotected_scheme_takes_none(self, scheme):
        with pytest.raises(ValueError, match="takes none"):
            check_policy_kwargs(scheme, {"nasc": 1})

    def test_refused_value(self):
        with pytest.raises(ValueError, match="Nasc"):
            check_policy_kwargs("dlp", {"nasc": -1})
