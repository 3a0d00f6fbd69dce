"""Analytical model invariants: one profile, every scheme and geometry."""

from __future__ import annotations

import pytest

from repro.experiments.runner import harness_config
from repro.predict import (
    PREDICTABLE_SCHEMES,
    PredictionError,
    predict,
    profile_workload,
)

CONFIG = harness_config(2)


@pytest.fixture(scope="module")
def profile():
    return profile_workload("BFS", CONFIG, scale=0.25)


class TestContract:
    def test_every_scheme_predicts(self, profile):
        for scheme in PREDICTABLE_SCHEMES:
            p = predict(profile, scheme, CONFIG, calibration=None)
            assert p.scheme == scheme
            assert 0.0 <= p.miss_rate <= 1.0
            assert 0.0 <= p.hit_rate <= 1.0
            assert p.reads == profile.reads
            assert p.hits >= 0 and p.misses >= 0 and p.bypasses >= 0

    def test_unknown_scheme_rejected(self, profile):
        with pytest.raises(PredictionError):
            predict(profile, "fifo", CONFIG)

    def test_policy_kwargs_rejected_for_lru_schemes(self, profile):
        with pytest.raises(PredictionError):
            predict(profile, "baseline", CONFIG, calibration=None, nasc=2)

    def test_policy_kwargs_accepted_for_protected_schemes(self, profile):
        base = predict(profile, "dlp", CONFIG, calibration=None)
        wide = predict(profile, "dlp", CONFIG, calibration=None, pd_bits=5)
        assert 0.0 <= wide.miss_rate <= 1.0
        assert base.scheme == wide.scheme == "dlp"

    def test_instruction_cap_rejected_by_name(self, profile):
        # the exact tiers take this knob; the model has no instruction cap
        with pytest.raises(PredictionError, match="insn_sample_limit"):
            predict(profile, "dlp", CONFIG, calibration=None,
                    insn_sample_limit=500)

    @pytest.mark.parametrize("knobs", [{"bogus": 1}, {"nasc": -1},
                                       {"sample_limit": 2.5}])
    def test_knobs_the_declaration_refuses_are_rejected(self, profile, knobs):
        with pytest.raises(PredictionError):
            predict(profile, "dlp", CONFIG, calibration=None, **knobs)

    def test_geometry_mismatch_rejected(self, profile):
        import dataclasses

        other = dataclasses.replace(profile, num_sets=profile.num_sets * 2)
        with pytest.raises(PredictionError):
            predict(other, "baseline", CONFIG, calibration=None)

    def test_to_dict_is_flagged_analytical(self, profile):
        doc = predict(profile, "baseline", CONFIG, calibration=None).to_dict()
        assert doc["tier"] == "analytical"
        assert doc["calibrated"] is False
        assert "error" not in doc      # raw model carries no error bars


class TestStackModel:
    def test_hits_grow_monotonically_with_capacity(self, profile):
        hits = {
            kb: predict(profile, kb, CONFIG, calibration=None).hits
            for kb in ("32kb", "64kb")
        }
        base = predict(profile, "baseline", CONFIG, calibration=None).hits
        # Mattson inclusion: a bigger stack window can only gain reuses
        assert base <= hits["32kb"] <= hits["64kb"]

    def test_stall_bypass_equals_baseline_functionally(self, profile):
        a = predict(profile, "baseline", CONFIG, calibration=None)
        b = predict(profile, "stall_bypass", CONFIG, calibration=None)
        assert a.miss_rate == pytest.approx(b.miss_rate)

    def test_accounting_closes(self, profile):
        p = predict(profile, "baseline", CONFIG, calibration=None)
        # reads split into hits + misses; LRU tier never bypasses
        assert p.bypasses == 0
        assert p.hits + p.misses == pytest.approx(p.reads)
        assert sum(p.hit_buckets) == pytest.approx(1.0) or p.hits == 0


class TestCalibrationPlumbing:
    def test_calibrated_prediction_carries_error_bars(self, profile):
        from repro.predict import default_calibration

        p = predict(profile, "dlp", CONFIG,
                    calibration=default_calibration())
        assert p.calibrated
        assert p.error is not None
        assert p.error["mean_abs"] > 0
        assert p.error["max_abs"] >= p.error["mean_abs"]
        assert p.ipc is not None and p.ipc > 0

    def test_calibration_preserves_serviced_accounting(self, profile):
        from repro.predict import default_calibration

        p = predict(profile, "dlp", CONFIG,
                    calibration=default_calibration())
        serviced = p.reads - p.bypasses
        assert p.misses == pytest.approx(serviced * p.miss_rate, rel=1e-6)
        assert p.hits == pytest.approx(serviced - p.misses, rel=1e-6)
