"""Metric helpers: geometric means and normalization."""

import pytest

from repro.analysis.metrics import geometric_mean, normalize, safe_ratio


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)

    def test_identity(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestNormalize:
    def test_divides_by_baseline(self):
        out = normalize({"base": 2.0, "x": 3.0}, "base")
        assert out == {"base": 1.0, "x": 1.5}

    def test_zero_baseline_rejected(self):
        with pytest.raises(ZeroDivisionError):
            normalize({"base": 0.0}, "base")


class TestSafeRatio:
    def test_normal(self):
        assert safe_ratio(1, 4) == 0.25

    def test_zero_denominator(self):
        assert safe_ratio(1, 0) == 0.0
