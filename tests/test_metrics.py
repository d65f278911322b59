"""Unit tests for accuracy metrics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import accuracy_report, f1_score


class TestAccuracy:
    def test_perfect(self):
        report = accuracy_report([1, 2, 3], [1, 2, 3])
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f1 == 1.0

    def test_empty_both(self):
        report = accuracy_report([], [])
        assert report.f1 == 1.0

    def test_empty_prediction(self):
        report = accuracy_report([], [1, 2])
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f1 == 0.0

    def test_partial(self):
        report = accuracy_report([1, 2], [2, 3])
        assert report.precision == pytest.approx(0.5)
        assert report.recall == pytest.approx(0.5)
        assert report.f1 == pytest.approx(0.5)

    def test_counts(self):
        report = accuracy_report([1, 2, 4], [2, 3])
        assert report.true_positives == 1
        assert report.false_positives == 2
        assert report.false_negatives == 1

    def test_duplicates_ignored(self):
        assert f1_score([1, 1, 2], [1, 2]) == 1.0

    @given(
        st.sets(st.integers(0, 30)),
        st.sets(st.integers(0, 30)),
    )
    def test_f1_bounds_and_symmetric_perfect(self, predicted, truth):
        report = accuracy_report(predicted, truth)
        assert 0.0 <= report.f1 <= 1.0
        assert 0.0 <= report.precision <= 1.0
        assert 0.0 <= report.recall <= 1.0
        if predicted == truth:
            assert report.f1 == 1.0

    @given(st.sets(st.integers(0, 30), min_size=1), st.sets(st.integers(0, 30), min_size=1))
    def test_f1_is_harmonic_mean(self, predicted, truth):
        report = accuracy_report(predicted, truth)
        p, r = report.precision, report.recall
        if p + r > 0:
            assert report.f1 == pytest.approx(2 * p * r / (p + r))

