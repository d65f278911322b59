"""Unit tests for the incomplete dataset model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.datasets import (
    MISSING,
    DatasetError,
    IncompleteDataset,
    from_complete,
)
from repro.datasets.dataset import unique_rows


def make_dataset(**kwargs):
    values = np.array([[1, 2], [MISSING, 0], [2, MISSING]])
    complete = np.array([[1, 2], [0, 0], [2, 1]])
    defaults = dict(values=values, domain_sizes=[3, 3], complete=complete)
    defaults.update(kwargs)
    return IncompleteDataset(**defaults)


class TestConstruction:
    def test_shapes(self):
        ds = make_dataset()
        assert ds.n_objects == 3
        assert ds.n_attributes == 2

    def test_mask_derived_from_values(self):
        ds = make_dataset()
        assert ds.mask.tolist() == [[False, False], [True, False], [False, True]]

    def test_missing_rate(self):
        ds = make_dataset()
        assert ds.missing_rate == pytest.approx(2 / 6)

    def test_rejects_1d_values(self):
        with pytest.raises(DatasetError):
            IncompleteDataset(values=np.array([1, 2, 3]), domain_sizes=[3])

    def test_rejects_domain_size_mismatch(self):
        with pytest.raises(DatasetError):
            make_dataset(domain_sizes=[3])

    def test_rejects_out_of_range_values(self):
        values = np.array([[5, 0]])
        with pytest.raises(DatasetError):
            IncompleteDataset(values=values, domain_sizes=[3, 3])

    def test_rejects_nonpositive_domain(self):
        with pytest.raises(DatasetError):
            make_dataset(domain_sizes=[3, 0])

    def test_rejects_complete_disagreement(self):
        bad = np.array([[1, 2], [0, 0], [2, 2]])
        bad[0, 0] = 0  # disagrees with observed value 1
        with pytest.raises(DatasetError):
            make_dataset(complete=bad)

    def test_rejects_complete_with_missing(self):
        bad = np.array([[1, 2], [MISSING, 0], [2, 1]])
        with pytest.raises(DatasetError):
            make_dataset(complete=bad)

    def test_default_names_generated(self):
        ds = make_dataset()
        assert ds.attribute_names == ["a1", "a2"]
        assert ds.object_names == ["o1", "o2", "o3"]


class TestAccessors:
    def test_is_missing(self):
        ds = make_dataset()
        assert ds.is_missing(1, 0)
        assert not ds.is_missing(0, 0)

    def test_observed_value(self):
        ds = make_dataset()
        assert ds.observed_value(0, 1) == 2

    def test_observed_value_raises_on_missing(self):
        ds = make_dataset()
        with pytest.raises(DatasetError):
            ds.observed_value(1, 0)

    def test_true_value(self):
        ds = make_dataset()
        assert ds.true_value(1, 0) == 0

    def test_true_value_requires_ground_truth(self):
        ds = make_dataset(complete=None)
        with pytest.raises(DatasetError):
            ds.true_value(1, 0)

    def test_observed_evidence(self):
        ds = make_dataset()
        assert ds.observed_evidence(1) == {1: 0}
        assert ds.observed_evidence(0) == {0: 1, 1: 2}

    def test_variables_enumerates_missing_cells(self):
        ds = make_dataset()
        assert sorted(ds.variables()) == [(1, 0), (2, 1)]
        assert ds.n_variables() == 2

    def test_is_complete_object(self):
        ds = make_dataset()
        assert ds.is_complete_object(0)
        assert not ds.is_complete_object(1)

    def test_complete_rows(self):
        ds = make_dataset()
        rows = ds.complete_rows()
        assert rows.tolist() == [[1, 2]]


class TestDerived:
    def test_subset_preserves_alignment(self):
        ds = make_dataset()
        sub = ds.subset([2, 0])
        assert sub.values.tolist() == [[2, MISSING], [1, 2]]
        assert sub.complete.tolist() == [[2, 1], [1, 2]]
        assert sub.object_names == ["o3", "o1"]

    def test_as_complete(self):
        ds = make_dataset()
        full = ds.as_complete()
        assert full.missing_rate == 0.0
        assert full.values.tolist() == ds.complete.tolist()

    def test_as_complete_requires_ground_truth(self):
        ds = make_dataset(complete=None)
        with pytest.raises(DatasetError):
            ds.as_complete()

    def test_from_complete_round_trip(self):
        complete = np.array([[0, 1], [2, 2]])
        mask = np.array([[True, False], [False, False]])
        ds = from_complete(complete, mask, [3, 3])
        assert ds.values[0, 0] == MISSING
        assert ds.values[0, 1] == 1
        assert ds.true_value(0, 0) == 0

    def test_from_complete_shape_mismatch(self):
        with pytest.raises(DatasetError):
            from_complete(np.zeros((2, 2)), np.zeros((3, 2), dtype=bool), [1, 1])


def _assert_matches_np_unique(matrix):
    rows, inverse, counts = unique_rows(matrix)
    ref_rows, ref_inverse, ref_counts = np.unique(
        matrix, axis=0, return_inverse=True, return_counts=True
    )
    assert rows.dtype == ref_rows.dtype
    assert rows.shape == ref_rows.shape
    assert np.array_equal(rows, ref_rows)
    assert inverse.shape == (matrix.shape[0],)
    assert np.array_equal(inverse, ref_inverse.reshape(-1))
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(rows[inverse], matrix)


_shapes = st.tuples(st.integers(0, 40), st.integers(1, 5))


class TestUniqueRows:
    @settings(max_examples=150, deadline=None)
    @given(arrays(np.int64, _shapes, elements=st.integers(MISSING, 3)))
    def test_int_matrix_with_missing_sentinel_matches_np_unique(self, matrix):
        _assert_matches_np_unique(matrix)

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.bool_, _shapes))
    def test_bool_matrix_matches_np_unique(self, matrix):
        _assert_matches_np_unique(matrix)

    @pytest.mark.parametrize(
        "matrix",
        [
            np.zeros((0, 3), dtype=np.int64),
            np.zeros((0, 3), dtype=bool),
            np.array([[2, MISSING, 0]]),
            np.array([[3], [MISSING], [3], [0]]),
            np.full((6, 4), MISSING),
            np.ones((5, 2), dtype=bool),
        ],
        ids=["0-rows", "0-rows-bool", "1-row", "1-column", "all-equal", "all-equal-bool"],
    )
    def test_edge_shapes_match_np_unique(self, matrix):
        _assert_matches_np_unique(matrix)
