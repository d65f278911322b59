"""Round-trip tests for dataset and result persistence."""

import json

import numpy as np
import pytest

from repro import BayesCrowd, BayesCrowdConfig, FaultModel, generate_nba
from repro.ctable import var_greater_const, var_greater_var
from repro.persistence import (
    FORMAT_VERSION,
    atomic_write,
    expression_from_json,
    expression_to_json,
    load_dataset,
    load_result,
    result_to_dict,
    save_dataset,
    save_result,
)


class TestDatasetRoundTrip:
    def test_full_round_trip(self, tmp_path, nba_small):
        path = tmp_path / "nba.npz"
        save_dataset(nba_small, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.values, nba_small.values)
        assert np.array_equal(loaded.complete, nba_small.complete)
        assert loaded.domain_sizes == nba_small.domain_sizes
        assert loaded.attribute_names == nba_small.attribute_names
        assert loaded.name == nba_small.name

    def test_without_ground_truth(self, tmp_path, movies):
        blind = movies.__class__(
            values=movies.values, domain_sizes=movies.domain_sizes, complete=None
        )
        path = tmp_path / "blind.npz"
        save_dataset(blind, path)
        loaded = load_dataset(path)
        assert loaded.complete is None
        assert np.array_equal(loaded.mask, blind.mask)

    def test_version_check(self, tmp_path, movies):
        path = tmp_path / "m.npz"
        save_dataset(movies, path)
        # Corrupt the version.
        with np.load(path, allow_pickle=True) as archive:
            payload = {k: archive[k] for k in archive.files}
        payload["format_version"] = np.array([99])
        np.savez_compressed(path, **payload, allow_pickle=True)
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_loaded_dataset_runs_a_query(self, tmp_path):
        dataset = generate_nba(n_objects=60, missing_rate=0.1, seed=1)
        path = tmp_path / "ds.npz"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        config = BayesCrowdConfig(alpha=0.1, budget=6, latency=2)
        result = BayesCrowd(loaded, config).run()
        assert result.tasks_posted <= 6


class TestResultRoundTrip:
    def _result(self):
        dataset = generate_nba(n_objects=60, missing_rate=0.1, seed=1)
        config = BayesCrowdConfig(alpha=0.1, budget=8, latency=2)
        return BayesCrowd(dataset, config).run()

    def test_round_trip(self, tmp_path):
        result = self._result()
        path = tmp_path / "result.json"
        save_result(result, path)
        loaded = load_result(path)
        assert loaded.answers == result.answers
        assert loaded.tasks_posted == result.tasks_posted
        assert loaded.rounds == result.rounds
        assert loaded.initial_answers == result.initial_answers
        assert len(loaded.history) == len(result.history)
        if result.history:
            assert loaded.history[0].objects == result.history[0].objects

    def test_dict_is_json_serializable(self):
        payload = result_to_dict(self._result())
        text = json.dumps(payload)
        assert str(FORMAT_VERSION) in text or payload["format_version"] == FORMAT_VERSION

    def test_version_check(self, tmp_path):
        path = tmp_path / "result.json"
        save_result(self._result(), path)
        data = json.loads(path.read_text())
        data["format_version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            load_result(path)

    def test_degraded_fields_round_trip(self, tmp_path):
        dataset = generate_nba(n_objects=60, missing_rate=0.1, seed=1)
        config = BayesCrowdConfig(
            alpha=0.1,
            budget=8,
            latency=3,
            backoff_base=0.0,
            faults=FaultModel(drop_rate=0.5, transient_every=2),
        )
        result = BayesCrowd(dataset, config).run()
        assert result.degraded
        path = tmp_path / "degraded.json"
        save_result(result, path)
        loaded = load_result(path)
        assert loaded.degraded
        assert loaded.fault_counts == result.fault_counts
        assert loaded.tasks_answered == result.tasks_answered
        assert [r.faults for r in loaded.history] == [
            r.faults for r in result.history
        ]
        assert [r.tasks_answered for r in loaded.history] == [
            r.tasks_answered for r in result.history
        ]

    def test_legacy_result_without_fault_fields_loads(self, tmp_path):
        path = tmp_path / "legacy.json"
        save_result(self._result(), path)
        data = json.loads(path.read_text())
        for key in ("tasks_answered", "degraded", "fault_counts", "resumed"):
            data.pop(key, None)
        for entry in data["history"]:
            for key in ("tasks_answered", "retries", "faults"):
                entry.pop(key, None)
        path.write_text(json.dumps(data))
        loaded = load_result(path)
        assert loaded.tasks_answered == loaded.tasks_posted
        assert not loaded.degraded
        assert loaded.fault_counts == {}
        for record in loaded.history:
            assert record.tasks_answered == record.tasks_posted


class TestAtomicPersistence:
    """Every save is tmp-file + ``os.replace``: a crash mid-write can
    never leave a half-written artifact under the final name, and a
    successful save leaves no stray temp files behind."""

    def test_save_result_is_atomic(self, tmp_path):
        dataset = generate_nba(n_objects=60, missing_rate=0.1, seed=1)
        result = BayesCrowd(
            dataset, BayesCrowdConfig(alpha=0.1, budget=6, latency=2)
        ).run()
        path = tmp_path / "result.json"
        save_result(result, path)
        save_result(result, path)  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["result.json"]
        assert load_result(path).answers == result.answers

    def test_save_dataset_is_atomic(self, tmp_path, nba_small):
        path = tmp_path / "nba.npz"
        save_dataset(nba_small, path)
        save_dataset(nba_small, path)
        assert [p.name for p in tmp_path.iterdir()] == ["nba.npz"]
        assert np.array_equal(load_dataset(path).values, nba_small.values)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write(path, lambda handle: handle.write("first"))
        atomic_write(path, lambda handle: handle.write("second"))  # overwrite
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]
        assert path.read_text() == "second"


class TestExpressionJson:
    @pytest.mark.parametrize(
        "expression",
        [var_greater_const(4, 1, 2), var_greater_var(0, 1, 2)],
    )
    def test_round_trip(self, expression):
        data = json.loads(json.dumps(expression_to_json(expression)))
        assert expression_from_json(data) == expression
