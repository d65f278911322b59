"""Whole-query differential harness: every surviving config matches the reference.

Hypothesis draws small incomplete datasets (n 6-14, 2-3 attributes,
domains 3-4, 20-40% missing) and one query configuration out of the
combinations the program keeps: the strategy, the answer-inference
mode, the c-table backend (the ``python`` backend also draws its
dominator method), batched or scalar selection, and an optional resume
at a drawn round boundary: the query runs with a write-ahead journal,
the journal is cut after that round's commit, and a fresh engine
resumes from the cut journal.  (Stopping a run with ``latency=k``
instead would change the round size ``ceil(B / L)``, so the resumed run
would post other rounds than the uninterrupted one.)

The reference run is the same query on the scalar c-table (``python``
backend), with scalar selection and no resume.  Answers, per-round
objects and ``tasks_posted`` must be equal and answer probabilities
within 1e-9.  Every object the run leaves open must have a final
``Pr(phi)`` equal to Naive enumeration on the run's own c-table, up to
:data:`NAIVE_LIMIT` assignments (in a sample of 300 draws, 7% of runs
left a larger condition open; ``test_probability.py`` checks ADPLL
against Naive on generated conditions).

Batched selection can break a gain tie differently from the scalar path:
two candidates whose exact gains are equal differ by float noise, and
each path's noise favours another candidate (see
:func:`test_float_noise_gain_tie_diverges`).  Such draws are rare but
real, so the property test is derandomized: every run checks the same
examples, and the pinned case keeps the divergence visible.

Mid-round crashes and journal replay are covered by
``test_crash_matrix.py``.
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import BayesCrowd, BayesCrowdConfig
from repro.ctable import INFERENCE_MODES
from repro.datasets import MISSING, IncompleteDataset
from repro.probability import EnumerationLimitExceeded, naive_probability
from repro.session import read_journal

#: largest assignment space Naive enumerates per open condition
NAIVE_LIMIT = 4096


@st.composite
def incomplete_datasets(draw):
    n = draw(st.integers(6, 14))
    sizes = draw(st.lists(st.integers(3, 4), min_size=2, max_size=3))
    d = len(sizes)
    rows = [
        [draw(st.integers(0, size - 1)) for size in sizes] for __ in range(n)
    ]
    complete = np.array(rows, dtype=np.int64)
    n_missing = round(draw(st.floats(0.2, 0.4)) * n * d)
    hidden = draw(st.permutations(range(n * d)))[:n_missing]
    values = complete.copy()
    values.flat[hidden] = MISSING
    return IncompleteDataset(
        values=values, domain_sizes=sizes, complete=complete, name="differential"
    )


@st.composite
def query_configs(draw):
    """A config plus the round after which the run resumes (``None``: no resume)."""
    backend = draw(st.sampled_from(["numpy", "python"]))
    dominator_method = (
        draw(st.sampled_from(["fast", "baseline"])) if backend == "python" else "fast"
    )
    latency = draw(st.integers(1, 4))
    config = BayesCrowdConfig(
        strategy=draw(st.sampled_from(["fbs", "ubs", "hhs"])),
        inference_mode=draw(st.sampled_from(INFERENCE_MODES)),
        backend=backend,
        dominator_method=dominator_method,
        selection_batch=draw(st.booleans()),
        alpha=draw(st.sampled_from([0.3, 1.0])),
        budget=draw(st.integers(2, 8)),
        latency=latency,
        m=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**16)),
    )
    return config, draw(st.none() | st.integers(1, latency))


def run_query(dataset, config, resume_after):
    """The run under test: one query, or a journal cut at a round boundary and a resume.

    The cut falls after commit ``min(resume_after, rounds)``; a run with
    no round is resumed from its whole journal.
    """
    query = BayesCrowd(dataset, config)
    if resume_after is None:
        return query, query.run()
    with tempfile.TemporaryDirectory() as directory:
        journal = Path(directory) / "full.journal.jsonl"
        BayesCrowd(dataset, config).run(journal_path=journal)
        lines = journal.read_text().splitlines()
        commits = [
            index
            for index, record in enumerate(read_journal(journal))
            if record.kind == "round_commit"
        ]
        end = commits[min(resume_after, len(commits)) - 1] if commits else len(lines) - 1
        cut = Path(directory) / "cut.journal.jsonl"
        cut.write_text("\n".join(lines[: end + 1]) + "\n")
        return query, query.run(journal_path=cut, resume=True)


def assert_matches_reference(dataset, config, resume_after):
    reference = BayesCrowd(
        dataset, dataclasses.replace(config, backend="python", selection_batch=False)
    ).run()
    query, result = run_query(dataset, config, resume_after)
    assert result.answers == reference.answers
    assert [r.objects for r in result.history] == [
        r.objects for r in reference.history
    ]
    assert result.tasks_posted == reference.tasks_posted
    assert result.answer_probabilities.keys() == reference.answer_probabilities.keys()
    for obj, probability in reference.answer_probabilities.items():
        assert result.answer_probabilities[obj] == pytest.approx(probability, abs=1e-9)
    ctable, engine = query.ctable, query.engine
    for obj in ctable.undecided():
        condition = ctable.condition(obj)
        try:
            exact = naive_probability(condition, engine.store, NAIVE_LIMIT)
        except EnumerationLimitExceeded:
            continue
        assert engine.probability(condition) == pytest.approx(exact, abs=1e-9)


@settings(
    max_examples=500,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(incomplete_datasets(), query_configs())
def test_query_matches_reference(dataset, drawn):
    config, resume_after = drawn
    assert_matches_reference(dataset, config, resume_after)


@pytest.mark.xfail(
    strict=True,
    reason="batched and scalar selection break a float-noise gain tie apart",
)
def test_float_noise_gain_tie_diverges():
    """Hypothesis's shrunk example of a ``selection_batch`` divergence.

    In round one, object 10's candidates compare attribute 1 of objects
    0, 1, 2, 4, 6 and 12 with the constant 3, and their exact gains are
    equal.  The batched path reads 0.10558383178879216 for object 6 and
    0.10558383178879205 for the others, so it asks about object 6; the
    scalar path reads 0.10558383178879227 for objects 0, 1, 2 and 4, so
    it asks about object 0.  Round two then asks about objects 10 and 6
    where the reference asks about 10 and 11.
    """
    values = np.array(
        [[-1, -1], [-1, -1], [0, -1], [-1, 0], [0, -1], [0, 0], [1, -1],
         [0, 0], [0, 0], [1, 0], [0, 3], [-1, 2], [0, -1]]
    )
    complete = np.where(values == MISSING, 0, values)
    dataset = IncompleteDataset(
        values=values, domain_sizes=[4, 4], complete=complete, name="differential"
    )
    config = BayesCrowdConfig(
        strategy="ubs",
        inference_mode="direct",
        backend="numpy",
        selection_batch=True,
        alpha=1.0,
        budget=4,
        latency=2,
        m=1,
        seed=0,
    )
    assert_matches_reference(dataset, config, None)
