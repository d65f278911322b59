"""Crash-invariant observables shared by the recovery tests."""


def observables(result):
    """Every crash-invariant observable of a QueryResult.

    Wall-clock (``seconds``), the ``resumed`` flag and engine/journal
    telemetry legitimately differ between a straight-through run and a
    recovered one; everything else must match exactly.
    """
    return dict(
        answers=result.answers,
        certain=result.certain_answers,
        rounds=result.rounds,
        tasks_posted=result.tasks_posted,
        tasks_answered=result.tasks_answered,
        history=[
            (h.round_index, h.tasks_posted, h.tasks_answered, h.newly_decided,
             h.open_conditions, h.retries, h.faults)
            for h in result.history
        ],
        probs=result.answer_probabilities,
        degraded=result.degraded,
        faults=result.fault_counts,
        integrity=result.integrity,
        reliability=result.worker_reliability,
    )
