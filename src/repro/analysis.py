"""Post-hoc analysis of query runs.

Answers the questions a requester asks after a crowd query finishes:
where did the budget go, what kinds of questions were asked, how did
uncertainty fall round by round, and (with ground truth) how accuracy
evolved.  Works for any :class:`QueryResult` produced by this library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .core.result import QueryResult
from .crowd.task import ComparisonTask
from .ctable.expression import Const, Expression
from .metrics.accuracy import f1_score


@dataclass(frozen=True)
class TaskBreakdown:
    """How posted tasks split by question type."""

    var_vs_const: int
    var_vs_var: int

    @property
    def total(self) -> int:
        return self.var_vs_const + self.var_vs_var


def classify_expressions(expressions: Sequence[Expression]) -> TaskBreakdown:
    """Split expressions into variable-vs-constant and variable-vs-variable."""
    var_const = 0
    var_var = 0
    for expression in expressions:
        if isinstance(expression.left, Const) or isinstance(expression.right, Const):
            var_const += 1
        else:
            var_var += 1
    return TaskBreakdown(var_vs_const=var_const, var_vs_var=var_var)


@dataclass
class RunAnalysis:
    """Aggregated view of one query run."""

    tasks_posted: int
    rounds: int
    tasks_per_round: List[int]
    decided_per_round: List[int]
    open_after_round: List[int]
    #: objects a task was selected for, with repetition counts
    attention: Dict[int, int]
    seconds: float
    modeling_share: float

    def summary_lines(self) -> List[str]:
        """Human-readable summary (used by examples and the demo CLI)."""
        lines = [
            "tasks: %d over %d rounds" % (self.tasks_posted, self.rounds),
            "modeling phase: %.0f%% of algorithm time" % (100 * self.modeling_share),
        ]
        if self.open_after_round:
            lines.append(
                "open conditions per round: %s"
                % " -> ".join(str(v) for v in self.open_after_round)
            )
        if self.attention:
            hot = sorted(self.attention.items(), key=lambda kv: -kv[1])[:3]
            lines.append(
                "most-queried objects: %s"
                % ", ".join("#%d (%d tasks)" % (obj, cnt) for obj, cnt in hot)
            )
        return lines


def analyze_run(result: QueryResult) -> RunAnalysis:
    """Fold a result's round history into a :class:`RunAnalysis`."""
    attention: Dict[int, int] = {}
    for record in result.history:
        for obj in record.objects:
            attention[obj] = attention.get(obj, 0) + 1
    modeling_share = (
        result.modeling_seconds / result.seconds if result.seconds > 0 else 0.0
    )
    return RunAnalysis(
        tasks_posted=result.tasks_posted,
        rounds=result.rounds,
        tasks_per_round=[r.tasks_posted for r in result.history],
        decided_per_round=[r.newly_decided for r in result.history],
        open_after_round=[r.open_conditions for r in result.history],
        attention=attention,
        seconds=result.seconds,
        modeling_share=min(max(modeling_share, 0.0), 1.0),
    )


def accuracy_trajectory(
    dataset,
    config,
    ground_truth: Sequence[int],
    budgets: Optional[Sequence[int]] = None,
) -> List[Dict[str, float]]:
    """F1 at each budget in ``budgets`` (re-runs the query per point).

    Deterministic components are seeded identically, so the trajectory is
    the fair "accuracy vs spend" curve of one requester strategy.
    """
    import dataclasses

    from .core.framework import BayesCrowd

    if budgets is None:
        step = max(1, config.budget // 5)
        budgets = list(range(0, config.budget + 1, step))
    trajectory = []
    for budget in budgets:
        point_config = dataclasses.replace(config, budget=budget)
        result = BayesCrowd(dataset, point_config).run()
        trajectory.append(
            {
                "budget": float(budget),
                "tasks": float(result.tasks_posted),
                "f1": f1_score(result.answers, ground_truth),
            }
        )
    return trajectory


def task_type_breakdown(result: QueryResult, tasks: Sequence[ComparisonTask]) -> TaskBreakdown:
    """Breakdown of actually-posted tasks (pass the platform's task log)."""
    return classify_expressions([task.expression for task in tasks])
