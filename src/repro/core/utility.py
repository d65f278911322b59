"""Entropy and the marginal utility function (Eqs. 3-5).

The uncertainty of an object is the Shannon entropy of its answer
probability ``p = Pr(phi(o))``:

    H(o) = -(p log2 p + (1 - p) log2 (1 - p))                        (Eq. 3)

The benefit of crowdsourcing an expression ``e`` of ``phi(o)`` is the
expected entropy reduction (information gain):

    G(o, e)       = H(o) - E[H(o | e)]                               (Eq. 4)
    E[H(o | e)]   = Pr(e) H(o | e=true) + (1 - Pr(e)) H(o | e=false) (Eq. 5)

Two evaluations of ``H(o | e)`` are provided:

* ``"syntactic"`` (the paper's): substitute the truth value of ``e`` into
  ``phi(o)`` and take the entropy of the simplified condition's
  probability.  Other expressions sharing ``e``'s variables keep their
  unconditioned distributions.
* ``"conditional"`` (ablation): proper conditioning via
  ``Pr(phi | e) = Pr(phi ^ e) / Pr(e)`` and
  ``Pr(phi | !e) = (Pr(phi) - Pr(phi ^ e)) / (1 - Pr(e))``.
"""

from __future__ import annotations

import math

from ..ctable.condition import Condition
from ..ctable.expression import Expression
from ..probability.engine import ProbabilityEngine

#: Recognized H(o|e) evaluation modes.
UTILITY_MODES = ("syntactic", "conditional")


def entropy(p: float) -> float:
    """Binary Shannon entropy of a probability, safe at the endpoints."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def object_entropy(condition: Condition, engine: ProbabilityEngine) -> float:
    """``H(o)`` for one object's condition (Eq. 3)."""
    return entropy(engine.probability(condition))


def gain_from_probabilities(
    p_phi: float,
    p_e: float,
    p_branch_true: float,
    p_branch_false: float = 0.0,
    mode: str = "syntactic",
) -> float:
    """``G(o, e)`` from already-computed probabilities (Eqs. 4-5).

    The single arithmetic shared by the scalar path
    (:func:`marginal_utility`) and the batched
    :class:`repro.core.utility_engine.UtilityEngine`, so both produce
    bit-identical gains.  For ``"syntactic"`` the branch probabilities are
    ``Pr(phi[e:=true])`` / ``Pr(phi[e:=false])``; for ``"conditional"``
    ``p_branch_true`` is the joint ``Pr(phi ^ e)`` and ``p_branch_false``
    is unused (the false branch follows from ``p_phi - p_joint``).
    """
    h_now = entropy(p_phi)
    if h_now == 0.0:
        return 0.0
    if mode == "syntactic":
        h_true = entropy(p_branch_true)
        h_false = entropy(p_branch_false)
    else:
        p_joint = p_branch_true
        h_true = entropy(p_joint / p_e) if p_e > 0.0 else 0.0
        p_not_e = 1.0 - p_e
        h_false = entropy((p_phi - p_joint) / p_not_e) if p_not_e > 0.0 else 0.0

    expected = p_e * h_true + (1.0 - p_e) * h_false
    return h_now - expected


def marginal_utility(
    condition: Condition,
    expression: Expression,
    engine: ProbabilityEngine,
    mode: str = "syntactic",
) -> float:
    """``G(o, e)``: expected entropy reduction of crowdsourcing ``e`` (Eq. 4)."""
    if mode not in UTILITY_MODES:
        raise ValueError("unknown utility mode %r" % mode)
    p_phi = engine.probability(condition)
    if entropy(p_phi) == 0.0:
        return 0.0
    p_e = engine.store.prob_expression(expression)

    if mode == "syntactic":
        p_true = engine.probability(condition.assign_expression(expression, True))
        p_false = engine.probability(condition.assign_expression(expression, False))
        return gain_from_probabilities(p_phi, p_e, p_true, p_false, mode=mode)
    p_joint = engine.probability(conjoin(condition, expression))
    return gain_from_probabilities(p_phi, p_e, p_joint, mode=mode)


def conjoin(condition: Condition, expression: Expression) -> Condition:
    """``condition AND expression`` as a CNF condition."""
    if condition.is_constant:
        if condition.is_false:
            return Condition.false()
        return Condition.of([[expression]])
    return Condition.of(list(condition.clauses) + [[expression]])
