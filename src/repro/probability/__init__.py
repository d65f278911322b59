"""Probability computation for c-table conditions (Section 5)."""

from .adpll import ADPLL, BRANCH_HEURISTICS, adpll_probability, pick_branch_variable
from .approxcount import (
    ApproxEstimate,
    adaptive_approx_probability,
    approx_probability,
)
from .distributions import DistributionStore
from .engine import DEFAULT_CACHE_SIZE, METHODS, ProbabilityEngine
from .guard import CircuitBreaker, GuardedProbability
from .naive import EnumerationLimitExceeded, naive_probability

__all__ = [
    "ADPLL",
    "BRANCH_HEURISTICS",
    "adpll_probability",
    "pick_branch_variable",
    "ApproxEstimate",
    "approx_probability",
    "adaptive_approx_probability",
    "DistributionStore",
    "DEFAULT_CACHE_SIZE",
    "METHODS",
    "ProbabilityEngine",
    "CircuitBreaker",
    "GuardedProbability",
    "EnumerationLimitExceeded",
    "naive_probability",
]
