"""C-table model: expressions, CNF conditions, dominator sets, Get-CTable."""

from .condition import Clause, Condition, ExpressionResolver
from .constraints import INFERENCE_MODES, VariableConstraints
from .construction import BACKENDS, build_ctable
from .ctable import CTable
from .dominators import (
    DOMINATOR_METHODS,
    dominator_sets,
    dominator_sets_baseline,
    dominator_sets_fast,
)
from .pruning import PruneScan, pruned_dominator_scan
from .expression import (
    Const,
    Expression,
    Operand,
    Relation,
    Var,
    const_greater_var,
    var_greater_const,
    var_greater_var,
)

__all__ = [
    "Clause",
    "Condition",
    "ExpressionResolver",
    "VariableConstraints",
    "INFERENCE_MODES",
    "build_ctable",
    "BACKENDS",
    "CTable",
    "DOMINATOR_METHODS",
    "dominator_sets",
    "dominator_sets_baseline",
    "dominator_sets_fast",
    "PruneScan",
    "pruned_dominator_scan",
    "Const",
    "Expression",
    "Operand",
    "Relation",
    "Var",
    "const_greater_var",
    "var_greater_const",
    "var_greater_var",
]
