"""Variable constraint store: what crowd answers have taught us so far.

A triple-choice answer about ``Var(o, a)`` vs a constant ``c`` does not
reveal the missing value, only its relation to ``c``.  BayesCrowd "is able
to infer some preference information ... using returned answers per
iteration" (Section 7.3): we keep, per variable, the set of still-possible
domain values, and for variable-vs-variable tasks the answered ordering
facts.  The store then

* resolves expressions that became certain (used to simplify conditions),
* restricts the posterior distribution of each variable to its remaining
  allowed values (used by probability computation).

Crowd answers can be wrong (worker accuracy < 1), so contradictory
constraints are possible across rounds; when an update would empty a
variable's allowed set we keep only the newest answer, trusting recency.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence, Set, Tuple

import numpy as np

from ..datasets.dataset import Variable
from .expression import Const, Expression, Relation, Var


#: How much inference the store performs on top of recorded answers:
#: ``direct``    -- only the exact answered expressions resolve;
#: ``intervals`` -- + per-variable interval narrowing and bound-based
#:                  resolution of unseen expressions;
#: ``full``      -- + transitive ordering inference and bound propagation
#:                  along answered '>' facts (the default).
INFERENCE_MODES = ("direct", "intervals", "full")


class VariableConstraints:
    """Mutable knowledge base over the variables of one dataset."""

    def __init__(self, domain_sizes: Sequence[int], mode: str = "full") -> None:
        if mode not in INFERENCE_MODES:
            raise ValueError(
                "unknown inference mode %r; expected one of %r" % (mode, INFERENCE_MODES)
            )
        self.mode = mode
        self._domain_sizes = list(int(s) for s in domain_sizes)
        #: exact answers, keyed by the answered expression
        self._answered: Dict[Expression, bool] = {}
        self._allowed: Dict[Variable, np.ndarray] = {}
        self._relations: Dict[Tuple[Variable, Variable], Relation] = {}
        # Ordering knowledge for transitive inference: strict ">" edges
        # between equality-class representatives (union-find parents).
        self._greater_edges: Dict[Variable, set] = {}
        self._lesser_edges: Dict[Variable, set] = {}
        self._equal_parent: Dict[Variable, Variable] = {}
        self._class_members: Dict[Variable, set] = {}
        #: variables touched during the current apply_answer call
        self._touched: set = set()
        #: bumped on every state change; lets probability caches invalidate
        self.version = 0
        #: store version at which each variable last changed (for selective
        #: cache invalidation: untouched variables keep their cached results)
        self._var_versions: Dict[Variable, int] = {}

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _domain_size(self, variable: Variable) -> int:
        __, attr = variable
        return self._domain_sizes[attr]

    def _mask(self, variable: Variable) -> np.ndarray:
        mask = self._allowed.get(variable)
        if mask is None:
            mask = np.ones(self._domain_size(variable), dtype=bool)
            self._allowed[variable] = mask
        return mask

    def allowed_values(self, variable: Variable) -> np.ndarray:
        """Sorted array of domain values still possible for the variable."""
        mask = self._allowed.get(variable)
        if mask is None:
            return np.arange(self._domain_size(variable))
        return np.nonzero(mask)[0]

    def _bounds(self, variable: Variable) -> Tuple[int, int]:
        """Lowest and highest value still allowed (the set is never empty)."""
        mask = self._allowed.get(variable)
        if mask is None:
            return 0, self._domain_size(variable) - 1
        values = np.flatnonzero(mask)
        return int(values[0]), int(values[-1])

    def is_pinned(self, variable: Variable) -> bool:
        values = self.allowed_values(variable)
        return len(values) == 1

    def pinned_value(self, variable: Variable) -> Optional[int]:
        values = self.allowed_values(variable)
        return int(values[0]) if len(values) == 1 else None

    def known_relations(self) -> Dict[Tuple[Variable, Variable], Relation]:
        return dict(self._relations)

    # ------------------------------------------------------------------
    # updates from crowd answers
    # ------------------------------------------------------------------
    def apply_answer(self, expression: Expression, relation: Relation) -> FrozenSet[Variable]:
        """Record the answered relation between an expression's operands.

        Returns every variable whose resolutions may have changed.  For
        var-vs-constant answers that is just the variable itself; for
        var-vs-var answers transitive inference can newly decide orderings
        anywhere in the connected ordering component, so the whole
        component is reported (and version-bumped for cache invalidation).
        """
        left, right = expression.left, expression.right
        self._touched = set(expression.variables())
        self._answered[expression] = expression.truth_under(relation)
        if self.mode == "direct":
            pass  # nothing beyond the literal answer
        elif isinstance(left, Var) and isinstance(right, Const):
            self._constrain_vs_const(left.variable, relation, right.value)
            self._propagate_bounds(left.variable)
        elif isinstance(left, Const) and isinstance(right, Var):
            self._constrain_vs_const(right.variable, relation.flipped(), left.value)
            self._propagate_bounds(right.variable)
        elif isinstance(left, Var) and isinstance(right, Var):
            self._record_relation(left.variable, right.variable, relation)
            self._propagate_bounds(left.variable)
            self._propagate_bounds(right.variable)
            if self.mode == "full":
                self._touched |= self._ordering_component(left.variable)
        else:  # pragma: no cover - Expression forbids const-const
            raise ValueError("expression without variables")
        affected = self._touched
        self._touched = set()
        self.version += 1
        for variable in affected:
            self._var_versions[variable] = self.version
        return frozenset(affected)

    def _constrain_vs_const(self, variable: Variable, relation: Relation, c: int) -> None:
        """Narrow the allowed set given ``variable REL c``."""
        size = self._domain_size(variable)
        values = np.arange(size)
        if relation is Relation.GREATER:
            new = values > c
        elif relation is Relation.LESS:
            new = values < c
        else:
            new = values == c
        mask = self._mask(variable)
        combined = mask & new
        if not combined.any():
            # Contradiction from noisy workers: keep the newest answer only.
            combined = new
            if not combined.any():
                # Relation impossible within the domain (e.g. "> max value"):
                # degenerate to the closest value so the store stays usable.
                combined = np.zeros(size, dtype=bool)
                combined[size - 1 if relation is Relation.GREATER else 0] = True
        self._allowed[variable] = combined
        self._touched.add(variable)

    def _record_relation(self, a: Variable, b: Variable, relation: Relation) -> None:
        """Store an ordering fact between two variables, canonically keyed."""
        if b < a:
            a, b = b, a
            relation = relation.flipped()
        self._relations[(a, b)] = relation
        if relation is Relation.EQUAL:
            # Equality lets the two variables share allowed sets.
            shared = self._mask(a) & self._mask(b)
            if shared.any():
                self._allowed[a] = shared.copy()
                self._allowed[b] = shared.copy()
                self._touched.update((a, b))
        if self.mode != "full":
            return
        if relation is Relation.EQUAL:
            self._union(a, b)
        elif relation is Relation.GREATER:
            self._add_strict_edge(a, b)
        else:
            self._add_strict_edge(b, a)

    # ------------------------------------------------------------------
    # transitive ordering inference ("BayesCrowd is able to infer some
    # preference information in tasks, using returned answers")
    # ------------------------------------------------------------------
    def _find(self, variable: Variable) -> Variable:
        parent = self._equal_parent
        root = variable
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(variable, variable) != root:
            parent[variable], variable = root, parent[variable]
        return root

    def _members(self, representative: Variable) -> set:
        return self._class_members.setdefault(representative, {representative})

    def _union(self, a: Variable, b: Variable) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        self._equal_parent[rb] = ra
        self._members(ra).update(self._members(rb))
        self._class_members.pop(rb, None)
        # Re-point rb's strict edges (both directions) at ra.
        for forward, backward in (
            (self._greater_edges, self._lesser_edges),
            (self._lesser_edges, self._greater_edges),
        ):
            edges = forward.pop(rb, None)
            if edges:
                forward.setdefault(ra, set()).update(edges)
            for targets in forward.values():
                if rb in targets:
                    targets.discard(rb)
                    targets.add(ra)
        for mapping in (self._greater_edges, self._lesser_edges):
            targets = mapping.get(ra)
            if targets:
                targets.discard(ra)  # drop self-loops from noisy answers

    def _add_strict_edge(self, greater: Variable, smaller: Variable) -> None:
        rg, rs = self._find(greater), self._find(smaller)
        if rg == rs:
            return  # contradicts an equality from a noisy answer; ignore
        self._members(rg)
        self._members(rs)
        self._greater_edges.setdefault(rg, set()).add(rs)
        self._lesser_edges.setdefault(rs, set()).add(rg)

    def _ordering_component(self, variable: Variable) -> set:
        """All variables connected to ``variable`` through ordering facts."""
        start = self._find(variable)
        stack = [start]
        seen_reps = {start}
        while stack:
            node = stack.pop()
            neighbours = self._greater_edges.get(node, set()) | self._lesser_edges.get(
                node, set()
            )
            for neighbour in neighbours:
                if neighbour not in seen_reps:
                    seen_reps.add(neighbour)
                    stack.append(neighbour)
        out = set()
        for rep in seen_reps:
            out |= self._members(rep)
        return out

    # ------------------------------------------------------------------
    # interval propagation along ordering facts
    # ------------------------------------------------------------------
    def _class_bounds(self, rep: Variable) -> Optional[Tuple[int, int]]:
        """(min, max) still allowed for an equality class, or None if odd."""
        lo = None
        hi = None
        for member in self._members(rep):
            member_lo, member_hi = self._bounds(member)
            lo = member_lo if lo is None else max(lo, member_lo)
            hi = member_hi if hi is None else min(hi, member_hi)
        if lo is None or hi is None or lo > hi:
            return None
        return lo, hi

    def _narrow_class(
        self, rep: Variable, lo: Optional[int] = None, hi: Optional[int] = None
    ) -> bool:
        """Clip every member of a class to ``[lo, hi]``; True if narrowed.

        A clip that would empty a member's allowed set is refused (it can
        only arise from contradictory noisy answers).
        """
        changed = False
        for member in self._members(rep):
            mask = self._mask(member)
            new = mask.copy()
            if lo is not None and lo > 0:
                new[: min(lo, len(new))] = False
            if hi is not None and hi + 1 < len(new):
                new[hi + 1 :] = False
            if not new.any():
                continue
            if (new != mask).any():
                self._allowed[member] = new
                self._touched.add(member)
                changed = True
        return changed

    def _propagate_bounds(self, variable: Variable) -> None:
        """Push interval bounds along '>' facts: ``X > Y`` forces
        ``min(X) > min(Y)`` upward and ``max(Y) < max(X)`` downward."""
        if self.mode != "full":
            return
        queue = [self._find(variable)]
        steps = 0
        while queue and steps < 10_000:
            steps += 1
            rep = queue.pop()
            bounds = self._class_bounds(rep)
            if bounds is None:
                continue
            lo, hi = bounds
            for smaller in self._greater_edges.get(rep, ()):
                if self._narrow_class(smaller, hi=hi - 1):
                    queue.append(smaller)
            for larger in self._lesser_edges.get(rep, ()):
                if self._narrow_class(larger, lo=lo + 1):
                    queue.append(larger)

    def _strictly_above(self, a: Variable, b: Variable) -> bool:
        """True when answered facts imply ``a > b`` transitively."""
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return False
        stack = [ra]
        seen = {ra}
        while stack:
            node = stack.pop()
            for target in self._greater_edges.get(node, ()):
                if target == rb:
                    return True
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return False

    # ------------------------------------------------------------------
    # contradiction detection (the answer-integrity check)
    # ------------------------------------------------------------------
    def conflict(self, expression: Expression, relation: Relation) -> Optional[str]:
        """Why the answered relation contradicts accepted knowledge, or ``None``.

        Called *before* an aggregated crowd answer is applied: the store
        holds only accepted answers, so a non-``None`` return means this
        answer cannot be true together with them.  Reasons:

        * ``"direct"`` -- the accepted answers already decide the
          expression's truth (directly or through transitive inference /
          interval bounds) and this answer flips it;
        * ``"cycle"`` -- a var-vs-var answer closes a cycle in the strict
          partial order implied by accepted ``<``/``=``/``>`` answers
          (e.g. ``a > b``, ``b > c`` accepted, then ``c >= a`` arrives);
        * ``"empty-domain"`` -- a var-vs-const (or equality) answer would
          leave some variable with no possible value at all;
        * ``"bounds"`` -- a strict var-vs-var ordering is impossible
          under the interval bounds accepted answers propagated.

        Detection is sound but deliberately conservative: a consistent
        answer set (one drawn from any fixed total order per attribute)
        is never flagged (property-tested), while every flagged answer is
        genuinely incompatible with what was accepted before it.
        """
        implied = expression.truth_under(relation)
        resolved = self.resolve(expression)
        if resolved is not None and resolved != implied:
            return "direct"
        if self.mode == "direct":
            return None  # no masks or ordering facts to contradict
        left, right = expression.left, expression.right
        if isinstance(left, Var) and isinstance(right, Const):
            return self._conflict_vs_const(left.variable, relation, right.value)
        if isinstance(left, Const) and isinstance(right, Var):
            return self._conflict_vs_const(
                right.variable, relation.flipped(), left.value
            )
        if isinstance(left, Var) and isinstance(right, Var):
            return self._conflict_var_var(left.variable, right.variable, relation)
        return None  # pragma: no cover - Expression forbids const-const

    def _conflict_vs_const(
        self, variable: Variable, relation: Relation, c: int
    ) -> Optional[str]:
        """Would ``variable REL c`` empty the variable's allowed set?"""
        size = self._domain_size(variable)
        values = np.arange(size)
        if relation is Relation.GREATER:
            new = values > c
        elif relation is Relation.LESS:
            new = values < c
        else:
            new = values == c
        if not new.any():
            return "empty-domain"  # e.g. "> max domain value"
        mask = self._allowed.get(variable)
        if mask is not None and not (mask & new).any():
            return "empty-domain"
        return None

    def _conflict_var_var(
        self, a: Variable, b: Variable, relation: Relation
    ) -> Optional[str]:
        """Does ``a REL b`` close a cycle or contradict interval bounds?

        The binary ``resolve`` check upstream cannot see every three-way
        contradiction: ``a < b`` accepted and ``a = b`` arriving both
        falsify the expression ``a > b``, yet contradict each other.
        """
        if self.mode != "full":
            # Without the ordering graph only the mask overlap is known.
            if relation is Relation.EQUAL:
                shared = self._mask(a) & self._mask(b)
                if not shared.any():
                    return "empty-domain"
            return None
        same_class = self._find(a) == self._find(b)
        a_values = self.allowed_values(a)
        b_values = self.allowed_values(b)
        if relation is Relation.EQUAL:
            if same_class:
                return None
            if self._strictly_above(a, b) or self._strictly_above(b, a):
                return "cycle"
            if not (self._mask(a) & self._mask(b)).any():
                return "empty-domain"
            return None
        if relation is Relation.GREATER:
            if same_class or self._strictly_above(b, a):
                return "cycle"
            if int(a_values[-1]) <= int(b_values[0]):
                return "bounds"  # max(a) <= min(b): a > b impossible
            return None
        # LESS: a < b
        if same_class or self._strictly_above(a, b):
            return "cycle"
        if int(a_values[0]) >= int(b_values[-1]):
            return "bounds"  # min(a) >= max(b): a < b impossible
        return None

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolve(self, expression: Expression) -> Optional[bool]:
        """Truth of an expression if the constraints decide it, else ``None``."""
        answered = self._answered.get(expression)
        if answered is not None:
            return answered
        if self.mode == "direct":
            return None
        left, right = expression.left, expression.right
        if isinstance(left, Var) and isinstance(right, Const):
            return self._resolve_var_vs_const(left.variable, right.value)
        if isinstance(left, Const) and isinstance(right, Var):
            # c > Var  <=>  Var < c
            flipped = self._resolve_var_vs_const(right.variable, left.value, less=True)
            return flipped
        if isinstance(left, Var) and isinstance(right, Var):
            return self._resolve_var_vs_var(left.variable, right.variable)
        return None  # pragma: no cover

    def _resolve_var_vs_const(
        self, variable: Variable, c: int, less: bool = False
    ) -> Optional[bool]:
        lo, hi = self._bounds(variable)
        if less:
            if hi < c:
                return True
            if lo >= c:
                return False
            return None
        if lo > c:
            return True
        if hi <= c:
            return False
        return None

    def _resolve_var_vs_var(self, a: Variable, b: Variable) -> Optional[bool]:
        """Resolve ``a > b`` via recorded facts (transitively), then bounds."""
        key_relation = self._lookup_relation(a, b)
        if key_relation is not None:
            return key_relation is Relation.GREATER
        if self._find(a) == self._find(b):
            return False  # known equal through an equality chain
        if self._strictly_above(a, b):
            return True
        if self._strictly_above(b, a):
            return False
        a_lo, a_hi = self._bounds(a)
        b_lo, b_hi = self._bounds(b)
        if a_lo > b_hi:
            return True
        if a_hi <= b_lo:
            return False
        return None

    def _lookup_relation(self, a: Variable, b: Variable) -> Optional[Relation]:
        if (a, b) in self._relations:
            return self._relations[(a, b)]
        if (b, a) in self._relations:
            return self._relations[(b, a)].flipped()
        return None

    # ------------------------------------------------------------------
    # distribution restriction
    # ------------------------------------------------------------------
    def constrain_pmf(self, variable: Variable, pmf: np.ndarray) -> np.ndarray:
        """Renormalize a pmf onto the variable's allowed values.

        If the allowed set carries zero prior mass (possible only with
        degenerate inputs), falls back to uniform over the allowed values.
        """
        mask = self._allowed.get(variable)
        if mask is None:
            return np.asarray(pmf, dtype=np.float64)
        restricted = np.where(mask, np.asarray(pmf, dtype=np.float64), 0.0)
        total = restricted.sum()
        if total <= 0.0:
            restricted = mask.astype(np.float64)
            total = restricted.sum()
        return restricted / total

    def variables_unchanged_since(self, variables, version: int) -> bool:
        """True when none of ``variables`` changed after store ``version``.

        Lets probability caches keep results for conditions whose variables
        were untouched by later crowd answers.
        """
        var_versions = self._var_versions
        return all(var_versions.get(v, 0) <= version for v in variables)

    def changed_since(self, version: int) -> Set[Variable]:
        """The variables answers changed after store ``version``."""
        return {v for v, changed in self._var_versions.items() if changed > version}

    def constrained_variables(self) -> FrozenSet[Variable]:
        """Variables whose allowed set is narrower than the full domain."""
        out = set()
        for variable, mask in self._allowed.items():
            if not mask.all():
                out.add(variable)
        return frozenset(out)
