"""Knowledge compilation into one store-scoped circuit forest.

Exact model counting is the pipeline's one asymptotic cost: ADPLL
re-solves every ``phi(o)`` from scratch each round even though crowd
answers only reassign variable weights (pmf renormalization onto
narrowed allowed sets) or determine expressions.  Knowledge compilation
splits the work: compile each condition ONCE into a smoothed
deterministic d-DNNF circuit whose *structure* is store-independent,
then answer every later probability query by weight propagation --
linear in circuit size.  The counting itself stays #P-hard (Arenas et
al., "Counting Problems over Incomplete Databases"), which is why
compilation runs under a node budget.

The compiler mirrors ADPLL's search (same branching heuristics via
:func:`repro.probability.adpll.pick_branch_variable`, same
connected-component decomposition via ``Condition.connected_components``)
but records the trace as a DAG instead of folding it into one number:

* **decision nodes** -- branching on variable ``v`` becomes a SUM over
  the *full base domain* of ``v``: each child is the product of the
  value literal ``v = a`` and ``compile(phi[v := a])``.  Children are
  mutually exclusive on ``v``'s value (deterministic) and ``v`` never
  reappears below (decomposable).  Branching over the full domain --
  not the currently supported values -- is what makes re-weighting
  sound: a value whose probability drops to zero, or comes back after a
  contradiction overwrite re-expands the allowed set, is just a leaf
  whose weight moves;
* **independent conditions** -- when no variable repeats
  (``Condition.is_variable_disjoint``), a clause ``e1 v e2 v ...``
  compiles without branching into the deterministic sum
  ``e1 + !e1*e2 + !e1*!e2*e3 + ...``;
* **component decomposition** -- variable-disjoint clause groups become
  a decomposable AND of independently compiled circuits;
* **leaves** -- *set literals* ``v in S`` (a var-vs-const expression and
  its negation are both value sets, via ``Expression.true_values``)
  weighted by ``sum(pmf(v)[S])``, plus *theory leaves* for var-vs-var
  atoms ``x > y`` weighted by ``Pr(x > y)`` under the store.  Theory
  leaves keep two-variable atoms atomic instead of splitting one side
  into a full decision -- they only ever appear where the enclosing
  structure guarantees independence, so determinism is preserved;
* **smoothing** -- every SUM's children are padded with full-domain
  literals of their missing variables so all children range over the
  same scope.  With normalized pmfs the pad weight is exactly 1.0, so
  smoothing never changes a probability; it is kept for the standard
  d-DNNF invariants and costs one *shared* node per variable thanks to
  dedup.

:class:`CircuitForest` holds every registered condition's circuit in
one columnar node pool: a store-scoped unique table unifies identical
subcircuits across objects (skyline conditions of objects with the same
missing attributes are near-identical), and identical *residual
conditions* met during different compilations reuse each other's
subtrees through a cross-registration memo.  Bookkeeping:

* **refcounts** -- each node counts its parent edges plus one pin per
  registered root; evicting a registration (the forest keeps its own
  insertion-ordered LRU of registered conditions) unpins the root and
  cascade-frees whatever became unreachable, returning slots to a free
  list.  TRUE/FALSE are permanently pinned.
* **sequence numbers** -- every node carries a monotone creation seq;
  children always have lower seqs than parents (even across slot
  reuse), so "live nodes sorted by seq" is always a valid topological
  order.  The kernel's suffix sweeps key on it.
* **budget rollback** -- compilation runs under a per-condition node
  budget; a trip raises :class:`repro.errors.ResourceBudgetError` after
  tearing down exactly the nodes this registration created (in reverse
  creation order, so refcounts of pre-existing nodes are restored
  precisely), leaving every counter untouched.  The engine's compile
  breaker turns trips into a degrade to ADPLL and, from there, the
  guarded sampler.

Values live in one forest-wide array refreshed by
:meth:`CircuitForest.refresh`: a full numpy kernel sweep on first use,
then suffix sweeps covering only nodes created since the last sweep and
the leaves (plus ancestors) of variables whose constraints moved (see
:mod:`repro.probability.kernel`).

Counters: ``circuits_compiled``/``circuit_nodes`` (registrations and the
nodes they created), ``propagations`` (circuits re-weighted by a
version-driven sweep), ``recompiles`` (a condition compiled again after
eviction, or an object whose condition an answer simplified),
``circuit_reuses``, ``forest_nodes`` (live DAG size), ``nodes_shared``
(reachable nodes a registration did *not* have to create) and
``shared_fraction`` (= nodes_shared / total reachable over all
registrations).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..ctable.condition import Clause, Condition
from ..ctable.expression import Expression
from ..datasets.dataset import Variable
from ..errors import ResourceBudgetError
from .adpll import BRANCH_HEURISTICS, pick_branch_variable
from .distributions import DistributionStore
from .kernel import ForestProgram

__all__ = [
    "CircuitForest",
    "DEFAULT_CIRCUIT_CACHE_SIZE",
    "DEFAULT_COMPILE_NODE_BUDGET",
]

#: Default cap on nodes created while compiling ONE condition.
#: Generous -- typical skyline conditions compile to a few hundred nodes
#: -- but finite, because pathological clause entanglement is worst-case
#: exponential; exhaustion degrades to ADPLL via the engine's breaker.
DEFAULT_COMPILE_NODE_BUDGET = 200_000

#: Default bound on registered circuits (root pins) per forest (LRU).
DEFAULT_CIRCUIT_CACHE_SIZE = 16_384

# Node kinds, shared with the array kernel.  TRUE/FALSE are constants,
# LEAF_SET is "variable in value set" (values None = the full-domain
# smoothing literal), LEAF_PAIR is a var-vs-var theory atom (possibly
# negated), SUM/PROD are the deterministic-or / decomposable-and gates.
NODE_TRUE = 0
NODE_FALSE = 1
NODE_LEAF_SET = 2
NODE_LEAF_PAIR = 3
NODE_SUM = 4
NODE_PROD = 5

#: Kind marker for freed slots (never a valid node kind).
_FREED = -1

#: Refcount pin for the TRUE/FALSE constants: they are shared by every
#: circuit and must survive any eviction cascade.
_PINNED = 1 << 60


class CircuitForest:
    """All registered circuits as one refcounted, seq-ordered DAG.

    Scalar use is ``probability(condition, obj=...)``; batch use is
    :meth:`register` many conditions, then one :meth:`refresh` sweep
    serves every :meth:`value`.
    """

    def __init__(
        self,
        store: DistributionStore,
        heuristic: str = "frequency",
        node_budget: int = DEFAULT_COMPILE_NODE_BUDGET,
        capacity: int = DEFAULT_CIRCUIT_CACHE_SIZE,
        smooth: bool = True,
    ) -> None:
        if heuristic not in BRANCH_HEURISTICS:
            raise ValueError(
                "unknown branch heuristic %r; expected one of %r"
                % (heuristic, BRANCH_HEURISTICS)
            )
        if node_budget < 0:
            raise ValueError("node_budget must be non-negative (0 = unlimited)")
        self.store = store
        self.heuristic = heuristic
        self.node_budget = int(node_budget)
        self.smooth = smooth
        self.capacity = int(capacity)
        # columnar node pool (index = slot; slots are recycled)
        self.kinds: List[int] = []
        self.payloads: List[object] = []
        self.children: List[Tuple[int, ...]] = []
        self.scopes: List[FrozenSet[Variable]] = []
        self.seqs: List[int] = []
        self.refs: List[int] = []
        self._keys: List[Optional[Tuple]] = []
        self._free_slots: List[int] = []
        self._unique: Dict[Tuple, int] = {}
        self._next_seq = 0
        #: bumped on any create/free; the kernel program is cached per epoch
        self.epoch = 0
        self._live = 0
        self.TRUE = self._alloc(NODE_TRUE, None, (), frozenset())
        self.FALSE = self._alloc(NODE_FALSE, None, (), frozenset())
        self.refs[self.TRUE] = _PINNED
        self.refs[self.FALSE] = _PINNED
        #: registered roots, insertion-ordered (= the forest's own LRU;
        #: repro.lru.LRUCache has no eviction callback, and eviction here
        #: must decref the root)
        self._registered: Dict[Condition, int] = {}
        #: cross-registration structure memo: condition -> (slot, seq);
        #: validated on use (slot alive and seq unchanged) so freed or
        #: recycled slots can never be resurrected
        self._cond_memo: Dict[Condition, Tuple[int, int]] = {}
        self._memo_limit = max(4096, 4 * self.capacity) if self.capacity else 65_536
        #: variable -> live weight-bearing leaf slots mentioning it
        self.leaf_vars: Dict[Variable, Set[int]] = {}
        #: hashes of every condition ever compiled (recompile detection)
        self._seen: Set[int] = set()
        self._object_conditions: Dict[int, Condition] = {}
        # circuit counters
        self.circuits_compiled = 0
        self.circuit_nodes = 0
        self.propagations = 0
        self.recompiles = 0
        self.circuit_reuses = 0
        # forest counters
        self.nodes_shared = 0
        self._reach_total = 0
        self.full_sweeps = 0
        self.suffix_sweeps = 0
        self.evictions = 0
        # values: one array over all slots, refreshed by sweeps
        self._values: Optional[np.ndarray] = None
        self._values_version = -1
        self._swept = False
        #: oldest seq created since the last sweep (suffix cutoff)
        self._min_new_seq: Optional[int] = None
        self._program: Optional[ForestProgram] = None
        self._program_epoch = -1
        # per-registration compile scratch
        self._created: Optional[List[int]] = None
        self._budget_used = 0
        self._memo_scratch: Dict[Condition, int] = {}

    # ------------------------------------------------------------------
    # node pool
    # ------------------------------------------------------------------
    def _alloc(
        self,
        kind: int,
        payload: object,
        kids: Tuple[int, ...],
        scope: FrozenSet[Variable],
    ) -> int:
        if self._free_slots:
            slot = self._free_slots.pop()
            self.kinds[slot] = kind
            self.payloads[slot] = payload
            self.children[slot] = kids
            self.scopes[slot] = scope
            self.seqs[slot] = self._next_seq
            self.refs[slot] = 0
        else:
            slot = len(self.kinds)
            self.kinds.append(kind)
            self.payloads.append(payload)
            self.children.append(kids)
            self.scopes.append(scope)
            self.seqs.append(self._next_seq)
            self.refs.append(0)
            self._keys.append(None)
        self._next_seq += 1
        self._live += 1
        self.epoch += 1
        return slot

    def _new(
        self,
        kind: int,
        payload: object,
        kids: Tuple[int, ...],
        scope: FrozenSet[Variable],
    ) -> int:
        key = (kind, payload, kids)
        found = self._unique.get(key)
        if found is not None:
            return found
        budget = self.node_budget
        if budget and self._budget_used >= budget:
            raise ResourceBudgetError(
                "circuit node budget", float(self._budget_used + 1), float(budget)
            )
        self._budget_used += 1
        slot = self._alloc(kind, payload, kids, scope)
        self._keys[slot] = key
        self._unique[key] = slot
        for kid in kids:
            self.refs[kid] += 1
        if kind == NODE_LEAF_SET:
            variable, values = payload  # type: ignore[misc]
            if values is not None:
                self.leaf_vars.setdefault(variable, set()).add(slot)
        elif kind == NODE_LEAF_PAIR:
            for variable in payload[0].variables():  # type: ignore[index]
                self.leaf_vars.setdefault(variable, set()).add(slot)
        if self._created is not None:
            self._created.append(slot)
        if self._min_new_seq is None:
            self._min_new_seq = self.seqs[slot]
        return slot

    def _mark_free(self, slot: int) -> None:
        kind = self.kinds[slot]
        payload = self.payloads[slot]
        if kind == NODE_LEAF_SET:
            variable, values = payload  # type: ignore[misc]
            if values is not None:
                bucket = self.leaf_vars.get(variable)
                if bucket is not None:
                    bucket.discard(slot)
                    if not bucket:
                        del self.leaf_vars[variable]
        elif kind == NODE_LEAF_PAIR:
            for variable in payload[0].variables():  # type: ignore[index]
                bucket = self.leaf_vars.get(variable)
                if bucket is not None:
                    bucket.discard(slot)
                    if not bucket:
                        del self.leaf_vars[variable]
        key = self._keys[slot]
        if key is not None and self._unique.get(key) == slot:
            del self._unique[key]
        self.kinds[slot] = _FREED
        self.payloads[slot] = None
        self.children[slot] = ()
        self.scopes[slot] = frozenset()
        self._keys[slot] = None
        self.refs[slot] = 0
        self._free_slots.append(slot)
        self._live -= 1
        self.epoch += 1

    def _free_cascade(self, slot: int) -> None:
        """Free ``slot`` (refcount must be 0) and everything it orphans."""
        stack = [slot]
        while stack:
            s = stack.pop()
            if self.kinds[s] == _FREED or self.refs[s] > 0:
                continue
            kids = self.children[s]
            self._mark_free(s)
            for kid in kids:
                self.refs[kid] -= 1
                if self.refs[kid] == 0:
                    stack.append(kid)

    def _release_root(self, root: int) -> None:
        self.refs[root] -= 1
        if self.refs[root] == 0:
            self._free_cascade(root)

    def _rollback(self, created: List[int]) -> None:
        """Tear down a failed registration's nodes, newest first.

        Only created nodes can reference created nodes (children exist
        before parents), so unconditional teardown in reverse creation
        order restores every pre-existing refcount exactly.
        """
        for slot in reversed(created):
            if self.kinds[slot] == _FREED:
                continue
            kids = self.children[slot]
            self._mark_free(slot)
            for kid in kids:
                self.refs[kid] -= 1

    def live_slots(self) -> List[int]:
        return [slot for slot, kind in enumerate(self.kinds) if kind != _FREED]

    def domain_size(self, variable: Variable) -> int:
        return self.store.domain_size(variable)

    # ------------------------------------------------------------------
    # builder gates: dedup through the unique table, flatten nested
    # products, smooth sums (see module doc)
    # ------------------------------------------------------------------
    def _set_leaf(self, variable: Variable, values: Sequence[int], size: int) -> int:
        values = tuple(sorted(values))
        if not values:
            return self.FALSE
        if len(values) == size:
            return self.TRUE
        return self._new(NODE_LEAF_SET, (variable, values), (), frozenset((variable,)))

    def _full_leaf(self, variable: Variable) -> int:
        return self._new(NODE_LEAF_SET, (variable, None), (), frozenset((variable,)))

    def _pair_leaf(self, expression: Expression, negated: bool) -> int:
        return self._new(
            NODE_LEAF_PAIR,
            (expression, negated),
            (),
            frozenset(expression.variables()),
        )

    def _prod(self, kids: Sequence[int]) -> int:
        flat: List[int] = []
        for child in kids:
            if child == self.FALSE:
                return self.FALSE
            if child == self.TRUE:
                continue
            if self.kinds[child] == NODE_PROD:
                flat.extend(self.children[child])
            else:
                flat.append(child)
        if not flat:
            return self.TRUE
        flat = sorted(set(flat))
        if len(flat) == 1:
            return flat[0]
        scope = frozenset().union(*(self.scopes[child] for child in flat))
        return self._new(NODE_PROD, None, tuple(flat), scope)

    def _sum(self, kids: Sequence[int]) -> int:
        live = [child for child in kids if child != self.FALSE]
        if not live:
            return self.FALSE
        if len(live) == 1:
            return live[0]
        scope = frozenset().union(*(self.scopes[child] for child in live))
        if self.smooth:
            padded = []
            for child in live:
                missing = scope - self.scopes[child]
                if missing:
                    pads = [self._full_leaf(v) for v in sorted(missing)]
                    child = self._prod([child] + pads)
                padded.append(child)
            live = padded
        return self._new(NODE_SUM, None, tuple(sorted(live)), scope)

    # ------------------------------------------------------------------
    # compiler (ADPLL's traversal, with a cross-registration condition
    # memo layered over the per-registration one)
    # ------------------------------------------------------------------
    def _compile_node(self, condition: Condition) -> int:
        if condition.is_true:
            return self.TRUE
        if condition.is_false:
            return self.FALSE
        node = self._memo_scratch.get(condition)
        if node is not None:
            return node
        entry = self._cond_memo.get(condition)
        if entry is not None:
            slot, seq = entry
            if self.kinds[slot] != _FREED and self.seqs[slot] == seq:
                self._memo_scratch[condition] = slot
                return slot
            del self._cond_memo[condition]
        if condition.is_variable_disjoint():
            node = self._prod([self._clause(clause) for clause in condition.clauses])
        else:
            components = condition.connected_components()
            if len(components) > 1:
                node = self._prod(
                    [self._compile_node(component) for component in components]
                )
            else:
                node = self._decision(condition)
        self._memo_scratch[condition] = node
        return node

    def _literal(self, expression: Expression, negated: bool) -> int:
        variables = expression.variables()
        if len(variables) == 2:
            return self._pair_leaf(expression, negated)
        variable = variables[0]
        size = self.store.domain_size(variable)
        values = expression.true_values(size)
        if negated:
            positive = set(values)
            values = tuple(v for v in range(size) if v not in positive)
        return self._set_leaf(variable, values, size)

    def _clause(self, clause: Clause) -> int:
        """A variable-disjoint clause as the deterministic sum
        ``e1 + !e1*e2 + !e1*!e2*e3 + ...`` (mutually exclusive terms)."""
        terms: List[int] = []
        negatives: List[int] = []
        for expression in clause:
            positive = self._literal(expression, False)
            if positive == self.FALSE:
                # this expression can never hold; it contributes nothing
                continue
            if positive == self.TRUE:
                # certainly true once reached: "all earlier failed" absorbs
                # the remaining expressions
                terms.append(self._prod(list(negatives)))
                return self._sum(terms)
            terms.append(self._prod(negatives + [positive]))
            negatives = negatives + [self._literal(expression, True)]
        return self._sum(terms)

    def _decision(self, condition: Condition) -> int:
        """Branch like ADPLL, over the FULL base domain (see module doc)."""
        variable = pick_branch_variable(
            condition, self.heuristic, domain_size=self.store.domain_size
        )
        size = self.store.domain_size(variable)
        kids: List[int] = []
        for value in range(size):
            residual = self._compile_node(condition.substitute(variable, value))
            if residual == self.FALSE:
                continue
            leaf = self._set_leaf(variable, (value,), size)
            kids.append(self._prod([leaf, residual]))
        return self._sum(kids)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, condition: Condition, obj: Optional[int] = None) -> int:
        """Ensure ``condition`` has a registered root; return its slot.

        Raises :class:`ResourceBudgetError` (with full rollback) when a
        needed compilation exceeds the node budget.  Registered hits
        touch the LRU; capacity overflow evicts the oldest registration
        and cascade-frees its now-unshared nodes.
        """
        if condition.is_true:
            return self.TRUE
        if condition.is_false:
            return self.FALSE
        registered = self._registered
        root = registered.get(condition)
        if root is not None:
            del registered[condition]
            registered[condition] = root
            if obj is not None:
                self._object_conditions[obj] = condition
            if (
                self._swept
                and self._min_new_seq is None
                and self.store.version == self._values_version
            ):
                self.circuit_reuses += 1
            return root
        condition_changed = (
            obj is not None
            and self._object_conditions.get(obj) not in (None, condition)
        )
        self._created = []
        self._memo_scratch = {}
        self._budget_used = 0
        try:
            root = self._compile_node(condition)
        except ResourceBudgetError:
            self._rollback(self._created)
            raise
        finally:
            created, self._created = self._created, None
            memo_scratch, self._memo_scratch = self._memo_scratch, {}
        self.refs[root] += 1  # pin the registered root
        # free orphans: nodes created for dead branches of this compile
        for slot in reversed(created):
            if slot != root and self.kinds[slot] != _FREED and self.refs[slot] == 0:
                self._free_cascade(slot)
        for cond, slot in memo_scratch.items():
            if self.kinds[slot] != _FREED:
                self._cond_memo[cond] = (slot, self.seqs[slot])
        if len(self._cond_memo) > self._memo_limit:
            self._prune_memo()
        created_live = sum(1 for slot in created if self.kinds[slot] != _FREED)
        reach = self._reach_count(root)
        self.circuits_compiled += 1
        self.circuit_nodes += created_live
        self.nodes_shared += max(0, reach - created_live)
        self._reach_total += reach
        key = hash(condition)
        if key in self._seen or condition_changed:
            self.recompiles += 1
        self._seen.add(key)
        registered[condition] = root
        if obj is not None:
            self._object_conditions[obj] = condition
        if self.capacity and len(registered) > self.capacity:
            oldest = next(iter(registered))
            self._release_root(registered.pop(oldest))
            self.evictions += 1
        return root

    def _reach_count(self, root: int) -> int:
        """Nodes reachable from ``root``, excluding the TRUE/FALSE pins."""
        if root == self.TRUE or root == self.FALSE:
            return 0
        seen = {root}
        stack = [root]
        while stack:
            for kid in self.children[stack.pop()]:
                if kid not in seen and kid != self.TRUE and kid != self.FALSE:
                    seen.add(kid)
                    stack.append(kid)
        return len(seen)

    def _prune_memo(self) -> None:
        kept = {
            cond: (slot, seq)
            for cond, (slot, seq) in self._cond_memo.items()
            if self.kinds[slot] != _FREED and self.seqs[slot] == seq
        }
        if len(kept) > self._memo_limit:
            kept.clear()
        self._cond_memo = kept

    # ------------------------------------------------------------------
    # values
    # ------------------------------------------------------------------
    def ensure_program(self) -> ForestProgram:
        """The kernel program for the current epoch (rebuilt on change)."""
        if self._program is None or self._program_epoch != self.epoch:
            self._program = ForestProgram.build(self)
            self._program_epoch = self.epoch
        return self._program

    def _grow_values(self) -> np.ndarray:
        n = len(self.kinds)
        if self._values is None:
            self._values = np.zeros(n, dtype=np.float64)
        elif len(self._values) < n:
            grown = np.zeros(n, dtype=np.float64)
            grown[: len(self._values)] = self._values
            self._values = grown
        return self._values

    def _sweep(self, values: np.ndarray, cutoff: Optional[int]) -> None:
        program = self.ensure_program()
        program.evaluate(values, program.gather_pmfs(self.store), min_seq=cutoff)

    def refresh(self) -> None:
        """Bring the forest-wide value array up to the store's version.

        First use runs a full ``evaluate_many`` sweep; afterwards only
        suffixes: from the oldest node created since the last sweep
        and/or the oldest leaf of any variable whose constraints moved
        (``propagate_many``).  A version-driven suffix sweep counts one
        propagation per registered circuit.
        """
        store = self.store
        if not self._registered:
            self._values_version = store.version
            self._min_new_seq = None
            return
        values = self._grow_values()
        if not self._swept:
            self._sweep(values, None)
            self.full_sweeps += 1
            self._swept = True
            self._values_version = store.version
            self._min_new_seq = None
            return
        cutoff = self._min_new_seq
        dirty = False
        if store.version != self._values_version:
            since = self._values_version
            changed_min: Optional[int] = None
            for variable, slots in self.leaf_vars.items():
                if store.variables_unchanged_since((variable,), since):
                    continue
                oldest = min(self.seqs[slot] for slot in slots)
                if changed_min is None or oldest < changed_min:
                    changed_min = oldest
            if changed_min is not None:
                dirty = True
                cutoff = changed_min if cutoff is None else min(cutoff, changed_min)
        if cutoff is not None:
            self._sweep(values, cutoff)
            if dirty:
                self.propagations += len(self._registered)
            else:
                self.suffix_sweeps += 1
        self._values_version = store.version
        self._min_new_seq = None

    def value(self, condition: Condition) -> float:
        """The registered condition's probability as of the last refresh."""
        if condition.is_true:
            return 1.0
        if condition.is_false:
            return 0.0
        root = self._registered[condition]
        return float(self._values[root])

    def probability(self, condition: Condition, obj: Optional[int] = None) -> float:
        """Scalar entry point: register + refresh."""
        if condition.is_true:
            return 1.0
        if condition.is_false:
            return 0.0
        root = self.register(condition, obj=obj)
        self.refresh()
        return float(self._values[root])

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._registered)

    @property
    def forest_nodes(self) -> int:
        """Live shared-DAG nodes, excluding the two pinned constants."""
        return max(0, self._live - 2)

    def stats(self) -> Dict[str, object]:
        shared_fraction = (
            self.nodes_shared / self._reach_total if self._reach_total else 0.0
        )
        return {
            "circuits_compiled": self.circuits_compiled,
            "circuit_nodes": self.circuit_nodes,
            "propagations": self.propagations,
            "recompiles": self.recompiles,
            "circuit_reuses": self.circuit_reuses,
            "circuit_cache_size": len(self._registered),
            "forest_nodes": self.forest_nodes,
            "nodes_shared": self.nodes_shared,
            "shared_fraction": float(shared_fraction),
            "forest_full_sweeps": self.full_sweeps,
            "forest_suffix_sweeps": self.suffix_sweeps,
            "forest_evictions": self.evictions,
        }

    @staticmethod
    def empty_stats() -> Dict[str, object]:
        """Zeroed counters with the forest's full key schema.

        Engine stats merge these under every backend so the obs
        verifier always finds the circuit keys.
        """
        return {
            "circuits_compiled": 0,
            "circuit_nodes": 0,
            "propagations": 0,
            "recompiles": 0,
            "circuit_reuses": 0,
            "circuit_cache_size": 0,
            "forest_nodes": 0,
            "nodes_shared": 0,
            "shared_fraction": 0.0,
            "forest_full_sweeps": 0,
            "forest_suffix_sweeps": 0,
            "forest_evictions": 0,
        }
