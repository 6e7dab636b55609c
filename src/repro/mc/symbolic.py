"""BDD-based symbolic CTL model checking.

:class:`SymbolicModelChecker` checks a
:class:`repro.model.encoder.SymbolicUnionModel`: the transition relation
comes straight from the apps' symbolic rules over shared attribute
variable blocks, the check is restricted to the reachable-state fixpoint,
and the Cartesian product is never enumerated.  Counterexample witnesses
are extracted from the reachability frontiers and decoded into the same
:class:`~repro.model.kripke.KripkeState` objects the explicit checker
reports, so reporting is backend-agnostic.

EX is the relational preimage ``exists y . R(x, y) & f[y/x]``; EU/EG are
the usual fixpoints computed entirely on BDDs.  The differential suites
verify it against the explicit checker (they must agree on every
formula/model pair).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.mc import ctl
from repro.mc.explicit import CheckResult
from repro.model.kripke import KripkeState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.model.encoder import SymbolicUnionModel


class SymbolicModelChecker:
    """CTL checking over a compiled symbolic union model.

    The state space is the *reachable* fixpoint of the encoded relation
    (every product state is an initial state, mirroring the explicit
    Kripke construction, so reachability adds the event-labelled nodes on
    top).  Atomic propositions resolve through the encoder's proposition
    map; decoded witness states accumulate in :attr:`labels`, the
    symbolic stand-in for ``KripkeStructure.labels`` that violation
    diagnosis (app attribution, reflection marking) reads.
    """

    def __init__(self, symbolic: SymbolicUnionModel) -> None:
        self.symbolic = symbolic
        self.bdd = symbolic.bdd
        self._universe = symbolic.reachable
        self._initial = symbolic.initial
        self._cache: dict[ctl.Formula, int] = {}
        self._last_assignment: dict[str, bool] | None = None
        #: Labels of every state decoded while extracting witnesses.
        self.labels: dict[KripkeState, frozenset[str]] = {}

    # ------------------------------------------------------------------
    # CTL semantics (all sets live inside the reachable universe)
    # ------------------------------------------------------------------
    def sat(self, formula: ctl.Formula | str) -> int:
        if isinstance(formula, str):
            formula = ctl.parse_ctl(formula)
        cached = self._cache.get(formula)
        if cached is not None:
            return cached
        result = self.bdd.and_(self._sat(formula), self._universe)
        # Cached satisfaction sets survive any later forced reorder: they
        # are GC roots of the shared manager.
        self._cache[formula] = self.bdd.protect(result)
        return result

    def _preimage(self, f: int) -> int:
        return self.symbolic.pre(f)

    def _lfp(self, context: int, target: int) -> int:
        """E[context U target] as a least fixpoint on BDDs.

        Iterated on the *frontier*: preimages distribute over union, so
        each round only the states added last round are fed to the
        (fragment-partitioned) preimage — on wide unions this is the
        difference between quadratic and linear work in the fixpoint
        depth.
        """
        current = target
        frontier = target
        while frontier != self.bdd.FALSE:
            step = self.bdd.and_(context, self._preimage(frontier))
            frontier = self.bdd.and_not(step, current)
            current = self.bdd.or_(current, frontier)
        return current

    def _gfp(self, context: int) -> int:
        """EG context as a greatest fixpoint on BDDs."""
        current = context
        while True:
            nxt = self.bdd.and_(current, self._preimage(current))
            if nxt == current:
                return current
            current = nxt

    def _sat(self, f: ctl.Formula) -> int:
        bdd = self.bdd
        if isinstance(f, ctl.Bool):
            return self._universe if f.value else bdd.FALSE
        if isinstance(f, ctl.Prop):
            return bdd.and_(self._universe, self.symbolic.prop(f.name))
        if isinstance(f, ctl.Not):
            return bdd.and_not(self._universe, self.sat(f.operand))
        if isinstance(f, ctl.And):
            return bdd.and_(self.sat(f.left), self.sat(f.right))
        if isinstance(f, ctl.Or):
            return bdd.or_(self.sat(f.left), self.sat(f.right))
        if isinstance(f, ctl.Implies):
            return bdd.and_(
                self._universe,
                bdd.or_(bdd.not_(self.sat(f.left)), self.sat(f.right)),
            )
        if isinstance(f, ctl.EX):
            return bdd.and_(self._universe, self._preimage(self.sat(f.operand)))
        if isinstance(f, ctl.AX):
            inner = bdd.and_not(self._universe, self.sat(f.operand))
            return bdd.and_not(self._universe, self._preimage(inner))
        if isinstance(f, ctl.EF):
            return self._lfp(self._universe, self.sat(f.operand))
        if isinstance(f, ctl.EU):
            return self._lfp(self.sat(f.left), self.sat(f.right))
        if isinstance(f, ctl.EG):
            return self._gfp(self.sat(f.operand))
        if isinstance(f, ctl.AF):
            inner = bdd.and_not(self._universe, self.sat(f.operand))
            return bdd.and_not(self._universe, self._gfp(inner))
        if isinstance(f, ctl.AG):
            inner = bdd.and_not(self._universe, self.sat(f.operand))
            reach = self._lfp(self._universe, inner)
            return bdd.and_not(self._universe, reach)
        if isinstance(f, ctl.AU):
            not_b = bdd.and_not(self._universe, self.sat(f.right))
            not_a_not_b = bdd.and_not(not_b, self.sat(f.left))
            bad = bdd.or_(self._lfp(not_b, not_a_not_b), self._gfp(not_b))
            return bdd.and_not(self._universe, bad)
        raise TypeError(f"unsupported formula {type(f).__name__}")

    # ------------------------------------------------------------------
    # Top-level checks, explicit-checker-compatible
    # ------------------------------------------------------------------
    def check(self, formula: ctl.Formula | str) -> CheckResult:
        """Check ``formula`` against every initial state.

        The returned :class:`~repro.mc.explicit.CheckResult` has the
        explicit checker's shape: on failure ``failing_states`` holds one
        decoded failing initial state and ``counterexample`` a decoded
        witness path (AG: shortest path into the violation from the
        reachability frontiers; AF: a lasso inside the EG region).
        """
        if isinstance(formula, str):
            formula = ctl.parse_ctl(formula)
        satisfied = self.sat(formula)
        failing = self.bdd.and_not(self._initial, satisfied)
        result = CheckResult(formula=formula, holds=failing == self.bdd.FALSE)
        if result.holds:
            return result
        start = self._register(failing)
        if start is not None:
            result.failing_states = [start]
        self._attach_counterexample(formula, failing, result)
        return result

    def _register(self, states: int) -> KripkeState | None:
        """Decode one state of a non-empty set, recording its labels."""
        assignment = self.bdd.any_sat(states)
        if assignment is None:
            return None
        node, labels = self.symbolic.decode(assignment)
        self.labels[node] = labels
        self._last_assignment = assignment
        return node

    def _attach_counterexample(
        self, formula: ctl.Formula, failing: int, result: CheckResult
    ) -> None:
        if isinstance(formula, ctl.AG):
            bad = self.bdd.and_(
                self._universe, self.bdd.not_(self.sat(formula.operand))
            )
            path = self._shortest_path(failing, bad)
            if path:
                result.counterexample = path
            return
        if isinstance(formula, ctl.Implies) and isinstance(formula.right, ctl.AG):
            # Common shape AG properties take after applicability guards.
            self._attach_counterexample(formula.right, failing, result)
            return
        if isinstance(formula, ctl.AF):
            context = self.bdd.and_(
                self._universe, self.bdd.not_(self.sat(formula.operand))
            )
            lasso = self._find_lasso(failing, context)
            if lasso is not None:
                result.counterexample, result.counterexample_loop = lasso
            return
        if result.failing_states:
            result.counterexample = [result.failing_states[0]]

    def _shortest_path(self, sources: int, targets: int) -> list[KripkeState]:
        """A shortest witness path, walked back over BFS frontiers.

        Forward frontiers are grown from ``sources`` until one meets
        ``targets``; the path is then reconstructed ring by ring through
        symbolic preimages — each step decodes exactly one state.
        """
        bdd = self.bdd
        frontiers = [sources]
        covered = sources
        hit = bdd.and_(sources, targets)
        while hit == bdd.FALSE:
            nxt = bdd.and_not(self.symbolic.post(frontiers[-1]), covered)
            if nxt == bdd.FALSE:
                return []
            frontiers.append(nxt)
            covered = bdd.or_(covered, nxt)
            hit = bdd.and_(nxt, targets)
        node = self._register(hit)
        if node is None:
            return []
        path = [node]
        cube = self.symbolic.state_cube(self._last_assignment)
        for ring in reversed(frontiers[:-1]):
            candidates = bdd.and_(ring, self.symbolic.pre(cube))
            node = self._register(candidates)
            if node is None:  # pragma: no cover - rings are connected
                break
            path.append(node)
            cube = self.symbolic.state_cube(self._last_assignment)
        path.reverse()
        return path

    def _find_lasso(
        self, failing: int, context: int
    ) -> tuple[list[KripkeState], list[KripkeState]] | None:
        """A stem + cycle staying inside ``context`` (witness for EG)."""
        bdd = self.bdd
        eg = self._gfp(context)
        start_set = bdd.and_(failing, eg)
        start = self._register(start_set)
        if start is None:
            return None
        path = [start]
        seen = {start: 0}
        cube = self.symbolic.state_cube(self._last_assignment)
        while True:
            succs = bdd.and_(self.symbolic.post(cube), eg)
            node = self._register(succs)
            if node is None:
                return path, []
            if node in seen:
                cut = seen[node]
                return path[:cut], path[cut:]
            seen[node] = len(path)
            path.append(node)
            cube = self.symbolic.state_cube(self._last_assignment)

    # ------------------------------------------------------------------
    def state_count(self) -> int:
        """Number of reachable states of the composed model."""
        return self.symbolic.state_count()
