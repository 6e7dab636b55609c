"""Explicit-state CTL model checker with counterexample extraction.

Standard bottom-up labelling (Clarke/Grumberg/Peled): the satisfying set of
every subformula is computed over the Kripke structure; EX is a preimage,
EU a backward least fixpoint, EG a greatest fixpoint; the universal
connectives are derived by duality.  Counterexamples:

* ``AG p``  — a finite path from an initial state to a ``!p`` state,
* ``AF p``  — a lasso (stem + cycle) staying inside ``!p``,
* generic   — the failing initial state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.mc import ctl
from repro.model.kripke import KripkeState, KripkeStructure


@dataclass
class CheckResult:
    """Outcome of checking one formula against one Kripke structure."""

    formula: ctl.Formula
    holds: bool
    failing_states: list[KripkeState] = field(default_factory=list)
    counterexample: list[KripkeState] = field(default_factory=list)
    counterexample_loop: list[KripkeState] = field(default_factory=list)


class ExplicitChecker:
    """Labelling-based CTL checker over one Kripke structure."""

    def __init__(self, kripke: KripkeStructure) -> None:
        self.kripke = kripke
        #: State labelling for witness diagnosis (the symbolic checkers
        #: expose the same attribute over their decoded states).
        self.labels = kripke.labels
        self.all_states = frozenset(kripke.states)
        self._pred = kripke.predecessors()
        self._cache: dict[ctl.Formula, frozenset[KripkeState]] = {}

    # ------------------------------------------------------------------
    # Satisfying sets
    # ------------------------------------------------------------------
    def sat(self, formula: ctl.Formula) -> frozenset[KripkeState]:
        cached = self._cache.get(formula)
        if cached is not None:
            return cached
        result = self._sat(formula)
        self._cache[formula] = result
        return result

    def _sat(self, f: ctl.Formula) -> frozenset[KripkeState]:
        if isinstance(f, ctl.Bool):
            return self.all_states if f.value else frozenset()
        if isinstance(f, ctl.Prop):
            return frozenset(
                s for s in self.kripke.states if f.name in self.kripke.labels[s]
            )
        if isinstance(f, ctl.Not):
            return self.all_states - self.sat(f.operand)
        if isinstance(f, ctl.And):
            return self.sat(f.left) & self.sat(f.right)
        if isinstance(f, ctl.Or):
            return self.sat(f.left) | self.sat(f.right)
        if isinstance(f, ctl.Implies):
            return (self.all_states - self.sat(f.left)) | self.sat(f.right)
        if isinstance(f, ctl.EX):
            return self._pre_exists(self.sat(f.operand))
        if isinstance(f, ctl.AX):
            # AX p = !EX !p
            return self.all_states - self._pre_exists(
                self.all_states - self.sat(f.operand)
            )
        if isinstance(f, ctl.EF):
            return self._eu(self.all_states, self.sat(f.operand))
        if isinstance(f, ctl.EU):
            return self._eu(self.sat(f.left), self.sat(f.right))
        if isinstance(f, ctl.EG):
            return self._eg(self.sat(f.operand))
        if isinstance(f, ctl.AF):
            # AF p = !EG !p
            return self.all_states - self._eg(self.all_states - self.sat(f.operand))
        if isinstance(f, ctl.AG):
            # AG p = !EF !p
            return self.all_states - self._eu(
                self.all_states, self.all_states - self.sat(f.operand)
            )
        if isinstance(f, ctl.AU):
            # A[a U b] = !(E[!b U (!a & !b)] | EG !b)
            not_b = self.all_states - self.sat(f.right)
            not_a_and_not_b = not_b - self.sat(f.left)
            bad = self._eu(not_b, not_a_and_not_b) | self._eg(not_b)
            return self.all_states - bad
        raise TypeError(f"unsupported formula {type(f).__name__}")

    # ------------------------------------------------------------------
    def _pre_exists(self, target: frozenset[KripkeState]) -> frozenset[KripkeState]:
        found: set[KripkeState] = set()
        for state in target:
            found.update(self._pred[state])
        return frozenset(found)

    def _eu(
        self, context: frozenset[KripkeState], target: frozenset[KripkeState]
    ) -> frozenset[KripkeState]:
        """Least fixpoint: states reaching ``target`` through ``context``."""
        satisfied = set(target)
        frontier = deque(target)
        while frontier:
            state = frontier.popleft()
            for parent in self._pred[state]:
                if parent in context and parent not in satisfied:
                    satisfied.add(parent)
                    frontier.append(parent)
        return frozenset(satisfied)

    def _eg(self, context: frozenset[KripkeState]) -> frozenset[KripkeState]:
        """Greatest fixpoint: Z = context ∩ pre∃(Z)."""
        current = set(context)
        changed = True
        while changed:
            changed = False
            for state in list(current):
                if not any(nxt in current for nxt in self.kripke.succ[state]):
                    current.discard(state)
                    changed = True
        return frozenset(current)

    # ------------------------------------------------------------------
    # Top-level checks
    # ------------------------------------------------------------------
    def check(self, formula: ctl.Formula) -> CheckResult:
        satisfied = self.sat(formula)
        failing = [s for s in self.kripke.initial if s not in satisfied]
        result = CheckResult(formula=formula, holds=not failing, failing_states=failing)
        if failing:
            self._attach_counterexample(formula, failing[0], result)
        return result

    def _attach_counterexample(
        self, formula: ctl.Formula, start: KripkeState, result: CheckResult
    ) -> None:
        if isinstance(formula, ctl.AG):
            bad = self.all_states - self.sat(formula.operand)
            path = self._shortest_path({start}, bad)
            if path:
                result.counterexample = path
            return
        if isinstance(formula, ctl.Implies) and isinstance(formula.right, ctl.AG):
            # Common shape AG properties take after applicability guards.
            self._attach_counterexample(formula.right, start, result)
            return
        if isinstance(formula, ctl.AF):
            context = self.all_states - self.sat(formula.operand)
            lasso = self._find_lasso(start, context)
            if lasso is not None:
                result.counterexample, result.counterexample_loop = lasso
            return
        result.counterexample = [start]

    def _shortest_path(
        self, sources: set[KripkeState], targets: frozenset[KripkeState]
    ) -> list[KripkeState]:
        parent: dict[KripkeState, KripkeState | None] = {s: None for s in sources}
        frontier = deque(sources)
        while frontier:
            state = frontier.popleft()
            if state in targets:
                path = [state]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])  # type: ignore[arg-type]
                path.reverse()
                return path
            for nxt in self.kripke.succ[state]:
                if nxt not in parent:
                    parent[nxt] = state
                    frontier.append(nxt)
        return []

    def _find_lasso(
        self, start: KripkeState, context: frozenset[KripkeState]
    ) -> tuple[list[KripkeState], list[KripkeState]] | None:
        """A stem + cycle staying inside ``context`` (witness for EG)."""
        if start not in context:
            return None
        eg_states = self._eg(context)
        if start not in eg_states:
            return None
        # Walk inside eg_states until a state repeats.
        path = [start]
        seen = {start: 0}
        current = start
        while True:
            nxt = next(
                (n for n in self.kripke.succ[current] if n in eg_states), None
            )
            if nxt is None:
                return path, []
            if nxt in seen:
                cut = seen[nxt]
                return path[:cut], path[cut:]
            seen[nxt] = len(path)
            path.append(nxt)
            current = nxt


def check(kripke: KripkeStructure, formula: ctl.Formula | str) -> CheckResult:
    """Check one CTL formula (object or text) against ``kripke``."""
    if isinstance(formula, str):
        formula = ctl.parse_ctl(formula)
    return ExplicitChecker(kripke).check(formula)
