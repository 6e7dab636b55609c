"""A from-scratch CDCL SAT solver (trail + two-watched-literal propagation).

Backs the CNF union encoder and its bounded unroller (:mod:`repro.mc.cnf`)
and the IC3 prover (:mod:`repro.mc.ic3`),
mirroring NuSMV's SAT-based engine the paper enables against state
explosion (Sec. 5).

CNF convention: variables are positive integers; literals are non-zero
integers (negative = negated); a clause is a list of literals.

:class:`Solver` is the production engine: assignments live on a trail
(no per-decision dict snapshots), propagation visits only the clauses
watching the falsified literal, conflicts learn a 1UIP clause and
backjump, and ``solve(assumptions=...)`` treats assumptions as the
first decision levels — which is what makes incremental BMC unrolling
and IC3 frame queries cheap.  :class:`ReferenceSolver` keeps the old
snapshot-copy DPLL as a differential oracle (see ``tests/test_sat.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

_UNASSIGNED = 0


class Solver:
    """Incremental CDCL solver: add clauses, then :meth:`solve`.

    Clauses persist across :meth:`solve` calls; each call may pass a
    different list of assumption literals.  ``self.clauses`` records
    every clause handed to :meth:`add_clause` verbatim (learned clauses
    are internal), so callers can meter encoding growth.
    """

    def __init__(self) -> None:
        self.nvars = 0
        self.clauses: list[list[int]] = []
        self._unsat = False
        self._units: list[int] = []
        self._watches: dict[int, list[list[int]]] = {}
        # Per-variable state, 1-indexed (slot 0 unused).
        self._assign: list[int] = [0]  # 0 unassigned, +1 true, -1 false
        self._level: list[int] = [0]
        self._reason: list[list[int] | None] = [None]
        self._activity: list[float] = [0.0]
        self._phase: list[bool] = [True]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._heap: list[tuple[float, int]] = []
        self._var_inc = 1.0

    # -- variables -----------------------------------------------------
    def new_var(self) -> int:
        self._ensure_vars(self.nvars + 1)
        return self.nvars

    def _ensure_vars(self, n: int) -> None:
        while self.nvars < n:
            self.nvars += 1
            self._assign.append(_UNASSIGNED)
            self._level.append(0)
            self._reason.append(None)
            self._activity.append(0.0)
            self._phase.append(True)
            heappush(self._heap, (0.0, self.nvars))

    # -- clauses -------------------------------------------------------
    def add_clause(self, clause: list[int]) -> None:
        for literal in clause:
            self._ensure_vars(abs(literal))
        self.clauses.append(list(clause))
        seen: set[int] = set()
        cleaned: list[int] = []
        for literal in clause:
            if -literal in seen:
                return  # tautology
            if literal not in seen:
                seen.add(literal)
                cleaned.append(literal)
        # Simplify against the root-level trail: literals already decided
        # at level 0 never change again, and a clause attached with a
        # falsified watch would otherwise miss its propagation trigger.
        final: list[int] = []
        for literal in cleaned:
            var = abs(literal)
            value = self._assign[var]
            if value != _UNASSIGNED and self._level[var] == 0:
                if (value if literal > 0 else -value) == 1:
                    return  # satisfied at root
                continue  # falsified at root: drop
            final.append(literal)
        if not final:
            self._unsat = True
        elif len(final) == 1:
            self._units.append(final[0])
        else:
            self._attach(final)

    def _attach(self, clause: list[int]) -> None:
        self._watches.setdefault(clause[0], []).append(clause)
        self._watches.setdefault(clause[1], []).append(clause)

    # -- assignment primitives -----------------------------------------
    def _value(self, literal: int) -> int:
        value = self._assign[abs(literal)]
        return value if literal > 0 else -value

    def _enqueue(self, literal: int, reason: list[int] | None) -> None:
        var = abs(literal)
        self._assign[var] = 1 if literal > 0 else -1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(literal)

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        for literal in reversed(self._trail[limit:]):
            var = abs(literal)
            self._phase[var] = literal > 0
            self._assign[var] = _UNASSIGNED
            self._reason[var] = None
            heappush(self._heap, (-self._activity[var], var))
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = min(self._qhead, len(self._trail))

    # -- propagation ---------------------------------------------------
    def _propagate(self) -> list[int] | None:
        """Two-watched-literal BCP; returns the conflicting clause."""
        while self._qhead < len(self._trail):
            literal = self._trail[self._qhead]
            self._qhead += 1
            falsified = -literal
            watchers = self._watches.get(falsified)
            if not watchers:
                continue
            kept: list[list[int]] = []
            n = len(watchers)
            for i in range(n):
                clause = watchers[i]
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == 1:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    if self._value(clause[k]) != -1:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches.setdefault(clause[1], []).append(clause)
                        break
                else:
                    kept.append(clause)
                    if self._value(first) == -1:  # conflict
                        kept.extend(watchers[i + 1:])
                        self._watches[falsified] = kept
                        self._qhead = len(self._trail)
                        return clause
                    self._enqueue(first, clause)
            self._watches[falsified] = kept
        return None

    # -- conflict analysis ---------------------------------------------
    def _bump(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self.nvars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
        heappush(self._heap, (-self._activity[var], var))

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learning; returns (learnt clause, backjump level)."""
        level = len(self._trail_lim)
        learnt: list[int] = []
        seen: set[int] = set()
        counter = 0
        index = len(self._trail) - 1
        p = 0
        reason: list[int] = conflict
        while True:
            for q in reason:
                var = abs(q)
                if q == p or var in seen or self._level[var] == 0:
                    continue
                seen.add(var)
                self._bump(var)
                if self._level[var] == level:
                    counter += 1
                else:
                    learnt.append(q)
            while abs(self._trail[index]) not in seen:
                index -= 1
            p = self._trail[index]
            index -= 1
            counter -= 1
            if counter == 0:
                break
            reason = self._reason[abs(p)] or []
        learnt.insert(0, -p)
        if len(learnt) == 1:
            return learnt, 0
        # Backjump to the second-highest decision level in the clause.
        best = max(range(1, len(learnt)), key=lambda i: self._level[abs(learnt[i])])
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, self._level[abs(learnt[1])]

    # -- decision ------------------------------------------------------
    def _pick_branch(self) -> int | None:
        while self._heap:
            _, var = heappop(self._heap)
            if self._assign[var] == _UNASSIGNED:
                return var
        for var in range(1, self.nvars + 1):  # heap drained; rescan
            if self._assign[var] == _UNASSIGNED:
                return var
        return None

    # -- main loop -----------------------------------------------------
    def solve(
        self, assumptions: list[int] | None = None
    ) -> dict[int, bool] | None:
        """Return a satisfying assignment {var: bool} or None (UNSAT).

        ``assumptions`` are temporary unit constraints for this call
        only; permanent clauses (and anything learned) are kept, making
        repeated calls over a growing formula incremental.
        """
        if self._unsat:
            return None
        self._backtrack(0)
        while self._units:
            literal = self._units.pop()
            value = self._value(literal)
            if value == -1:
                self._unsat = True
                return None
            if value == 0:
                self._enqueue(literal, None)
        if self._propagate() is not None:
            self._unsat = True
            return None
        assumed = list(assumptions or [])
        for literal in assumed:
            self._ensure_vars(abs(literal))
        nassumed = len(assumed)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                current = len(self._trail_lim)
                if current == 0:
                    self._unsat = True
                    return None
                if current <= nassumed:
                    # Every decision so far is an assumption: the
                    # assumption set itself is contradictory.
                    self._backtrack(0)
                    return None
                self._var_inc /= 0.95
                learnt, backjump = self._analyze(conflict)
                self._backtrack(backjump)
                if len(learnt) > 1:
                    self._attach(learnt)
                self._enqueue(learnt[0], learnt if len(learnt) > 1 else None)
                continue
            current = len(self._trail_lim)
            if current < nassumed:
                literal = assumed[current]
                value = self._value(literal)
                if value == -1:
                    self._backtrack(0)
                    return None
                self._trail_lim.append(len(self._trail))
                if value == 0:
                    self._enqueue(literal, None)
                continue
            var = self._pick_branch()
            if var is None:
                model = {
                    v: self._assign[v] > 0 for v in range(1, self.nvars + 1)
                }
                self._backtrack(0)
                return model
            self._trail_lim.append(len(self._trail))
            self._enqueue(var if self._phase[var] else -var, None)


@dataclass
class ReferenceSolver:
    """The original snapshot-copy DPLL solver, kept as a differential
    oracle for :class:`Solver` (same API, no incrementality tricks)."""

    clauses: list[list[int]] = field(default_factory=list)
    nvars: int = 0

    def new_var(self) -> int:
        self.nvars += 1
        return self.nvars

    def add_clause(self, clause: list[int]) -> None:
        for literal in clause:
            self.nvars = max(self.nvars, abs(literal))
        self.clauses.append(list(clause))

    # ------------------------------------------------------------------
    def solve(
        self, assumptions: list[int] | None = None
    ) -> dict[int, bool] | None:
        """Return a satisfying assignment {var: bool} or None (UNSAT)."""
        assignment: dict[int, bool] = {}
        for literal in assumptions or []:
            var, value = abs(literal), literal > 0
            if assignment.get(var, value) != value:
                return None
            assignment[var] = value

        def backtrack() -> bool:
            """Flip the most recent un-flipped decision; False if exhausted."""
            nonlocal assignment
            while frames:
                snapshot, decided, tried_false = frames.pop()
                if not tried_false:
                    assignment = dict(snapshot)
                    assignment[decided] = False
                    frames.append((snapshot, decided, True))
                    return True
            return False

        # Iterative DPLL: snapshot the assignment before each decision.
        frames: list[tuple[dict[int, bool], int, bool]] = []
        while True:
            while self._propagate(assignment):  # conflict
                if not backtrack():
                    return None
            variable = self._pick_branch(assignment)
            if variable is None:
                return dict(assignment)
            frames.append((dict(assignment), variable, False))
            assignment[variable] = True

    # ------------------------------------------------------------------
    def _propagate(self, assignment: dict[int, bool]) -> bool:
        """Unit propagation; True on conflict."""
        changed = True
        while changed:
            changed = False
            for clause in self.clauses:
                unassigned: int | None = None
                satisfied = False
                count = 0
                for literal in clause:
                    var = abs(literal)
                    if var in assignment:
                        if assignment[var] == (literal > 0):
                            satisfied = True
                            break
                    else:
                        unassigned = literal
                        count += 1
                if satisfied:
                    continue
                if count == 0:
                    return True  # conflict
                if count == 1 and unassigned is not None:
                    assignment[abs(unassigned)] = unassigned > 0
                    changed = True
        return False

    def _pick_branch(self, assignment: dict[int, bool]) -> int | None:
        # Branch on the variable appearing in the most unresolved clauses.
        scores: dict[int, int] = {}
        for clause in self.clauses:
            if any(
                abs(l) in assignment and assignment[abs(l)] == (l > 0)
                for l in clause
            ):
                continue
            for literal in clause:
                var = abs(literal)
                if var not in assignment:
                    scores[var] = scores.get(var, 0) + 1
        if scores:
            return max(scores, key=lambda v: (scores[v], -v))
        for var in range(1, self.nvars + 1):
            if var not in assignment:
                return var
        return None


def solve(clauses: list[list[int]]) -> dict[int, bool] | None:
    """One-shot solve."""
    solver = Solver()
    for clause in clauses:
        solver.add_clause(clause)
    return solver.solve()
