"""IC3/PDR-style unbounded invariant proving over the CNF union encoding.

Where BMC can only *refute* an ``AG`` property (or prove it by reaching
the completeness bound, hopeless for union models), property-directed
reachability proves it without unrolling: a growing sequence of frames
``F_0 = I, F_1, ..., F_N`` (each an over-approximation of the states
reachable in at most that many steps) is strengthened by blocking
predecessors of bad states until some ``F_i = F_{i+1}``, i.e. an
inductive invariant excluding all bad states — or a chain of concrete
predecessor cubes reaches the initial states, which is a real
counterexample trace.

The implementation reuses one two-step :class:`~repro.mc.cnf.BmcUnroller`
(``x`` = step 0, ``x'`` = step 1) built with ``guard_initial=True``:
frame membership, ``init``, and cube negations are all switched per
query through assumption literals, so the single incremental solver
serves every query.  Budgets (frames, SAT queries) bound the worst case;
exhausting them yields :data:`Verdict.UNKNOWN`, which the portfolio
backend treats as "fall back to the BDD checker".
"""

from __future__ import annotations

import enum
import heapq
import itertools

from repro.mc.cnf import BmcUnroller, CnfUnionSystem, InvariantShape
from repro.model.kripke import KripkeState

#: Decoded trace entry: (state, labels) as produced by BmcUnroller.state_at.
TraceStep = tuple[KripkeState, frozenset[str]]


class Verdict(enum.Enum):
    """Outcome of a SAT-engine invariant query.

    ``UNKNOWN`` (budget or bound exhausted) is never a proof: only
    ``HOLDS`` is truthy, and the portfolio backend answers ``UNKNOWN``
    with its BDD fallback.
    """

    HOLDS = "holds"
    VIOLATED = "violated"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:
        return self is Verdict.HOLDS


HOLDS = Verdict.HOLDS
VIOLATED = Verdict.VIOLATED
UNKNOWN = Verdict.UNKNOWN


class _Budget(Exception):
    """Raised internally when the query budget runs out."""


class IC3Prover:
    def __init__(
        self,
        system: CnfUnionSystem,
        unroller: BmcUnroller | None = None,
        max_frames: int = 50,
        max_queries: int = 5000,
    ) -> None:
        if unroller is None:
            unroller = BmcUnroller(system, guard_initial=True)
        elif unroller.init_act is None:
            raise ValueError("IC3 needs a guard_initial unroller")
        unroller.ensure_depth(1)
        self.unroller = unroller
        self.max_frames = max_frames
        self.max_queries = max_queries
        self.queries = 0
        # frame_acts[i] activates the clauses learned at level i (i >= 1);
        # slot 0 is a placeholder — F_0 queries assume init_act instead.
        self._frame_acts: list[int] = [0]
        self._frame_clauses: list[list[tuple[int, ...]]] = [[]]
        self._neg_acts: dict[frozenset[int], int] = {}

    # -- solver plumbing -----------------------------------------------
    def _solve(self, assumptions: list[int]) -> dict[int, bool] | None:
        self.queries += 1
        if self.queries > self.max_queries:
            raise _Budget()
        return self.unroller.solver.solve(assumptions=assumptions)

    def _frame_assumptions(self, level: int) -> list[int]:
        """Assumptions making the solver's state constraint equal F_level."""
        if level == 0:
            return [self.unroller.init_act]
        return self._frame_acts[level:]

    def _new_frame(self) -> None:
        self._frame_acts.append(self.unroller.solver.new_var())
        self._frame_clauses.append([])

    def _add_blocked(self, cube: tuple[int, ...], level: int) -> None:
        """Learn the clause ¬cube at frame ``level`` (and below, by the
        suffix-activation scheme)."""
        self._frame_clauses[level].append(cube)
        act = self._frame_acts[level]
        self.unroller.solver.add_clause([-act, *(-lit for lit in cube)])

    def _negated_cube_assumption(self, cube: tuple[int, ...]) -> int:
        """Activation literal enforcing ¬cube while assumed."""
        key = frozenset(cube)
        act = self._neg_acts.get(key)
        if act is None:
            act = self.unroller.solver.new_var()
            self.unroller.solver.add_clause([-act, *(-lit for lit in cube)])
            self._neg_acts[key] = act
        return act

    def _bad_assumptions(self, shape: InvariantShape) -> list[int]:
        unroller = self.unroller
        if shape.ex_target is None:
            return [-unroller.formula_lit(0, shape.formula.operand)]
        return [
            unroller.formula_lit(0, shape.context),
            unroller.formula_lit(1, shape.ex_target),
        ]

    # -- main loop -----------------------------------------------------
    def prove(self, shape: InvariantShape) -> tuple[Verdict, list[TraceStep]]:
        try:
            return self._prove(shape)
        except _Budget:
            return UNKNOWN, []

    def _prove(self, shape: InvariantShape) -> tuple[Verdict, list[TraceStep]]:
        unroller = self.unroller
        progress = unroller.progress[0]
        bad = self._bad_assumptions(shape)
        ex_witness = shape.ex_target is not None

        # Depth 0: a bad state among the initial states.
        model = self._solve([unroller.init_act, progress, *bad])
        if model is not None:
            trace = [unroller.state_at(model, 0)]
            if ex_witness:
                trace.append(unroller.state_at(model, 1))
            return VIOLATED, trace

        self._new_frame()
        while len(self._frame_acts) - 1 <= self.max_frames:
            top = len(self._frame_acts) - 1
            # Strengthen until no bad state is left in F_top.
            while True:
                model = self._solve(
                    [*self._frame_assumptions(top), progress, *bad]
                )
                if model is None:
                    break
                cube = tuple(unroller.state_literals(model, 0))
                witness = unroller.state_at(model, 1) if ex_witness else None
                counterexample = self._block(cube, top, witness)
                if counterexample is not None:
                    return VIOLATED, counterexample
            # Push learned clauses forward; F_i == F_{i+1} is a fixpoint.
            self._new_frame()
            for level in range(1, top + 1):
                for cube in list(self._frame_clauses[level]):
                    assumptions = [
                        *self._frame_assumptions(level),
                        progress,
                        *(unroller.prime_literal(lit) for lit in cube),
                    ]
                    if self._solve(assumptions) is None:
                        self._frame_clauses[level].remove(cube)
                        self._add_blocked(cube, level + 1)
                if not self._frame_clauses[level]:
                    # Every clause of F_level pushed: F_level == F_{level+1}
                    # is inductive, and F_level ∧ bad was refuted when
                    # level was the top frame — the property holds.
                    return HOLDS, []
        return UNKNOWN, []

    # -- blocking ------------------------------------------------------
    def _block(
        self,
        cube: tuple[int, ...],
        level: int,
        witness: TraceStep | None,
    ) -> list[TraceStep] | None:
        """Block ``cube`` at ``level``; a concrete counterexample trace if
        the obligation chain reaches the initial states, else None."""
        unroller = self.unroller
        progress = unroller.progress[0]
        counter = itertools.count()
        # Obligations: (frame, tiebreak, cube, chain-of-cubes up to bad).
        heap: list[tuple[int, int, tuple[int, ...], tuple]] = [
            (level, next(counter), cube, (cube,))
        ]
        while heap:
            frame, _, s, chain = heapq.heappop(heap)
            assumptions = [
                *self._frame_assumptions(frame - 1),
                progress,
                self._negated_cube_assumption(s),
                *(unroller.prime_literal(lit) for lit in s),
            ]
            model = self._solve(assumptions)
            if model is not None:
                predecessor = tuple(unroller.state_literals(model, 0))
                if self._solve([unroller.init_act, *predecessor]) is not None:
                    trace = [
                        self._decode_cube(c) for c in (predecessor, *chain)
                    ]
                    if witness is not None:
                        trace.append(witness)
                    return trace
                heapq.heappush(
                    heap,
                    (frame - 1, next(counter), predecessor, (predecessor, *chain)),
                )
                heapq.heappush(heap, (frame, next(counter), s, chain))
            else:
                self._add_blocked(self._generalize(s, frame), frame)
        return None

    def _generalize(self, cube: tuple[int, ...], frame: int) -> tuple[int, ...]:
        """Drop literals from ``cube`` while ¬cube stays inductive
        relative to F_{frame-1} and disjoint from the initial states."""
        unroller = self.unroller
        progress = unroller.progress[0]
        kept = list(cube)
        for lit in cube:
            if len(kept) <= 1:
                break
            trial = [l for l in kept if l != lit]
            if self._solve([unroller.init_act, *trial]) is not None:
                continue
            assumptions = [
                *self._frame_assumptions(frame - 1),
                progress,
                self._negated_cube_assumption(tuple(trial)),
                *(unroller.prime_literal(l) for l in trial),
            ]
            if self._solve(assumptions) is None:
                kept = trial
        return tuple(kept)

    def _decode_cube(self, cube: tuple[int, ...]) -> TraceStep:
        assignment = {abs(lit): lit > 0 for lit in cube}
        return self.unroller.state_at(assignment, 0)
