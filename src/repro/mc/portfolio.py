"""The sequential SAT/BDD portfolio backend.

:class:`PortfolioChecker` presents the :class:`SymbolicModelChecker`
interface (``check(formula) -> CheckResult`` plus a ``labels`` map) over
a union :class:`StateModel` skeleton, but answers each property with the
cheapest engine that is conclusive:

1. **BMC** (``repro.mc.cnf``) — incremental SAT unrolling over the
   encoder's attribute-block bit variables.  Finds shallow violations in
   a handful of solver queries without ever materializing states; for
   an IoT union model most real violations are 1-3 events deep.
2. **IC3** (``repro.mc.ic3``) — unbounded proof for properties BMC
   could not refute (``mode="bmc"`` only).
3. **BDD fallback** — the established symbolic checker, built lazily on
   the same skeleton the first time a property is inconclusive for the
   SAT engines (formula shapes BMC cannot encode, IC3 budget blown, or
   ``mode="portfolio"`` where proofs always go to the BDDs).

The engines run one after the other per formula, in the order above —
nothing is raced or cancelled.  The verdict is correct whichever engine
answers (BMC counterexamples are concrete paths, IC3 proofs are
inductive invariants, the fallback is the differentially-tested BDD
checker), so the engine order changes latency only — that is what the
portfolio parity suite pins down.
"""

from __future__ import annotations

from repro.mc import ctl
from repro.mc.cnf import BmcUnroller, CnfUnionSystem, invariant_shape
from repro.mc.explicit import CheckResult
from repro.mc.ic3 import HOLDS, UNKNOWN, VIOLATED, IC3Prover
from repro.model.kripke import KripkeState
from repro.model.statemodel import StateModel

#: BMC unrolling depth per mode.  ``portfolio`` runs a shallow BMC pass
#: before the BDD checker and never tries to prove with SAT; ``bmc``
#: digs deeper and attempts an IC3 proof before falling back.
PORTFOLIO_DEPTH = 4
BMC_DEPTH = 8
IC3_MAX_FRAMES = 40
IC3_MAX_QUERIES = 4000


class PortfolioChecker:
    """Check catalog formulas against a union model with SAT engines
    first and the BDD checker as the conclusive fallback."""

    def __init__(
        self,
        union: StateModel,
        *,
        mode: str = "portfolio",
        written: frozenset | None = None,
        encoding: str = "auto",
        kernel: str = "auto",
    ) -> None:
        if mode not in ("portfolio", "bmc"):
            raise ValueError(f"unknown portfolio mode: {mode!r}")
        self.union = union
        self.mode = mode
        self._written = written
        self._encoding = encoding
        self._kernel = kernel
        self.system = CnfUnionSystem(union, written=written)
        self.unroller = BmcUnroller(self.system)
        self._ic3_unroller: BmcUnroller | None = None
        self.labels: dict[KripkeState, frozenset[str]] = {}
        self.symbolic_model = None
        self._symbolic_checker = None
        self.stats: dict[str, int] = {
            "formulas": 0,
            "bmc_violations": 0,
            "bmc_queries": 0,
            "ic3_proofs": 0,
            "ic3_violations": 0,
            "ic3_queries": 0,
            "fallbacks": 0,
            "unsupported": 0,
        }

    # -- engines -------------------------------------------------------
    def _bmc_depth(self) -> int:
        return BMC_DEPTH if self.mode == "bmc" else PORTFOLIO_DEPTH

    def _symbolic(self):
        """The lazily-built BDD fallback checker, sharing our labels map."""
        if self._symbolic_checker is None:
            from repro.mc.symbolic import SymbolicModelChecker
            from repro.model.encoder import SymbolicUnionModel

            self.symbolic_model = SymbolicUnionModel(
                self.union,
                encoding=self._encoding,
                written=self._written,
                kernel=self._kernel,
            )
            self._symbolic_checker = SymbolicModelChecker(self.symbolic_model)
            self._symbolic_checker.labels = self.labels
        return self._symbolic_checker

    def _record_trace(self, trace) -> list[KripkeState]:
        states = []
        for state, state_labels in trace:
            self.labels.setdefault(state, state_labels)
            states.append(state)
        return states

    # -- SymbolicModelChecker interface --------------------------------
    def check(self, formula: ctl.Formula | str) -> CheckResult:
        if isinstance(formula, str):
            formula = ctl.parse_ctl(formula)
        self.stats["formulas"] += 1
        shape = invariant_shape(formula)
        if shape is None:
            self.stats["unsupported"] += 1
            self.stats["fallbacks"] += 1
            return self._symbolic().check(formula)

        # Stage 1: bounded refutation on the shared unroller.
        unroller = self.unroller
        for depth in range(self._bmc_depth() + 1):
            self.stats["bmc_queries"] += 1
            model = unroller.solver.solve(
                assumptions=unroller.bad_assumptions(shape, depth)
            )
            if model is not None:
                self.stats["bmc_violations"] += 1
                extra = 0 if shape.ex_target is None else 1
                states = self._record_trace(
                    unroller.decode_trace(model, depth + extra)
                )
                return CheckResult(
                    formula=formula,
                    holds=False,
                    failing_states=[states[0]],
                    counterexample=states,
                )

        # Stage 2 (bmc mode): unbounded proof attempt.
        if self.mode == "bmc":
            if self._ic3_unroller is None:
                self._ic3_unroller = BmcUnroller(self.system, guard_initial=True)
            prover = IC3Prover(
                self.system,
                unroller=self._ic3_unroller,
                max_frames=IC3_MAX_FRAMES,
                max_queries=IC3_MAX_QUERIES,
            )
            verdict, trace = prover.prove(shape)
            self.stats["ic3_queries"] += prover.queries
            if verdict is HOLDS:
                self.stats["ic3_proofs"] += 1
                return CheckResult(formula=formula, holds=True)
            if verdict is VIOLATED:
                self.stats["ic3_violations"] += 1
                states = self._record_trace(trace)
                return CheckResult(
                    formula=formula,
                    holds=False,
                    failing_states=[states[0]],
                    counterexample=states,
                )
            assert verdict is UNKNOWN

        # Stage 3: the BDD checker is always conclusive.
        self.stats["fallbacks"] += 1
        return self._symbolic().check(formula)
