"""SAT-engine verdict soundness and incremental unrolling on union models.

The regression of record: an early bounded checker returned *holds*
whenever no counterexample existed within the bound, so a violation just
past the bound was reported as a proof.  In :class:`PortfolioChecker`
bound exhaustion proves nothing: a property BMC cannot refute is proven
by IC3 (``mode="bmc"``) or answered by the BDD fallback, and IC3 reports
an exhausted frame budget as :data:`Verdict.UNKNOWN`, never as a proof.
(The one-step-past-the-bound case itself is
``test_portfolio_backend.py::TestEngineAgreement::test_bound_exhaustion_is_not_a_proof``.)

The incremental side: one growing solver serves every depth and every
formula.  Raising the depth appends exactly one transition step's worth
of clauses (linear growth, no re-encoding), and re-querying explored
depths appends no transition steps at all: depth selection happens
through assumptions.
"""

import pytest

from repro.ir import build_ir
from repro.mc import ctl, portfolio
from repro.mc.cnf import BmcUnroller, CnfUnionSystem, invariant_shape
from repro.mc.explicit import check as explicit_check
from repro.mc.ic3 import IC3Prover, Verdict
from repro.mc.portfolio import PortfolioChecker
from repro.model import build_kripke, build_union_model, build_union_skeleton
from repro.model.extractor import extract_model
from repro.platform.smartapp import SmartApp

LEAK_OFF = '''
definition(name: "LeakOff")
preferences { section("s") {
    input "sw", "capability.switch"
    input "ws", "capability.waterSensor"
} }
def installed() { subscribe(ws, "water.wet", h) }
def h(evt) { sw.off() }
'''

MOTION_ON = '''
definition(name: "MotionOn")
preferences { section("s") {
    input "sw", "capability.switch"
    input "ms", "capability.motionSensor"
} }
def installed() { subscribe(ms, "motion.active", h) }
def h(evt) { sw.on() }
'''

ON = ctl.Prop("act:sw.switch=on")
OFF = ctl.Prop("act:sw.switch=off")
SWITCH_ON = ctl.Prop("attr:sw.switch=on")
SWITCH_OFF = ctl.Prop("attr:sw.switch=off")

#: Violated two events deep: MotionOn turns the switch on, then LeakOff
#: turns it off on the very next event.
ON_THEN_OFF = ctl.AG(ctl.Not(ctl.And(ON, ctl.EX(OFF))))
#: Holds, but only inductively: the bad state (an ``off`` command that
#: left the switch on) is a valid state no transition reaches.
OFF_SETS_SWITCH = ctl.AG(ctl.Implies(OFF, SWITCH_OFF))


@pytest.fixture(scope="module")
def union():
    models = [
        extract_model(build_ir(SmartApp.from_source(source)))
        for source in (LEAK_OFF, MOTION_ON)
    ]
    return build_union_skeleton(models), build_kripke(build_union_model(models))


def _depth(monkeypatch, depth):
    monkeypatch.setattr(portfolio, "PORTFOLIO_DEPTH", depth)
    monkeypatch.setattr(portfolio, "BMC_DEPTH", depth)


class TestVerdictSoundness:
    def test_same_formula_violated_at_sufficient_bound(self, union, monkeypatch):
        skeleton, kripke = union
        assert not explicit_check(kripke, ON_THEN_OFF).holds
        _depth(monkeypatch, 0)
        short = PortfolioChecker(skeleton)
        assert short.check(ON_THEN_OFF).holds is False
        assert short.stats["bmc_violations"] == 0  # the fallback answered
        _depth(monkeypatch, 1)
        checker = PortfolioChecker(skeleton)
        result = checker.check(ON_THEN_OFF)
        assert result.holds is False
        assert checker.stats["bmc_violations"] == 1
        assert checker.stats["fallbacks"] == 0
        trace = result.counterexample
        assert len(trace) == 3  # initial state, on, off
        assert ON.name in checker.labels[trace[1]]
        assert OFF.name in checker.labels[trace[2]]

    def test_holds_claimed_exactly_at_completeness_bound(self, union):
        # IC3's counterpart of a completeness bound is the frame at which
        # its frames converge.  One frame short is UNKNOWN; reaching it
        # turns exhaustion into a proof.
        skeleton, kripke = union
        assert explicit_check(kripke, OFF_SETS_SWITCH).holds
        system = CnfUnionSystem(skeleton)
        shape = invariant_shape(OFF_SETS_SWITCH)
        verdict, trace = IC3Prover(system, max_frames=0).prove(shape)
        assert verdict is Verdict.UNKNOWN
        assert not verdict  # UNKNOWN is falsy: no proof claimed
        assert trace == []
        verdict, _ = IC3Prover(system, max_frames=1).prove(shape)
        assert verdict is Verdict.HOLDS
        assert verdict  # HOLDS is the only truthy verdict

    def test_default_bound_is_complete(self, union):
        # With default budgets, bmc mode decides a holding invariant with
        # a SAT proof; BMC alone exhausted every depth without one.
        skeleton, _kripke = union
        checker = PortfolioChecker(skeleton, mode="bmc")
        assert checker.check(OFF_SETS_SWITCH).holds is True
        assert checker.stats["bmc_queries"] == portfolio.BMC_DEPTH + 1
        assert checker.stats["ic3_proofs"] == 1
        assert checker.stats["fallbacks"] == 0

    def test_empty_bad_set_holds_at_any_bound(self, union, monkeypatch):
        skeleton, _kripke = union
        _depth(monkeypatch, 0)
        checker = PortfolioChecker(skeleton, mode="bmc")
        # Every valid state has the switch on or off: no bad state exists.
        assert checker.check(ctl.AG(ctl.Or(SWITCH_ON, SWITCH_OFF))).holds
        assert checker.stats["ic3_proofs"] == 1
        assert checker.stats["fallbacks"] == 0

    def test_violation_at_initial_state(self, union):
        # Initial states range over every attribute valuation.
        skeleton, _kripke = union
        checker = PortfolioChecker(skeleton)
        result = checker.check(ctl.AG(ctl.Not(SWITCH_ON)))
        assert result.holds is False
        assert len(result.counterexample) == 1
        assert checker.stats["bmc_queries"] == 1
        assert checker.stats["bmc_violations"] == 1

    def test_non_ag_formula_rejected(self, union):
        skeleton, kripke = union
        formula = ctl.EF(OFF)
        assert invariant_shape(formula) is None
        checker = PortfolioChecker(skeleton, mode="bmc")
        result = checker.check(formula)
        assert checker.stats["unsupported"] == 1
        assert checker.stats["bmc_queries"] == 0
        assert checker.stats["fallbacks"] == 1
        assert result.holds == explicit_check(kripke, formula).holds


class TestIncrementalUnrolling:
    def test_clause_counts_grow_linearly_with_depth(self, union):
        skeleton, _kripke = union
        unroller = BmcUnroller(CnfUnionSystem(skeleton))
        counts = []
        for depth in range(1, 6):
            unroller.ensure_depth(depth)
            counts.append(unroller.clause_count)
        deltas = [b - a for a, b in zip(counts, counts[1:])]
        assert all(d > 0 for d in deltas)
        # One transition step's worth of clauses per extra depth: the
        # same delta every time, i.e. linear growth, no re-encoding.
        assert len(set(deltas)) == 1

    def test_re_querying_adds_no_transition_steps(self, union, monkeypatch):
        skeleton, _kripke = union
        _depth(monkeypatch, 4)
        checker = PortfolioChecker(skeleton)
        checker.check(OFF_SETS_SWITCH)  # holds: BMC explores every depth
        unroller = checker.unroller
        solver = unroller.solver
        steps = unroller.depth
        before = unroller.clause_count
        checker.check(OFF_SETS_SWITCH)
        _depth(monkeypatch, 2)
        checker.check(OFF_SETS_SWITCH)
        # Same solver and no new unrolling: the transition relation was
        # reused via assumptions, and the bad-state literals were cached.
        assert unroller.solver is solver
        assert unroller.depth == steps == 4
        assert unroller.clause_count == before

    def test_unrolling_is_shared_across_formulas(self, union, monkeypatch):
        skeleton, _kripke = union
        _depth(monkeypatch, 4)
        checker = PortfolioChecker(skeleton)
        assert checker.check(OFF_SETS_SWITCH).holds
        steps = checker.unroller.depth
        # A second formula rides the existing unrolling.
        result = checker.check(ON_THEN_OFF)
        assert result.holds is False
        assert checker.stats["bmc_violations"] == 1
        assert checker.unroller.depth == steps
