"""SAT portfolio backend: parity with explicit/symbolic + engine units.

The ``bmc``/``portfolio`` backends answer through three engines — an
incremental SAT unroller over the fragment semantics
(:mod:`repro.mc.cnf`), an IC3/PDR prover (:mod:`repro.mc.ic3`), and the
BDD checker as the inconclusive-case fallback.  They only earn a place
in the pipeline if they are *indistinguishable* from the established
backends on every curated scenario, so this suite pins:

* identical violation sets and per-formula verdicts across
  ``explicit``/``symbolic``/``bmc``/``portfolio`` on every Table-4 group
  and MalIoT environment;
* BMC counterexample traces that are real paths of the explicit Kripke
  structure (valid nodes, valid edges, initial start);
* fuzz-injected violation templates caught at 100% by the three-way
  ``backend="both"`` differential;
* the engine-level building blocks: invariant-shape classification,
  linear clause growth of the union unroller, and IC3/BMC agreement
  with the explicit checker on attribute invariants;
* BMC soundness, the regression of record: an early bounded checker
  reported bound exhaustion as *holds*, so a violation one step past
  the bound read as a proof.  Exhaustion must fall back to the BDD
  checker instead.
"""

import pytest

from repro.corpus import groundtruth
from repro.corpus.batch import analyze_batch
from repro.corpus.fuzz import FuzzConfig, run_fuzz
from repro.ir import build_ir
from repro.mc import ctl
from repro.mc import portfolio
from repro.mc.cnf import BmcUnroller, CnfUnionSystem, invariant_shape
from repro.mc.explicit import check as explicit_check
from repro.mc.ic3 import IC3Prover, Verdict
from repro.mc.portfolio import PortfolioChecker
from repro.model import build_kripke, build_union_model, build_union_skeleton
from repro.model.extractor import extract_model
from repro.platform.smartapp import SmartApp
from repro.soteria import analyze_environment

#: Every curated multi-app scenario of the paper (same set the
#: explicit-vs-symbolic differential suite runs).
PAPER_GROUPS = [
    pytest.param(tuple(group.apps), id=group.group_id)
    for group in groundtruth.TABLE4_GROUPS
] + [
    pytest.param(tuple(ids), id="+".join(ids))
    for ids, _prop in groundtruth.MALIOT_ENVIRONMENTS
]

_RUNS_CACHE: dict = {}


def _runs(group):
    """One explicit + symbolic + bmc + portfolio pass per group, cached
    across the parametrized tests (4 model-checking runs per group)."""
    key = tuple(group)
    if key in _RUNS_CACHE:
        return _RUNS_CACHE[key]
    analyses = analyze_batch(list(group), jobs=1)
    members = [analyses[app_id] for app_id in group]
    runs = {"explicit": analyze_environment(list(members), backend="explicit")}
    for backend in ("symbolic", "bmc", "portfolio"):
        run = analyze_environment(list(members), backend=backend)
        assert run.backend == backend
        assert run.kripke is None  # the product was never materialized
        runs[backend] = run
    _RUNS_CACHE[key] = runs
    return runs


# ======================================================================
# Four-way parity on the paper's environments
# ======================================================================
@pytest.mark.parametrize("group", PAPER_GROUPS)
def test_identical_violation_sets(group):
    runs = _runs(group)
    key = lambda v: (v.property_id, v.devices)  # noqa: E731
    reference = sorted(key(v) for v in runs["explicit"].violations)
    for backend in ("symbolic", "bmc", "portfolio"):
        found = sorted(key(v) for v in runs[backend].violations)
        assert found == reference, backend


@pytest.mark.parametrize("group", PAPER_GROUPS)
def test_per_formula_agreement(group):
    runs = _runs(group)
    explicit = runs["explicit"]
    for backend in ("bmc", "portfolio"):
        run = runs[backend]
        assert explicit.checked_properties == run.checked_properties
        assert explicit.check_results.keys() == run.check_results.keys()
        for property_id, expected in explicit.check_results.items():
            results = run.check_results[property_id]
            assert len(expected) == len(results), (backend, property_id)
            for exp, got in zip(expected, results):
                assert exp.formula == got.formula, (backend, property_id)
                assert exp.holds == got.holds, (
                    backend, property_id, str(exp.formula)
                )


@pytest.mark.parametrize("group", PAPER_GROUPS)
def test_engine_stats_recorded(group):
    """bmc/portfolio runs report how each formula was answered; the
    established backends carry no portfolio block."""
    runs = _runs(group)
    assert runs["explicit"].portfolio is None
    assert runs["symbolic"].portfolio is None
    for backend in ("bmc", "portfolio"):
        stats = runs[backend].portfolio
        assert stats is not None, backend
        answered = (
            stats["bmc_violations"]
            + stats["ic3_proofs"]
            + stats["ic3_violations"]
            + stats["fallbacks"]
        )
        assert answered == stats["formulas"], (backend, stats)
    # Where CTL checking ran at all (S-only groups stop at the general
    # checks), bmc mode must decide formulas with the SAT engines, not
    # delegate everything to the BDD fallback.
    bmc_stats = runs["bmc"].portfolio
    if bmc_stats["formulas"]:
        sat_answers = (
            bmc_stats["bmc_violations"]
            + bmc_stats["ic3_proofs"]
            + bmc_stats["ic3_violations"]
        )
        assert sat_answers > 0, bmc_stats


# ======================================================================
# BMC witnesses are explicit-Kripke paths
# ======================================================================
#: Environments with known CTL violations (S-only groups fail at model
#: construction and leave no witnesses).
WITNESS_GROUPS = [
    pytest.param(tuple(groundtruth.TABLE4_GROUPS[2].apps), id="G.3"),
] + [
    pytest.param(tuple(ids), id="+".join(ids))
    for ids, _prop in groundtruth.MALIOT_ENVIRONMENTS[:2]
]


def _norm(node):
    return (node.state, frozenset(node.incoming))


@pytest.mark.parametrize("group", WITNESS_GROUPS)
def test_bmc_witnesses_are_explicit_paths(group):
    runs = _runs(group)
    kripke = runs["explicit"].kripke
    nodes = {_norm(state) for state in kripke.states}
    edges = {
        (_norm(src), _norm(dst))
        for src, dsts in kripke.succ.items()
        for dst in dsts
    }
    initial = {_norm(state) for state in kripke.initial}
    checked = 0
    for results in runs["bmc"].check_results.values():
        for result in results:
            if result.holds or not result.counterexample:
                continue
            if result.counterexample_loop:
                continue  # AF lassos come from the BDD fallback
            path = result.counterexample
            for node in path:
                assert _norm(node) in nodes, node
            for src, dst in zip(path, path[1:]):
                assert (_norm(src), _norm(dst)) in edges, (src, dst)
            if len(path) > 1:
                assert _norm(path[0]) in initial
                checked += 1
    assert checked, "no multi-step witnesses in a known-violating group"


# ======================================================================
# Fuzz templates: the three-way differential
# ======================================================================
class TestFuzzBothBackends:
    def test_injected_violations_detected_across_all_backends(self):
        """``backend="both"`` adds a bmc pass on every generated cluster;
        every injected violation template must be caught and the bmc
        pass must agree with explicit and symbolic case by case."""
        report = run_fuzz(
            seed=11, count=4, jobs=1, config=FuzzConfig(backend="both")
        )
        assert report.config.backend == "both"
        assert report.ok, [r.detail for r in report.failures()]
        assert report.injected_total() > 0
        assert report.detection_rate() == 1.0


# ======================================================================
# Engine units: shape classification, unroller growth, IC3
# ======================================================================
APP_A = '''
definition(name: "AppA")
preferences { section("s") {
    input "sw", "capability.switch"
    input "ws", "capability.waterSensor"
} }
def installed() { subscribe(ws, "water.wet", h) }
def h(evt) { sw.off() }
'''

APP_B = '''
definition(name: "AppB")
preferences { section("s") {
    input "sw", "capability.switch"
    input "ms", "capability.motionSensor"
} }
def installed() { subscribe(ms, "motion.active", h) }
def h(evt) { sw.on() }
'''


def _skeleton():
    models = [
        extract_model(build_ir(SmartApp.from_source(APP_A))),
        extract_model(build_ir(SmartApp.from_source(APP_B))),
    ]
    return models, build_union_skeleton(models)


class TestInvariantShape:
    def test_plain_ag(self):
        shape = invariant_shape(ctl.AG(ctl.Not(ctl.Prop("p"))))
        assert shape is not None
        assert shape.context is None and shape.ex_target is None

    def test_ex_shape(self):
        formula = ctl.AG(
            ctl.Not(ctl.And(ctl.Prop("p"), ctl.EX(ctl.Prop("q"))))
        )
        shape = invariant_shape(formula)
        assert shape is not None
        assert shape.ex_target == ctl.Prop("q")
        assert shape.context is not None

    def test_implication_into_ax(self):
        # AG (p -> AX q): bad = p & EX !q.
        formula = ctl.AG(ctl.Implies(ctl.Prop("p"), ctl.AX(ctl.Prop("q"))))
        shape = invariant_shape(formula)
        assert shape is not None
        assert shape.ex_target == ctl.Not(ctl.Prop("q"))

    def test_unsupported_shapes(self):
        assert invariant_shape(ctl.EF(ctl.Prop("p"))) is None
        assert invariant_shape(ctl.AG(ctl.EF(ctl.Prop("p")))) is None
        assert invariant_shape(
            ctl.AG(ctl.EX(ctl.EX(ctl.Prop("p"))))
        ) is None


class TestUnionUnroller:
    def test_system_compiles_fragments_and_props(self):
        _models, skeleton = _skeleton()
        system = CnfUnionSystem(skeleton)
        assert system.rules and system.fragments
        assert any(name.startswith("attr:") for name in system.prop_cubes)

    def test_linear_clause_growth(self):
        _models, skeleton = _skeleton()
        unroller = BmcUnroller(CnfUnionSystem(skeleton))
        counts = []
        for depth in range(1, 6):
            unroller.ensure_depth(depth)
            counts.append(unroller.clause_count)
        deltas = [b - a for a, b in zip(counts, counts[1:])]
        assert all(d > 0 for d in deltas)
        assert len(set(deltas)) == 1  # one step's clauses per depth


class TestEngineAgreement:
    def test_bmc_mode_agrees_with_explicit_on_attribute_invariants(self):
        """Every ``AG !prop`` / ``AG prop`` over the union's attribute
        props: PortfolioChecker (bmc mode: SAT + IC3, BDD fallback) must
        return exactly the explicit checker's verdict — and never need
        the fallback for these propositional shapes."""
        models, skeleton = _skeleton()
        kripke = build_kripke(build_union_model(models))
        checker = PortfolioChecker(skeleton, mode="bmc")
        names = sorted(
            n for n in CnfUnionSystem(skeleton).prop_cubes
            if n.startswith("attr:")
        )
        assert names
        for name in names:
            for formula in (
                ctl.AG(ctl.Not(ctl.Prop(name))),
                ctl.AG(ctl.Prop(name)),
            ):
                expected = explicit_check(kripke, formula)
                got = checker.check(formula)
                assert got.holds == expected.holds, str(formula)
        # A holding invariant (tautology) exercises the IC3 proof path —
        # the product's initial states violate every single-prop AG above.
        tautology = ctl.AG(
            ctl.Or(ctl.Prop(names[0]), ctl.Not(ctl.Prop(names[0])))
        )
        assert checker.check(tautology).holds
        assert checker.stats["fallbacks"] == 0
        assert checker.stats["unsupported"] == 0
        assert checker.stats["bmc_violations"] > 0
        assert checker.stats["ic3_proofs"] >= 1

    def test_ic3_proves_unsatisfiable_bad_states(self):
        _models, skeleton = _skeleton()
        system = CnfUnionSystem(skeleton)
        # An unknown prop compiles to constant-false: the bad states are
        # unsatisfiable, so IC3 proves the invariant outright.
        shape = invariant_shape(ctl.AG(ctl.Not(ctl.Prop("no:such=prop"))))
        verdict, trace = IC3Prover(system).prove(shape)
        assert verdict is Verdict.HOLDS
        assert trace == []

    def test_bound_exhaustion_is_not_a_proof(self, monkeypatch):
        """With BMC limited to depth 0, ``AG !act`` on a label that only
        a transition produces finds no counterexample within the bound.
        That must not read as *holds*: the BDD fallback answers, and it
        finds the one-event violation."""
        monkeypatch.setattr(portfolio, "PORTFOLIO_DEPTH", 0)
        models, skeleton = _skeleton()
        label = "act:sw.switch=off"  # AppA's handler turns the switch off
        assert label in CnfUnionSystem(skeleton).prop_cubes
        formula = ctl.AG(ctl.Not(ctl.Prop(label)))
        kripke = build_kripke(build_union_model(models))
        assert not explicit_check(kripke, formula).holds
        checker = PortfolioChecker(skeleton)
        result = checker.check(formula)
        assert result.holds is False
        assert checker.stats["bmc_queries"] == 1
        assert checker.stats["bmc_violations"] == 0
        assert checker.stats["fallbacks"] == 1

    def test_portfolio_mode_rejects_unknown_modes(self):
        _models, skeleton = _skeleton()
        with pytest.raises(ValueError):
            PortfolioChecker(skeleton, mode="race")
