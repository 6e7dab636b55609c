"""Model-checking engines: explicit CTL semantics + engine agreement.

The explicit checker is validated against hand-computed semantics on
small structures; the symbolic (BDD) checker is cross-validated against
it on the union models of randomly generated apps (hypothesis), which is
how the reproduction earns trust in its NuSMV substitute.  The paper's
own environments are cross-checked by the differential suite
(``test_backends_differential.py``).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.gen import generate_app
from repro.ir import build_ir
from repro.mc import check, ctl, parse_ctl
from repro.mc.explicit import ExplicitChecker
from repro.mc.symbolic import SymbolicModelChecker
from repro.model import (
    SymbolicUnionModel,
    build_kripke,
    build_union_model,
    build_union_skeleton,
)
from repro.model.extractor import extract_model
from repro.model.kripke import KripkeState, KripkeStructure
from repro.platform.smartapp import SmartApp


def make_kripke(edges, labels, initial=(0,)):
    """Build a Kripke structure from {src: [dst]} and {state: props}."""
    ids = sorted(set(edges) | {d for dsts in edges.values() for d in dsts})
    states = {i: KripkeState(state=(str(i),), incoming=()) for i in ids}
    kripke = KripkeStructure()
    kripke.states = [states[i] for i in ids]
    kripke.initial = [states[i] for i in initial]
    for i in ids:
        kripke.succ[states[i]] = [states[d] for d in edges.get(i, [])] or [states[i]]
        kripke.labels[states[i]] = frozenset(labels.get(i, ()))
    return kripke, states


@pytest.fixture
def diamond():
    #      0 -> 1 -> 3(loop), 0 -> 2 -> 3
    return make_kripke(
        {0: [1, 2], 1: [3], 2: [3], 3: [3]},
        {0: {"start"}, 1: {"left"}, 2: {"right"}, 3: {"goal"}},
    )


class TestExplicitSemantics:
    def test_prop(self, diamond):
        kripke, states = diamond
        checker = ExplicitChecker(kripke)
        assert checker.sat(parse_ctl("start")) == {states[0]}

    def test_ex(self, diamond):
        kripke, states = diamond
        checker = ExplicitChecker(kripke)
        assert checker.sat(parse_ctl("EX goal")) == {states[1], states[2], states[3]}

    def test_ax(self, diamond):
        kripke, states = diamond
        checker = ExplicitChecker(kripke)
        # all successors of 0 are {1,2}: AX (left|right) holds at 0
        assert states[0] in checker.sat(parse_ctl("AX (left | right)"))

    def test_ef(self, diamond):
        kripke, states = diamond
        checker = ExplicitChecker(kripke)
        assert checker.sat(parse_ctl("EF goal")) == set(kripke.states)

    def test_af(self, diamond):
        kripke, states = diamond
        checker = ExplicitChecker(kripke)
        assert checker.sat(parse_ctl("AF goal")) == set(kripke.states)

    def test_ag(self, diamond):
        kripke, states = diamond
        checker = ExplicitChecker(kripke)
        assert checker.sat(parse_ctl("AG goal")) == {states[3]}

    def test_eg(self):
        kripke, states = make_kripke(
            {0: [1], 1: [0], 2: [0]},
            {0: {"p"}, 1: {"p"}, 2: {"p", "q"}},
        )
        checker = ExplicitChecker(kripke)
        assert checker.sat(parse_ctl("EG p")) == set(kripke.states)
        assert checker.sat(parse_ctl("EG q")) == set()

    def test_eu(self, diamond):
        kripke, states = diamond
        checker = ExplicitChecker(kripke)
        sat = checker.sat(parse_ctl("E [ left U goal ]"))
        assert states[1] in sat and states[3] in sat
        assert states[0] not in sat  # 0 is neither left nor goal

    def test_au(self):
        kripke, states = make_kripke(
            {0: [1], 1: [2], 2: [2]},
            {0: {"p"}, 1: {"p"}, 2: {"q"}},
        )
        checker = ExplicitChecker(kripke)
        assert checker.sat(parse_ctl("A [ p U q ]")) == set(kripke.states)

    def test_holds_requires_all_initial(self):
        kripke, states = make_kripke(
            {0: [0], 1: [1]}, {0: {"p"}, 1: set()}, initial=(0, 1)
        )
        assert not check(kripke, "p").holds
        assert check(kripke, "EF p").holds is False  # state 1 self-loops


class TestCounterexamples:
    def test_ag_counterexample_path(self):
        kripke, states = make_kripke(
            {0: [1], 1: [2], 2: [2]},
            {0: {"ok"}, 1: {"ok"}, 2: {"bad"}},
        )
        result = check(kripke, "AG !bad")
        assert not result.holds
        assert result.counterexample[0] == states[0]
        assert result.counterexample[-1] == states[2]
        # consecutive states are connected
        for a, b in zip(result.counterexample, result.counterexample[1:]):
            assert b in kripke.succ[a]

    def test_ag_counterexample_is_shortest(self):
        kripke, states = make_kripke(
            {0: [1, 3], 1: [2], 2: [2], 3: [3]},
            {3: {"bad"}},
        )
        result = check(kripke, "AG !bad")
        assert len(result.counterexample) == 2  # 0 -> 3

    def test_af_lasso(self):
        kripke, states = make_kripke(
            {0: [1], 1: [0]},
            {0: set(), 1: set()},
        )
        result = check(kripke, "AF goal")
        assert not result.holds
        assert result.counterexample_loop  # stem + cycle in !goal

    def test_holding_formula_has_no_counterexample(self):
        kripke, _states = make_kripke({0: [0]}, {0: {"p"}})
        result = check(kripke, "AG p")
        assert result.holds
        assert not result.counterexample


# ----------------------------------------------------------------------
# Engine agreement on random union models
# ----------------------------------------------------------------------
_FORMULAS = [
    ("AG p", lambda p, q: ctl.AG(p)),
    ("EF q", lambda p, q: ctl.EF(q)),
    ("AF p", lambda p, q: ctl.AF(p)),
    ("EG q", lambda p, q: ctl.EG(q)),
    ("AX p", lambda p, q: ctl.AX(p)),
    ("EX q", lambda p, q: ctl.EX(q)),
    ("AG (p -> AF q)", lambda p, q: ctl.AG(ctl.Implies(p, ctl.AF(q)))),
    ("E [ p U q ]", lambda p, q: ctl.EU(p, q)),
    ("A [ p U q ]", lambda p, q: ctl.AU(p, q)),
    ("!AG p", lambda p, q: ctl.Not(ctl.AG(p))),
    ("EF (p & q)", lambda p, q: ctl.EF(ctl.And(p, q))),
    ("AG (p | !q)", lambda p, q: ctl.AG(ctl.Or(p, ctl.Not(q)))),
]


def _random_union(seed: int):
    """The union skeleton and explicit Kripke structure of one generated
    app, plus two of its attribute/command labels picked by ``seed``.
    (Labels can hold spaces, so formulas are built, not parsed.)"""
    model = extract_model(build_ir(SmartApp.from_source(generate_app(seed, 0).source)))
    kripke = build_kripke(build_union_model([model]))
    labels = sorted(
        {
            label
            for state in kripke.states
            for label in kripke.labels[state]
            if label.startswith(("attr:", "act:"))
        }
    )
    p, q = random.Random(seed).sample(labels, 2)
    return build_union_skeleton([model]), kripke, ctl.Prop(p), ctl.Prop(q)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_symbolic_agrees_with_explicit(seed):
    skeleton, kripke, p, q = _random_union(seed)
    explicit = ExplicitChecker(kripke)
    symbolic = SymbolicModelChecker(SymbolicUnionModel(skeleton))
    for text, build in _FORMULAS:
        formula = build(p, q)
        assert symbolic.check(formula).holds == explicit.check(formula).holds, (
            text, p.name, q.name,
        )
