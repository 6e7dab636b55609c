"""Hand-pinned verdicts and witnesses on a two-app union, for every engine.

The differential suites check that the engines *agree*; two engines that
share a bug agree too.  This suite pins the *right answer* instead: on a
union small enough to reason about by hand, every formula's verdict is
fixed in the case table below, with the reason it holds or fails, and
every engine configuration the pipeline can run — the explicit checker
and the symbolic checker on both BDD kernels, once on the order it is
built with and once with sifting forced on every step of construction
— must return exactly that verdict.

The union: ``LeakOff`` turns the switch off when the water sensor turns
wet; ``MotionOn`` turns it on when motion turns active.  Every
valuation of (water, switch, motion) is an initial state; events fire
on change only, and no app subscribes to ``dry`` or ``inactive``, so a
sensor that is already wet (or active) never fires again.

Witnesses are checked for *validity*, never for equality with one
engine's pick: every failing verdict must come with a trace that starts
in an initial state, follows real edges of the explicit Kripke
structure, and actually exhibits the failure.
"""

import pytest

from repro.ir import build_ir
from repro.mc import ctl
from repro.mc.explicit import ExplicitChecker
from repro.mc.symbolic import SymbolicModelChecker
from repro.model import (
    SymbolicUnionModel,
    build_kripke,
    build_union_model,
    build_union_skeleton,
)
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
WET = ctl.Prop("attr:ws.water=wet")

#: (id, formula, expected verdict, pinned witness shape).  The shape is
#: the AG witness length where every failing initial state forces the
#: same one, ``"lasso"`` for an AF witness, else ``None``.
CASES = [
    # MotionOn turns the switch on, and a leak turns it off on the very
    # next event: one event reaches the ``on`` state, from any dry,
    # inactive initial state.
    ("on-then-off", ctl.AG(ctl.Not(ctl.And(ON, ctl.EX(OFF)))), False, 2),
    # Holds inductively: an ``off`` command always leaves the switch off.
    ("off-sets-switch", ctl.AG(ctl.Implies(OFF, SWITCH_OFF)), True, None),
    ("on-sets-switch", ctl.AG(ctl.Implies(ON, SWITCH_ON)), True, None),
    # No bad state exists: the switch is always on or off.
    ("switch-valued", ctl.AG(ctl.Or(SWITCH_ON, SWITCH_OFF)), True, None),
    # Initial states range over every valuation, the switch on included.
    ("violated-initially", ctl.AG(ctl.Not(SWITCH_ON)), False, 1),
    # An initial state that is already wet never sees a leak event.
    ("ef-off", ctl.EF(OFF), False, None),
    # Wet and active: no event can fire, the state loops on itself.
    ("af-off", ctl.AF(OFF), False, "lasso"),
    # Once wet with the switch on, nothing turns the switch off again.
    ("ag-ef-switch-off", ctl.AG(ctl.EF(SWITCH_OFF)), False, None),
    # One event runs one handler: never both commands at once.
    ("single-command", ctl.AG(ctl.Not(ctl.And(ON, OFF))), True, None),
    # A leak right after the ``on`` command switches it back off.
    ("on-stays-on", ctl.AG(ctl.Implies(ON, ctl.AX(SWITCH_ON))), False, 2),
    # Dry and already active: the only event left is the leak.
    ("eg-not-off", ctl.EG(ctl.Not(OFF)), False, None),
    # Motion already active never fires, so no ``on`` ever comes.
    ("eu-on", ctl.EU(ctl.Not(OFF), ON), False, None),
    ("ex-on", ctl.EX(ON), False, None),
    ("ax-single-command", ctl.AX(ctl.Not(ctl.And(ON, OFF))), True, None),
    # Only a leak turns the switch off, and a leak leaves the house wet.
    ("off-means-wet", ctl.AG(ctl.Implies(OFF, WET)), True, None),
]

ENGINES = ["explicit"] + [
    f"symbolic-{kernel}{suffix}"
    for suffix in ("", "-sifted")
    for kernel in ("reference", "fast")
]

#: Node-table threshold of the ``-sifted`` engines: low enough that the
#: kernel reorders its variables while the partition and the reachable
#: set are built, so the verdicts cannot lean on the initial order.
SIFTED_THRESHOLD = 2


def _norm(node):
    """Order-insensitive node identity: (state tuple, incoming props)."""
    return (node.state, frozenset(node.incoming))


@pytest.fixture(scope="module")
def union():
    models = [
        extract_model(build_ir(SmartApp.from_source(source)))
        for source in (LEAK_OFF, MOTION_ON)
    ]
    kripke = build_kripke(build_union_model(models))
    return build_union_skeleton(models), kripke, ExplicitChecker(kripke)


@pytest.fixture(scope="module")
def engines(union):
    skeleton, kripke, oracle = union
    checkers = {"explicit": ExplicitChecker(kripke)}
    for name in ENGINES[1:]:
        _symbolic, kernel, *sifted = name.split("-")
        symbolic = SymbolicUnionModel(
            skeleton,
            kernel=kernel,
            **({"reorder_threshold": SIFTED_THRESHOLD} if sifted else {}),
        )
        if sifted:
            assert symbolic.bdd.reorder_count >= 1, f"{name}: no reorder ran"
        checkers[name] = SymbolicModelChecker(symbolic)
    return checkers


def _sat(oracle, formula):
    return {_norm(state) for state in oracle.sat(formula)}


def _assert_valid_witness(kripke, oracle, formula, result, shape):
    """The trace is a real path from an initial state that exhibits the
    failure of ``formula``."""
    nodes = {_norm(state) for state in kripke.states}
    edges = {
        (_norm(src), _norm(dst))
        for src, dsts in kripke.succ.items()
        for dst in dsts
    }
    initial = {_norm(state) for state in kripke.initial}
    stem, loop = result.counterexample, result.counterexample_loop
    path = [_norm(node) for node in stem + loop]
    assert path, "a failing verdict carries no witness"
    assert path[0] in initial
    assert all(node in nodes for node in path)
    for src, dst in zip(path, path[1:]):
        assert (src, dst) in edges, (src, dst)
    assert path[0] not in _sat(oracle, formula)
    if shape == "lasso":
        assert isinstance(formula, ctl.AF)
        assert loop, "an AF witness must close a cycle"
        assert (_norm(loop[-1]), _norm(loop[0])) in edges
        # No state on the lasso ever reaches the AF target.
        assert not set(path) & _sat(oracle, formula.operand)
    else:
        assert not loop
    if isinstance(formula, ctl.AG):
        # The path ends in a state violating the invariant's body.
        assert path[-1] not in _sat(oracle, formula.operand)
        if shape is not None:
            assert len(path) == shape


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    ("formula", "holds", "shape"),
    [pytest.param(*case[1:], id=case[0]) for case in CASES],
)
def test_pinned_verdict(union, engines, engine, formula, holds, shape):
    _skeleton, kripke, oracle = union
    result = engines[engine].check(formula)
    assert result.holds is holds, str(formula)
    if holds:
        assert not result.counterexample
        assert not result.counterexample_loop
    else:
        _assert_valid_witness(kripke, oracle, formula, result, shape)


@pytest.mark.parametrize("engine", ENGINES)
def test_answers_do_not_depend_on_query_order(union, engines, engine):
    """Each engine caches satisfying sets across formulas; re-asking the
    whole table in reverse on the same checker gives the same verdicts."""
    checker = engines[engine]
    for _case_id, formula, holds, _shape in reversed(CASES):
        assert checker.check(formula).holds is holds, str(formula)
