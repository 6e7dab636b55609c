"""Top-level invariants answered from the BFS rings, against the fixpoint.

:meth:`SymbolicModelChecker.check` answers a top-level ``AG p`` from
``sat(p)`` and the encoder's stored reachability rings instead of
computing ``sat(AG p)``.  This suite pins that shortcut to the backward
fixpoint it replaces, which :meth:`SymbolicModelChecker.sat` still
computes, on both BDD kernels, with and without sifting forced during
construction (the engine configurations of ``test_verdict_soundness.py``):

* the verdict equals ``initial & !sat(AG p) == FALSE``;
* the failing state is the witness's first state, one of those initial
  states;
* the witness is a real path of the explicit Kripke structure that ends
  in a ``!p`` state, and it is as short as the explicit structure's
  shortest path from an initial state to a ``!p`` state.

Bodies are propositional and temporal (``EF``, ``AX``).  Every product
state is an initial state, so the unions below have two rings; one more
union starts from a single initial state, giving three rings and a
violation first reached at ring 2.
"""

import pytest

from repro.corpus import groundtruth
from repro.corpus.batch import analyze_batch
from repro.ir import build_ir
from repro.mc import ctl
from repro.mc.explicit import ExplicitChecker
from repro.mc.symbolic import SymbolicModelChecker
from repro.model import SymbolicUnionModel, build_kripke, build_union_model
from repro.model.extractor import extract_model
from repro.platform.smartapp import SmartApp
from repro.soteria import analyze_environment

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

#: Writes the switch it subscribes to: its own write re-stimulates it.
SELF_WRITER = '''
definition(name: "SelfWriter")
preferences { section("s") {
    input "sw", "capability.switch"
    input "ms", "capability.motionSensor"
    input "vd", "capability.valve"
} }
def installed() {
    subscribe(ms, "motion.active", h1)
    subscribe(sw, "switch.on", h2)
}
def h1(evt) { sw.on() }
def h2(evt) { vd.open() }
'''

VALVE_ON_LEAK = '''
definition(name: "ValveOnLeak")
preferences { section("s") {
    input "ws", "capability.waterSensor"
    input "vd", "capability.valve"
} }
def installed() { subscribe(ws, "water.wet", h) }
def h(evt) { vd.open() }
'''

#: The hand-reasoned union of ``test_verdict_soundness.py`` (which is
#: also ``switch-conflict`` of ``test_encoder.py``) and the other two
#: unions ``test_encoder.py`` compares with the explicit structure.
HAND_UNIONS = {
    "switch-conflict": (LEAK_OFF, MOTION_ON),
    "self-writer": (SELF_WRITER,),
    "shared-leak": (LEAK_OFF, VALVE_ON_LEAK),
}

ENGINES = [
    f"{kernel}{suffix}" for suffix in ("", "-sifted") for kernel in ("reference", "fast")
]

#: Node-table threshold of the ``-sifted`` engines, as in
#: ``test_verdict_soundness.py``: sifting runs while the partition and
#: the rings are built.
SIFTED_THRESHOLD = 2


def _norm(node):
    """Order-insensitive node identity: (state tuple, incoming props)."""
    return (node.state, frozenset(node.incoming))


def _hand_union(name):
    models = [
        extract_model(build_ir(SmartApp.from_source(source)))
        for source in HAND_UNIONS[name]
    ]
    return build_union_model(models)


def _table4_union(index):
    group = groundtruth.TABLE4_GROUPS[index].apps
    analyses = analyze_batch(list(group), jobs=1)
    environment = analyze_environment(
        [analyses[app] for app in group], backend="explicit"
    )
    catalog = [
        result.formula
        for results in environment.check_results.values()
        for result in results
    ]
    return environment.union_model, catalog


def _formulas(symbolic, extra=()):
    """Propositional invariants over every atom, a few compound bodies,
    and temporal bodies."""
    atoms = sorted(symbolic.prop_map)
    acts = [ctl.Prop(a) for a in atoms if a.startswith("act:")]
    attrs = [ctl.Prop(a) for a in atoms if a.startswith("attr:")]
    formulas = list(extra)
    for atom in atoms:
        formulas += [ctl.AG(ctl.Not(ctl.Prop(atom))), ctl.AG(ctl.Prop(atom))]
    for act in acts:
        for attr in attrs:
            formulas.append(ctl.AG(ctl.Implies(act, attr)))
    for left, right in zip(attrs, attrs[1:]):
        formulas.append(ctl.AG(ctl.Not(ctl.And(left, right))))
        formulas.append(ctl.AG(ctl.Or(left, ctl.Bool(False))))
        formulas.append(ctl.AG(ctl.EF(left)))
        formulas.append(ctl.AG(ctl.Implies(left, ctl.AX(right))))
    formulas.append(ctl.AG(ctl.Bool(True)))
    return [f for f in dict.fromkeys(formulas) if isinstance(f, ctl.AG)]


def _engine(model, engine):
    kernel, *sifted = engine.split("-")
    symbolic = SymbolicUnionModel(
        model,
        kernel=kernel,
        **({"reorder_threshold": SIFTED_THRESHOLD} if sifted else {}),
    )
    if sifted:
        assert symbolic.bdd.reorder_count >= 1, f"{engine}: no reorder ran"
    return symbolic


def _assert_ring_answers(symbolic, kripke, initial, formulas):
    """Every formula: the ring answer agrees with the fixpoint."""
    bdd = symbolic.bdd
    checker = SymbolicModelChecker(symbolic)
    oracle = ExplicitChecker(kripke)
    edges = {
        (_norm(src), _norm(dst)) for src, dsts in kripke.succ.items() for dst in dsts
    }
    failed = 0
    for formula in formulas:
        result = checker.check(formula)
        failing = bdd.and_not(symbolic.initial, checker.sat(formula))
        assert result.holds is (failing == bdd.FALSE), str(formula)
        if result.holds:
            assert not result.counterexample
            continue
        failed += 1
        path = result.counterexample
        # The ring answer reports its witness's first state.
        assert result.failing_states == path[:1], str(formula)
        start = path[0]
        assert start.incoming == ()
        start_set = bdd.conj(
            [symbolic.initial]
            + [symbolic.value_cube(i, v) for i, v in enumerate(start.state)]
        )
        assert bdd.and_(start_set, failing) != bdd.FALSE, str(formula)
        for src, dst in zip(path, path[1:]):
            assert (_norm(src), _norm(dst)) in edges, (str(formula), src, dst)
        bad = oracle.all_states - oracle.sat(formula.operand)
        assert _norm(path[-1]) in {_norm(node) for node in bad}, str(formula)
        shortest = oracle._shortest_path(set(initial), bad)
        assert len(path) == len(shortest), str(formula)
    assert failed, "no formula failed: the witness checks are vacuous"


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(HAND_UNIONS))
def test_hand_unions(name, engine):
    model = _hand_union(name)
    kripke = build_kripke(model)
    symbolic = _engine(model, engine)
    assert len(symbolic.frontiers) == 2
    _assert_ring_answers(symbolic, kripke, kripke.initial, _formulas(symbolic))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("index", [0, 1, 2], ids=["G.1", "G.2", "G.3"])
def test_table4_groups(index, engine):
    model, catalog = _table4_union(index)
    kripke = build_kripke(model)
    symbolic = _engine(model, engine)
    formulas = _formulas(symbolic, extra=catalog)
    _assert_ring_answers(symbolic, kripke, kripke.initial, formulas)


@pytest.mark.parametrize("engine", ENGINES)
def test_violation_first_reached_at_ring_two(engine):
    """From the single state (motion inactive, switch off, valve closed),
    motion turns the switch on at ring 1 and the switch's own write opens
    the valve at ring 2: motion active with the valve open is first
    reached two steps in, so the witness walks back over two rings."""
    model = _hand_union("self-writer")
    kripke = build_kripke(model)
    symbolic = _engine(model, engine)
    bdd = symbolic.bdd
    values = {"ms.motion": "inactive", "sw.switch": "off", "vd.valve": "closed"}
    start = tuple(
        values[f"{attr.device}.{attr.attribute}"] for attr in model.attributes
    )
    # Restart reachability from that one state (the encoder's rings
    # always start from every product state).
    cube = bdd.conj([symbolic.value_cube(i, v) for i, v in enumerate(start)])
    symbolic.initial = bdd.protect(bdd.and_(symbolic.initial, cube))
    symbolic.reachable, symbolic.frontiers = symbolic._compute_reachable()
    bdd.protect(symbolic.reachable)
    assert len(symbolic.frontiers) == 3

    initial = [node for node in kripke.initial if node.state == start]
    assert len(initial) == 1
    deep = ctl.AG(
        ctl.Not(
            ctl.And(ctl.Prop("attr:ms.motion=active"), ctl.Prop("attr:vd.valve=open"))
        )
    )
    result = SymbolicModelChecker(symbolic).check(deep)
    assert not result.holds
    assert len(result.counterexample) == 3
    _assert_ring_answers(symbolic, kripke, initial, _formulas(symbolic, [deep]))


@pytest.mark.parametrize("kernel", ["reference", "fast"])
@pytest.mark.parametrize("name", sorted(HAND_UNIONS))
def test_guarded_invariants_report_the_witness_start(name, kernel):
    """``q -> AG p`` keeps the fixpoint path; its failing state is still
    the first state of its witness, a failing initial state."""
    symbolic = SymbolicUnionModel(_hand_union(name), kernel=kernel)
    bdd = symbolic.bdd
    checker = SymbolicModelChecker(symbolic)
    guards = [ctl.Prop(a) for a in sorted(symbolic.prop_map) if a.startswith("attr:")]
    failed = 0
    for invariant in _formulas(symbolic):
        for guard in guards:
            formula = ctl.Implies(guard, invariant)
            result = checker.check(formula)
            if result.holds:
                continue
            failed += 1
            assert result.failing_states == result.counterexample[:1], str(formula)
            start = result.counterexample[0]
            start_set = bdd.conj(
                [symbolic.initial]
                + [symbolic.value_cube(i, v) for i, v in enumerate(start.state)]
            )
            failing = bdd.and_not(symbolic.initial, checker.sat(formula))
            assert bdd.and_(start_set, failing) != bdd.FALSE, str(formula)
    assert failed
