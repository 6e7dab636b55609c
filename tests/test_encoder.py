"""Symbolic union encoding: variable blocks, fragments, reachability.

The encoder compiles app rules straight to a partitioned BDD relation —
these tests
pin its structural guarantees (shared blocks for shared devices, no
materialized product, reachable-state counts matching the explicit
Kripke construction) independently of the CTL layer, which
``test_backends_differential`` cross-validates end to end.
"""

import itertools

import pytest

from repro.mc.symbolic import SymbolicModelChecker
from repro.model import (
    build_kripke,
    build_union_model,
    build_union_skeleton,
    encode_union,
    extract_model,
)
from repro.platform.smartapp import SmartApp
from repro.ir import build_ir

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


APP_C = '''
definition(name: "AppC")
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
definition(name: "Conflict")
preferences { section("s") {
    input "ws", "capability.waterSensor"
    input "vd", "capability.valve"
} }
def installed() { subscribe(ws, "water.wet", h) }
def h(evt) { vd.open() }
'''

#: The BDD kernels every encoder image is checked on.
KERNELS = ["reference", "fast"]


def model_of(source: str):
    return extract_model(build_ir(SmartApp.from_source(source)))


class TestSkeleton:
    def test_skeleton_has_no_states_or_transitions(self):
        skeleton = build_union_skeleton([model_of(APP_A), model_of(APP_B)])
        assert skeleton.states == []
        assert skeleton.transitions == []
        assert skeleton.rules and skeleton.rule_origins

    def test_skeleton_attributes_match_materialized_union(self):
        models = [model_of(APP_A), model_of(APP_B)]
        skeleton = build_union_skeleton(models)
        union = build_union_model(models)
        assert skeleton.attributes == union.attributes
        assert skeleton.numeric_domains == union.numeric_domains
        assert skeleton.apps == union.apps

    def test_materialized_union_unchanged_by_refactor(self):
        # build_union_model now routes through the skeleton; the explicit
        # result must still carry the product and the lifted transitions.
        models = [model_of(APP_A), model_of(APP_B)]
        union = build_union_model(models)
        assert len(union.states) == 8  # switch x water x motion
        assert union.transitions


class TestEncoding:
    def test_shared_device_shares_one_variable_block(self):
        # Both apps hold the "sw" handle: one block, not two.
        symbolic = encode_union([model_of(APP_A), model_of(APP_B)])
        devices = [attr.device for attr in symbolic.model.attributes]
        assert devices.count("sw") == 1
        # 3 binary attributes -> 3 single-bit blocks + the fragment block.
        assert all(len(bits) == 1 for bits in symbolic._xbits)

    def test_reachable_count_matches_explicit_kripke(self):
        models = [model_of(APP_A), model_of(APP_B)]
        symbolic = encode_union(models)
        kripke = build_kripke(build_union_model(models))
        # Explicit nodes split by residual-guard src: labels and merge
        # same-label fragments; neither happens here, so counts line up.
        assert symbolic.state_count() == len(kripke.states)

    def test_initial_states_are_the_domain_product(self):
        symbolic = encode_union([model_of(APP_A), model_of(APP_B)])
        count = symbolic.bdd.count_sat(symbolic.initial)
        assert count == 8

    def test_fragments_cover_every_rule_event_value(self):
        symbolic = encode_union([model_of(APP_A)])
        # One rule subscribed to water.wet: exactly one fragment.
        events = [f.event.label() for f in symbolic.fragments.values()]
        assert events == ["ws.water.wet"]
        (fragment,) = symbolic.fragments.values()
        assert fragment.app == "AppA"
        assert "ev:ws.water.wet" in fragment.props
        assert "act:sw.switch=off" in fragment.props
        assert "app:AppA" in fragment.props

    def test_prop_map_covers_attribute_values(self):
        symbolic = encode_union([model_of(APP_A)])
        bdd = symbolic.bdd
        wet = symbolic.prop("attr:ws.water=wet")
        dry = symbolic.prop("attr:ws.water=dry")
        assert bdd.and_(wet, dry) == bdd.FALSE
        assert symbolic.prop("attr:nothing.here=ever") == bdd.FALSE

    def test_relation_is_total_on_reachable_states(self):
        symbolic = encode_union([model_of(APP_A), model_of(APP_B)])
        bdd = symbolic.bdd
        no_succ = bdd.and_(
            symbolic.reachable, bdd.not_(symbolic.pre(symbolic.reachable))
        )
        assert no_succ == bdd.FALSE

    def test_post_stays_within_reachable(self):
        symbolic = encode_union([model_of(APP_A), model_of(APP_B)])
        bdd = symbolic.bdd
        escaped = bdd.and_(
            symbolic.post(symbolic.reachable), bdd.not_(symbolic.reachable)
        )
        assert escaped == bdd.FALSE

    def test_decode_roundtrip(self):
        symbolic = encode_union([model_of(APP_A)])
        assignment = symbolic.bdd.any_sat(symbolic.initial)
        node, labels = symbolic.decode(assignment)
        assert node.incoming == ()
        assert len(node.state) == len(symbolic.model.attributes)
        assert any(label.startswith("attr:") for label in labels)


#: Unions whose partition is compared with the explicit Kripke
#: structure: two apps fighting over one switch, one app re-stimulated by
#: its own write, and two handlers on one shared leak event.
UNIONS = [
    pytest.param((APP_A, APP_B), id="switch-conflict"),
    pytest.param((APP_C,), id="self-writer"),
    pytest.param((APP_A, VALVE_ON_LEAK), id="shared-leak"),
]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("sources", UNIONS)
class TestPartitionAgainstExplicitKripke:
    """The partitioned relation must denote exactly the explicit Kripke
    structure of the materialized union: same reachable nodes and labels,
    frontiers equal to the BFS layers, and images/preimages equal to the
    explicit successor/predecessor sets."""

    @staticmethod
    def _both(sources, kernel):
        models = [model_of(source) for source in sources]
        return (
            encode_union(models, kernel=kernel),
            build_kripke(build_union_model(models)),
        )

    @staticmethod
    def _decoded(symbolic, f):
        """(state, labels) of every node in ``f`` restricted to the
        reachable set (unused fragment codes decode to no real node)."""
        f = symbolic.bdd.and_(f, symbolic.reachable)
        nodes = set()
        names = symbolic.xvars
        for bits in itertools.product((False, True), repeat=len(names)):
            assignment = dict(zip(names, bits))
            if symbolic.bdd.evaluate(f, assignment):
                node, labels = symbolic.decode(assignment)
                nodes.add((node.state, labels))
        return nodes

    @staticmethod
    def _keys(kripke, nodes):
        return {(node.state, kripke.labels[node]) for node in nodes}

    def test_reachable_and_proposition_counts_match(
        self, sources, kernel
    ):
        symbolic, kripke = self._both(sources, kernel)
        assert symbolic.state_count() == len(kripke.states)
        assert self._decoded(symbolic, symbolic.reachable) == self._keys(
            kripke, kripke.states
        )
        assert symbolic.prop_map.keys() >= kripke.atoms()
        for name in symbolic.prop_map:
            labelled = [n for n in kripke.states if name in kripke.labels[n]]
            in_symbolic = symbolic.bdd.and_(symbolic.reachable, symbolic.prop(name))
            assert symbolic.bdd.count_sat(in_symbolic) == len(labelled), name

    def test_frontiers_are_the_bfs_layers(self, sources, kernel):
        symbolic, kripke = self._both(sources, kernel)
        layers = [list(kripke.initial)]
        seen = set(kripke.initial)
        while True:
            ring = {d for n in layers[-1] for d in kripke.succ[n]} - seen
            if not ring:
                break
            seen |= ring
            layers.append(sorted(ring, key=repr))
        assert [self._decoded(symbolic, ring) for ring in symbolic.frontiers] == [
            self._keys(kripke, layer) for layer in layers
        ]

    def test_images_match_explicit_successors_and_predecessors(
        self, sources, kernel
    ):
        symbolic, kripke = self._both(sources, kernel)
        preds = kripke.predecessors()
        by_key = {(n.state, kripke.labels[n]): n for n in kripke.states}
        names = symbolic.xvars
        for bits in itertools.product((False, True), repeat=len(names)):
            assignment = dict(zip(names, bits))
            if not symbolic.bdd.evaluate(symbolic.reachable, assignment):
                continue
            decoded, labels = symbolic.decode(assignment)
            node = by_key[(decoded.state, labels)]
            cube = symbolic.state_cube(assignment)
            post = self._decoded(symbolic, symbolic.post(cube))
            assert post == self._keys(kripke, kripke.succ[node])
            assert post  # every reachable state has a successor
            pre = self._decoded(symbolic, symbolic.pre(cube))
            assert pre == self._keys(kripke, preds[node])

    def test_partition_fragments_only_touch_their_own_blocks(
        self, sources, kernel
    ):
        symbolic, _kripke = self._both(sources, kernel)
        for partition in symbolic.partitions:
            support = symbolic.bdd.support(partition.write_x)
            assert support <= set(partition.quant_x), (
                "write cube mentions variables outside the written blocks"
            )


class TestWrittenOverride:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_written_override_disables_self_stimulation(self, kernel):
        # AppC both writes sw.on() and subscribes to switch.on.  Under
        # union semantics (app-written values re-stimulate subscribers,
        # Sec. 4.4) the switch.on fragment fires even from states already
        # "on"; the single-app symbolic path passes written=frozenset()
        # to keep the explicit extractor's fire-on-change-only semantics.
        model = model_of(APP_C)
        from repro.model import build_union_skeleton
        from repro.model.encoder import SymbolicUnionModel

        skeleton = build_union_skeleton([model])
        cascading = SymbolicUnionModel(skeleton, kernel=kernel)
        solo = SymbolicUnionModel(
            skeleton, written=frozenset(), kernel=kernel
        )
        sw = skeleton.attribute_index("sw", "switch")
        assert sw is not None
        for symbolic, refires in ((cascading, True), (solo, False)):
            # Sources: on-states that did NOT just take the switch.on
            # transition (deadlock self-loops keep incoming labels and
            # would otherwise fake a re-fire).
            already_on = symbolic.bdd.and_(
                symbolic.bdd.and_(
                    symbolic.reachable, symbolic.value_cube(sw, "on")
                ),
                symbolic.bdd.not_(symbolic.prop("ev:sw.switch.on")),
            )
            arrived = symbolic.bdd.and_(
                symbolic.post(already_on), symbolic.prop("ev:sw.switch.on")
            )
            assert (arrived != symbolic.bdd.FALSE) is refires


@pytest.mark.parametrize("kernel", KERNELS)
class TestCheckerWitnesses:
    def test_ag_counterexample_is_connected_and_decodable(self, kernel):
        symbolic = encode_union([model_of(VALVE_ON_LEAK)], kernel=kernel)
        checker = SymbolicModelChecker(symbolic)
        result = checker.check("AG !act:vd.valve=open")
        assert not result.holds
        assert result.counterexample
        first, last = result.counterexample[0], result.counterexample[-1]
        assert first.incoming == ()  # starts at an initial state
        assert "act:vd.valve=open" in checker.labels[last]
        assert result.failing_states

    def test_holding_formula_has_no_counterexample(self, kernel):
        symbolic = encode_union([model_of(VALVE_ON_LEAK)], kernel=kernel)
        checker = SymbolicModelChecker(symbolic)
        result = checker.check("AG (attr:ws.water=wet | attr:ws.water=dry)")
        assert result.holds
        assert not result.counterexample

    def test_af_lasso_extracted(self, kernel):
        # Once wet, the model deadlocks into a self-loop and never goes
        # dry again: AF dry fails with a lasso staying wet forever.
        symbolic = encode_union([model_of(VALVE_ON_LEAK)], kernel=kernel)
        checker = SymbolicModelChecker(symbolic)
        result = checker.check("AF attr:ws.water=dry")
        assert not result.holds
        stem_and_loop = result.counterexample + result.counterexample_loop
        assert stem_and_loop
        assert result.counterexample_loop  # the wet cycle
        for state in stem_and_loop:
            assert "attr:ws.water=wet" in checker.labels[state]

    def test_unknown_prop_is_false_everywhere(self, kernel):
        symbolic = encode_union([model_of(VALVE_ON_LEAK)], kernel=kernel)
        checker = SymbolicModelChecker(symbolic)
        assert not checker.check("EF prop:never=seen").holds
        assert checker.check("AG !prop:never=seen").holds
