"""Dynamic BDD variable reordering: sifting must never change semantics.

Reordering is an *in-place* transformation of the shared node table —
every node id must keep denoting the same boolean function, the unique
table must stay canonical, and the encoded union must keep its
reachable set across any sequence of group moves.  These are
property-style tests: random formulas, random assignments, forced sifts.
"""

import random

import pytest

from repro.mc.bdd import BDD
from repro.model.encoder import SymbolicUnionModel, encode_union
from repro.model.union import build_union_skeleton
from repro.model import build_kripke, build_union_model, extract_model
from repro.ir import build_ir
from repro.platform.smartapp import SmartApp


def _random_formula(bdd, names, rng, depth=4):
    if depth == 0 or rng.random() < 0.25:
        name = rng.choice(names)
        return bdd.var(name) if rng.random() < 0.5 else bdd.nvar(name)
    choice = rng.random()
    left = _random_formula(bdd, names, rng, depth - 1)
    if choice < 0.2:
        return bdd.not_(left)
    right = _random_formula(bdd, names, rng, depth - 1)
    if choice < 0.5:
        return bdd.and_(left, right)
    if choice < 0.8:
        return bdd.or_(left, right)
    return bdd.xor(left, right)


def _random_manager(seed, nvars):
    rng = random.Random(seed)
    bdd = BDD()
    names = [f"v{i}" for i in range(nvars)]
    for name in names:
        bdd.add_var(name)
    functions = [_random_formula(bdd, names, rng) for _ in range(6)]
    assignments = [
        {name: rng.random() < 0.5 for name in names} for _ in range(50)
    ]
    return bdd, names, functions, assignments


class TestSiftingPreservesFunctions:
    @pytest.mark.parametrize("seed", range(8))
    def test_every_bdd_denotes_the_same_function_after_sifting(self, seed):
        bdd, names, functions, assignments = _random_manager(seed, 10)
        before = [
            [bdd.evaluate(f, a) for a in assignments] for f in functions
        ]
        bdd.sift(roots=functions)
        after = [
            [bdd.evaluate(f, a) for a in assignments] for f in functions
        ]
        assert before == after
        assert sorted(bdd.var_order()) == sorted(names)

    @pytest.mark.parametrize("seed", range(4))
    def test_unique_table_stays_canonical(self, seed):
        bdd, _names, functions, _assignments = _random_manager(seed, 8)
        bdd.sift(roots=functions)
        for key, node_id in bdd._unique.items():
            node = bdd._nodes[node_id]
            assert (node.level, node.low, node.high) == key
            assert node.low != node.high  # still reduced
        # No two live nodes share a triple (canonicity).
        triples = [
            (n.level, n.low, n.high)
            for n in bdd._nodes[2:]
            if n is not None
        ]
        assert len(triples) == len(set(triples))

    def test_swap_adjacent_twice_restores_the_order(self):
        bdd, _names, functions, assignments = _random_manager(99, 6)
        order = bdd.var_order()
        before = [[bdd.evaluate(f, a) for a in assignments] for f in functions]
        bdd.swap_adjacent(2)
        assert bdd.var_order() != order
        bdd.swap_adjacent(2)
        assert bdd.var_order() == order
        after = [[bdd.evaluate(f, a) for a in assignments] for f in functions]
        assert before == after

    @pytest.mark.parametrize("seed", range(4))
    def test_grouped_sifting_keeps_groups_adjacent_and_ordered(self, seed):
        bdd, names, functions, assignments = _random_manager(seed + 50, 10)
        order = bdd.var_order()
        groups = [[order[i], order[i + 1]] for i in range(0, len(order), 2)]
        before = [[bdd.evaluate(f, a) for a in assignments] for f in functions]
        bdd.sift(groups=groups, roots=functions)
        new_order = bdd.var_order()
        for first, second in groups:
            index = new_order.index(first)
            assert new_order[index + 1] == second, (
                f"group ({first}, {second}) split or flipped: {new_order}"
            )
        after = [[bdd.evaluate(f, a) for a in assignments] for f in functions]
        assert before == after

    def test_non_contiguous_groups_rejected(self):
        bdd, names, functions, _assignments = _random_manager(7, 6)
        with pytest.raises(ValueError):
            bdd.sift(groups=[[names[0], names[2]]] + [[n] for n in names[1:2] + names[3:]])
        with pytest.raises(ValueError):
            bdd.sift(groups=[[n] for n in names[:-1]])  # not a partition


class TestAndExistsList:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_exists_of_conjunction(self, seed):
        rng = random.Random(seed)
        bdd = BDD()
        names = [f"v{i}" for i in range(9)]
        for name in names:
            bdd.add_var(name)
        conjuncts = [_random_formula(bdd, names, rng, 3) for _ in range(4)]
        quantified = rng.sample(names, rng.randint(1, len(names)))
        fused = bdd.and_exists_list(quantified, conjuncts)
        reference = bdd.exists(quantified, bdd.conj(conjuncts))
        assert fused == reference

    def test_empty_conjunct_list_is_true(self):
        bdd = BDD()
        bdd.add_var("a")
        assert bdd.and_exists_list(["a"], []) == bdd.TRUE

    def test_short_circuits_on_false(self):
        bdd = BDD()
        a = bdd.add_var("a")
        assert bdd.and_exists_list(["a"], [a, bdd.not_(a)]) == bdd.FALSE


class TestCollection:
    def test_protected_roots_survive_unprotected_nodes_collected(self):
        bdd = BDD()
        a, b = bdd.add_var("a"), bdd.add_var("b")
        keep = bdd.protect(bdd.and_(a, b))
        dead = bdd.xor(a, b)
        collected = bdd.collect()
        assert collected >= 1
        assert bdd._nodes[keep] is not None
        assert bdd._nodes[dead] is None  # slot cleared, never reused
        # The protected function still evaluates.
        assert bdd.evaluate(keep, {"a": True, "b": True})

    def test_maybe_reorder_prefers_collection_over_sifting(self):
        bdd = BDD()
        names = [f"v{i}" for i in range(8)]
        for name in names:
            bdd.add_var(name)
        rng = random.Random(3)
        keep = bdd.protect(_random_formula(bdd, names, rng))
        for _ in range(60):  # pile up dead intermediates
            _random_formula(bdd, names, rng)
        bdd.set_auto_reorder(None, threshold=bdd.size(keep) + 8)
        ran = bdd.maybe_reorder()
        # Garbage alone explained the growth: collected, no sift pass.
        assert not ran
        assert bdd.reorder_count == 0
        assert bdd.live_size() <= bdd.size(keep)

    def test_maybe_reorder_sifts_when_live_nodes_outgrow_threshold(self):
        bdd = BDD()
        names = [f"v{i}" for i in range(10)]
        for name in names:
            bdd.add_var(name)
        rng = random.Random(4)
        roots = [bdd.protect(_random_formula(bdd, names, rng)) for _ in range(8)]
        bdd.set_auto_reorder(None, threshold=4)
        assert bdd.maybe_reorder()
        assert bdd.reorder_count == 1
        for root in roots:
            assert bdd._nodes[root] is not None or root in (0, 1)


# ----------------------------------------------------------------------
# The encoded union under forced reordering
# ----------------------------------------------------------------------
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


def _model_of(source):
    return extract_model(build_ir(SmartApp.from_source(source)))


@pytest.mark.parametrize("kernel", ["reference", "fast"])
class TestEncoderReordering:
    def test_forced_sift_preserves_state_count(self, kernel):
        models = [_model_of(APP_A), _model_of(APP_B)]
        symbolic = encode_union(models, kernel=kernel)
        reference = symbolic.state_count()
        symbolic.bdd.sift(symbolic.reorder_groups())
        assert symbolic.state_count() == reference
        kripke = build_kripke(build_union_model(models))
        assert symbolic.state_count() == len(kripke.states)

    def test_low_threshold_triggers_reorder_during_construction(self, kernel):
        skeleton = build_union_skeleton([_model_of(APP_A), _model_of(APP_B)])
        symbolic = SymbolicUnionModel(
            skeleton, reorder_threshold=2, kernel=kernel
        )
        # Either collection alone absorbed the growth or a sift ran;
        # in both cases the encoded model must be intact.
        reference = SymbolicUnionModel(
            skeleton, reorder_threshold=None, kernel=kernel
        )
        assert symbolic.state_count() == reference.state_count()


# ----------------------------------------------------------------------
# Cache invalidation under reordering/collection, on BOTH kernels:
# support and op-cache queries interleaved with sift/swap/collect must
# never be served a stale (pre-reorder) answer.
# ----------------------------------------------------------------------
from repro.mc.kernel import make_kernel  # noqa: E402 (suite-local import)


def _brute_support(kernel, f, names):
    """Support by cofactor difference — no caches, no kernel internals."""
    return frozenset(
        name
        for name in names
        if kernel.restrict(f, {name: False}) != kernel.restrict(f, {name: True})
    )


@pytest.mark.parametrize("kernel_name", ["reference", "fast"])
class TestCacheInvalidationAcrossKernels:
    @pytest.mark.parametrize("seed", range(6))
    def test_support_survives_sift_swap_collect_interleaving(
        self, kernel_name, seed
    ):
        rng = random.Random(seed)
        kernel = make_kernel(kernel_name)
        names = [f"v{i}" for i in range(8)]
        for name in names:
            kernel.add_var(name)
        roots = [
            kernel.protect(_random_formula(kernel, names, rng))
            for _ in range(5)
        ]
        # Warm the support cache before any structural churn.
        for root in roots:
            assert kernel.support(root) == _brute_support(kernel, root, names)
        for step in range(8):
            action = rng.choice(["sift", "swap", "collect", "ops"])
            if action == "sift":
                kernel.sift(roots=roots)
            elif action == "swap":
                kernel.swap_adjacent(rng.randrange(len(names) - 1))
            elif action == "collect":
                kernel.collect()
            else:  # churn the op caches between reorders
                _random_formula(kernel, names, rng)
            for root in roots:
                assert kernel.support(root) == _brute_support(
                    kernel, root, names
                ), f"stale support after {action} (step {step})"

    @pytest.mark.parametrize("seed", range(6))
    def test_quantification_caches_invalidated_by_swap(self, kernel_name, seed):
        # The fast kernel memoizes exists/and_exists_list per quantifier-mask
        # across calls; masks are level-based, so a swap that moves
        # levels MUST invalidate them.  Pose the identical query before
        # and after a swap and compare against an untouched twin kernel.
        rng = random.Random(1000 + seed)
        kernel = make_kernel(kernel_name)
        twin = make_kernel(kernel_name)
        names = [f"v{i}" for i in range(8)]
        for name in names:
            kernel.add_var(name)
            twin.add_var(name)
        quantified = rng.sample(names, 3)
        seeds = [rng.random() for _ in range(40)]

        def build(manager):
            local = random.Random(2000 + seed)
            f = _random_formula(manager, names, local)
            g = _random_formula(manager, names, local)
            return f, g

        f, g = build(kernel)
        tf, tg = build(twin)
        assignments = [
            {name: s > i / 40 for i, name in enumerate(names)} for s in seeds
        ]

        def snapshot(manager, left, right):
            fused = manager.and_exists_list(quantified, [left, right])
            lone = manager.exists(quantified, manager.and_(left, right))
            assert fused == lone
            return [manager.evaluate(fused, a) for a in assignments]

        before = snapshot(kernel, f, g)
        assert before == snapshot(twin, tf, tg)
        for index in (0, 3, 5, 1):
            kernel.swap_adjacent(index)
            # Same semantic query, new level layout: a stale level-mask
            # cache entry would surface here as a wrong (pre-swap) BDD.
            assert snapshot(kernel, f, g) == before
        kernel.collect(roots=(f, g))
        assert snapshot(kernel, f, g) == before

    @pytest.mark.parametrize("seed", range(4))
    def test_cached_formulas_stable_across_maybe_reorder(
        self, kernel_name, seed
    ):
        rng = random.Random(3000 + seed)
        kernel = make_kernel(kernel_name)
        names = [f"v{i}" for i in range(10)]
        for name in names:
            kernel.add_var(name)
        keep = kernel.protect(_random_formula(kernel, names, rng))
        assignments = [
            {name: rng.random() < 0.5 for name in names} for _ in range(30)
        ]
        truth = [kernel.evaluate(keep, a) for a in assignments]
        support = kernel.support(keep)
        kernel.set_auto_reorder(None, threshold=4)
        for _ in range(30):  # garbage + growth pressure
            _random_formula(kernel, names, rng)
            kernel.maybe_reorder()
        assert [kernel.evaluate(keep, a) for a in assignments] == truth
        assert kernel.support(keep) == support
        assert kernel.support(keep) == _brute_support(kernel, keep, names)
