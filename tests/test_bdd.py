"""ROBDD package: canonicity, boolean algebra, quantification, counting."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.mc.bdd import BDD


@pytest.fixture
def bdd():
    manager = BDD()
    for name in ("a", "b", "c", "d"):
        manager.add_var(name)
    return manager


class TestBasics:
    def test_terminals(self, bdd):
        assert bdd.TRUE == 1 and bdd.FALSE == 0

    def test_variable_evaluation(self, bdd):
        a = bdd.var("a")
        assert bdd.evaluate(a, {"a": True})
        assert not bdd.evaluate(a, {"a": False})

    def test_negated_variable(self, bdd):
        na = bdd.nvar("a")
        assert bdd.evaluate(na, {"a": False})

    def test_canonicity_same_function_same_node(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        f1 = bdd.or_(a, b)
        f2 = bdd.not_(bdd.and_(bdd.not_(a), bdd.not_(b)))  # De Morgan
        assert f1 == f2

    def test_double_negation(self, bdd):
        a = bdd.var("a")
        assert bdd.not_(bdd.not_(a)) == a

    def test_tautology_collapses_to_true(self, bdd):
        a = bdd.var("a")
        assert bdd.or_(a, bdd.not_(a)) == bdd.TRUE

    def test_contradiction_collapses_to_false(self, bdd):
        a = bdd.var("a")
        assert bdd.and_(a, bdd.not_(a)) == bdd.FALSE

    def test_xor_is_symmetric_difference(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        assert bdd.xor(a, b) == bdd.or_(bdd.and_not(a, b), bdd.and_not(b, a))

    def test_implies(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        f = bdd.implies(a, b)
        assert bdd.evaluate(f, {"a": False, "b": False})
        assert not bdd.evaluate(f, {"a": True, "b": False})


class TestQuantification:
    def test_exists_removes_variable(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        f = bdd.and_(a, b)
        g = bdd.exists(["a"], f)
        assert g == b

    def test_exists_of_tautology_in_var(self, bdd):
        a = bdd.var("a")
        assert bdd.exists(["a"], a) == bdd.TRUE

    def test_restrict(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        f = bdd.and_(a, b)
        assert bdd.restrict(f, {"a": True}) == b
        assert bdd.restrict(f, {"a": False}) == bdd.FALSE


class TestCountingAndSat:
    def test_count_single_variable(self, bdd):
        assert bdd.count_sat(bdd.var("a")) == 8  # 1 fixed, 3 free

    def test_count_conjunction(self, bdd):
        f = bdd.and_(bdd.var("a"), bdd.var("b"))
        assert bdd.count_sat(f) == 4

    def test_count_true_false(self, bdd):
        assert bdd.count_sat(bdd.TRUE) == 16
        assert bdd.count_sat(bdd.FALSE) == 0

    def test_any_sat(self, bdd):
        f = bdd.and_(bdd.var("a"), bdd.nvar("c"))
        assignment = bdd.any_sat(f)
        full = {"a": False, "b": False, "c": False, "d": False, **assignment}
        assert bdd.evaluate(f, full)

    def test_any_sat_of_false(self, bdd):
        assert bdd.any_sat(bdd.FALSE) is None

    def test_size(self, bdd):
        a = bdd.var("a")
        assert bdd.size(a) == 3  # node + two terminals


# ----------------------------------------------------------------------
# Property-based: BDD operations agree with truth tables.
# ----------------------------------------------------------------------
_VARS = ["a", "b", "c"]


@st.composite
def boolean_exprs(draw, depth=0):
    if depth > 3 or draw(st.booleans()):
        return ("var", draw(st.sampled_from(_VARS)))
    op = draw(st.sampled_from(["and", "or", "not", "xor"]))
    if op == "not":
        return ("not", draw(boolean_exprs(depth=depth + 1)))
    return (op, draw(boolean_exprs(depth=depth + 1)), draw(boolean_exprs(depth=depth + 1)))


def _eval_expr(expr, env):
    kind = expr[0]
    if kind == "var":
        return env[expr[1]]
    if kind == "not":
        return not _eval_expr(expr[1], env)
    left = _eval_expr(expr[1], env)
    right = _eval_expr(expr[2], env)
    return {"and": left and right, "or": left or right, "xor": left != right}[kind]


def _build_bdd(manager, expr):
    kind = expr[0]
    if kind == "var":
        return manager.var(expr[1])
    if kind == "not":
        return manager.not_(_build_bdd(manager, expr[1]))
    left = _build_bdd(manager, expr[1])
    right = _build_bdd(manager, expr[2])
    return {
        "and": manager.and_,
        "or": manager.or_,
        "xor": manager.xor,
    }[kind](left, right)


@settings(max_examples=80, deadline=None)
@given(boolean_exprs())
def test_bdd_matches_truth_table(expr):
    manager = BDD()
    for name in _VARS:
        manager.add_var(name)
    node = _build_bdd(manager, expr)
    for values in itertools.product([False, True], repeat=len(_VARS)):
        env = dict(zip(_VARS, values))
        assert manager.evaluate(node, env) == _eval_expr(expr, env)


@settings(max_examples=40, deadline=None)
@given(boolean_exprs())
def test_count_sat_matches_truth_table(expr):
    manager = BDD()
    for name in _VARS:
        manager.add_var(name)
    node = _build_bdd(manager, expr)
    expected = sum(
        _eval_expr(expr, dict(zip(_VARS, values)))
        for values in itertools.product([False, True], repeat=len(_VARS))
    )
    assert manager.count_sat(node, nvars=len(_VARS)) == expected


@settings(max_examples=40, deadline=None)
@given(boolean_exprs(), st.sampled_from(_VARS))
def test_exists_is_disjunction_of_cofactors(expr, var):
    manager = BDD()
    for name in _VARS:
        manager.add_var(name)
    node = _build_bdd(manager, expr)
    quantified = manager.exists([var], node)
    expected = manager.or_(
        manager.restrict(node, {var: False}), manager.restrict(node, {var: True})
    )
    assert quantified == expected


# ----------------------------------------------------------------------
# Every registered kernel: the protocol surface behaves identically.
# ----------------------------------------------------------------------
from repro.mc.kernel import (  # noqa: E402 (kernel section below the BDD suite)
    DEFAULT_KERNEL,
    available_kernels,
    make_kernel,
    resolve_kernel,
)


@pytest.fixture(params=available_kernels())
def kernel(request):
    """One instance of every concrete kernel (reference, fast)."""
    manager = make_kernel(request.param)
    for name in ("a", "b", "c", "d"):
        manager.add_var(name)
    return manager


class TestEveryKernel:
    def test_terminals_and_canonicity(self, kernel):
        a, b = kernel.var("a"), kernel.var("b")
        assert kernel.TRUE == 1 and kernel.FALSE == 0
        assert kernel.or_(a, b) == kernel.not_(
            kernel.and_(kernel.not_(a), kernel.not_(b))
        )
        assert kernel.and_(a, kernel.not_(a)) == kernel.FALSE

    # -- count_sat edge cases ------------------------------------------
    def test_count_sat_terminals(self, kernel):
        assert kernel.count_sat(kernel.TRUE) == 16
        assert kernel.count_sat(kernel.FALSE) == 0
        assert kernel.count_sat(kernel.TRUE, nvars=0) == 1

    def test_count_sat_explicit_nvars(self, kernel):
        a = kernel.var("a")
        assert kernel.count_sat(a, nvars=1) == 1
        assert kernel.count_sat(a, nvars=4) == 8

    def test_count_sat_after_new_var(self, kernel):
        f = kernel.and_(kernel.var("a"), kernel.var("b"))
        assert kernel.count_sat(f) == 4
        kernel.add_var("e")                      # widen the space
        assert kernel.count_sat(f) == 8

    # -- any_sat edge cases --------------------------------------------
    def test_any_sat_terminals(self, kernel):
        assert kernel.any_sat(kernel.FALSE) is None
        witness = kernel.any_sat(kernel.TRUE)
        assert witness is not None               # {} or any assignment
        assert kernel.evaluate(kernel.TRUE, dict(witness))

    def test_any_sat_witness_satisfies(self, kernel):
        f = kernel.and_(
            kernel.or_(kernel.var("a"), kernel.var("b")), kernel.nvar("c")
        )
        witness = kernel.any_sat(f)
        full = {"a": False, "b": False, "c": False, "d": False, **witness}
        assert kernel.evaluate(f, full)

    def test_any_sat_single_model(self, kernel):
        f = kernel.and_(
            kernel.and_(kernel.var("a"), kernel.nvar("b")),
            kernel.and_(kernel.var("c"), kernel.nvar("d")),
        )
        witness = kernel.any_sat(f)
        full = {"a": False, "b": False, "c": False, "d": False, **witness}
        assert full == {"a": True, "b": False, "c": True, "d": False}

    # -- restrict edge cases -------------------------------------------
    def test_restrict_empty_assignment_is_identity(self, kernel):
        f = kernel.or_(kernel.var("a"), kernel.var("b"))
        assert kernel.restrict(f, {}) == f

    def test_restrict_irrelevant_variable(self, kernel):
        a = kernel.var("a")
        assert kernel.restrict(a, {"b": True}) == a
        assert kernel.restrict(a, {"b": False, "c": True}) == a

    def test_restrict_to_terminal(self, kernel):
        f = kernel.and_(kernel.var("a"), kernel.var("b"))
        assert kernel.restrict(f, {"a": True, "b": True}) == kernel.TRUE
        assert kernel.restrict(f, {"a": False}) == kernel.FALSE

    def test_restrict_is_cofactor(self, kernel):
        f = kernel.ite(kernel.var("a"), kernel.var("b"), kernel.var("c"))
        assert kernel.restrict(f, {"a": True}) == kernel.var("b")
        assert kernel.restrict(f, {"a": False}) == kernel.var("c")

    def test_restrict_then_quantify_consistency(self, kernel):
        f = kernel.xor(kernel.var("a"), kernel.var("b"))
        assert kernel.exists(["a"], f) == kernel.or_(
            kernel.restrict(f, {"a": False}), kernel.restrict(f, {"a": True})
        )

    # -- and_not (fused set difference) --------------------------------
    def test_and_not_matches_composition(self, kernel):
        a, b = kernel.var("a"), kernel.var("b")
        f = kernel.or_(a, b)
        g = kernel.and_(a, b)
        assert kernel.and_not(f, g) == kernel.and_(f, kernel.not_(g))
        assert kernel.and_not(f, g) == kernel.xor(a, b)

    def test_and_not_trivial_rules(self, kernel):
        a = kernel.var("a")
        assert kernel.and_not(kernel.FALSE, a) == kernel.FALSE
        assert kernel.and_not(a, kernel.TRUE) == kernel.FALSE
        assert kernel.and_not(a, a) == kernel.FALSE
        assert kernel.and_not(a, kernel.FALSE) == a
        assert kernel.and_not(kernel.TRUE, a) == kernel.not_(a)

    # -- relational product with a cube conjunct -----------------------
    def test_and_exists_list_with_cube_over_quantified_vars(self, kernel):
        a, b, c, d = (kernel.var(name) for name in "abcd")
        f = kernel.or_(kernel.xor(a, c), kernel.and_(b, d))
        cube = kernel.and_(a, kernel.not_(b))
        expected = kernel.restrict(f, {"a": True, "b": False})
        assert kernel.and_exists_list(["a", "b"], [f, cube]) == expected
        assert kernel.and_exists_list(["b", "a"], [cube, f]) == expected
        assert kernel.and_exists_list(["a", "b"], [f, cube, c]) == (
            kernel.and_(expected, c)
        )

    def test_and_exists_list_with_cube_over_other_vars(self, kernel):
        a, b, c, d = (kernel.var(name) for name in "abcd")
        f = kernel.or_(kernel.xor(a, c), kernel.and_(b, d))
        cube = kernel.and_(a, kernel.not_(b))
        # The cube fixes more than is quantified, or less: no cofactor.
        assert kernel.and_exists_list(["a"], [f, cube]) == kernel.exists(
            ["a"], kernel.and_(f, cube)
        )
        assert kernel.and_exists_list(["a", "b", "c"], [f, cube]) == (
            kernel.exists(["a", "b", "c"], kernel.and_(f, cube))
        )


@settings(max_examples=60, deadline=None)
@given(
    boolean_exprs(),
    st.dictionaries(st.sampled_from(_VARS), st.booleans(), min_size=1),
)
def test_cube_product_matches_truth_table_on_every_kernel(expr, fixed):
    # exists fixed . (f & cube(fixed)) == f with the fixed values plugged in.
    for name in available_kernels():
        manager = make_kernel(name)
        for var in _VARS:
            manager.add_var(var)
        cube = manager.TRUE
        for var, value in fixed.items():
            literal = manager.var(var) if value else manager.nvar(var)
            cube = manager.and_(cube, literal)
        product = manager.and_exists_list(
            sorted(fixed), [_build_bdd(manager, expr), cube]
        )
        for values in itertools.product([False, True], repeat=len(_VARS)):
            env = dict(zip(_VARS, values))
            assert manager.evaluate(product, env) == _eval_expr(
                expr, {**env, **fixed}
            )


def test_fast_cube_cofactor_survives_a_swap_and_collection():
    manager = make_kernel("fast")
    for name in "abcdef":
        manager.add_var(name)
    a, b, c, d, e, f = (manager.var(name) for name in "abcdef")
    states = manager.protect(
        manager.or_(manager.and_(manager.xor(a, e), c), manager.and_(b, f))
    )
    cube = manager.protect(manager.and_(manager.not_(a), manager.and_(b, d)))
    fixed = {"a": False, "b": True, "d": True}
    expected = manager.protect(manager.restrict(states, fixed))
    assert manager.and_exists_list(sorted(fixed), [states, cube]) == expected
    # A swap moves levels under the cube but keeps every id's function:
    # the per-cube table stays, the level masks are recomputed.
    manager.swap_adjacent(0)
    assert manager.and_exists_list(sorted(fixed), [states, cube]) == expected
    wider = manager.protect(manager.or_(states, manager.and_(manager.not_(b), e)))
    assert manager.and_exists_list(sorted(fixed), [wider, cube]) == (
        manager.restrict(wider, fixed)
    )
    # Collection drops the tables (entries may name dead ids).
    manager.collect()
    assert manager.and_exists_list(sorted(fixed), [states, cube]) == expected
    assert manager.and_exists_list(["a", "b", "d"], [cube, states]) == expected


@settings(max_examples=40, deadline=None)
@given(boolean_exprs(), boolean_exprs())
def test_and_not_matches_truth_table_on_every_kernel(left, right):
    for name in available_kernels():
        manager = make_kernel(name)
        for var in _VARS:
            manager.add_var(var)
        diff = manager.and_not(
            _build_bdd(manager, left), _build_bdd(manager, right)
        )
        for values in itertools.product([False, True], repeat=len(_VARS)):
            env = dict(zip(_VARS, values))
            expected = _eval_expr(left, env) and not _eval_expr(right, env)
            assert manager.evaluate(diff, env) == expected


class TestKernelRegistry:
    def test_auto_resolves_to_fast(self):
        assert DEFAULT_KERNEL == "fast"
        assert resolve_kernel("auto") == "fast"
        assert type(make_kernel("auto")).__name__ == "FastKernel"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("zdd")
