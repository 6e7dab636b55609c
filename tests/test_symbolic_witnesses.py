"""Symbolic witness decoding: traces must be real explicit-Kripke paths.

The differential suite (tests/test_backends_differential.py) pins verdict
agreement; this suite pins the *witnesses*.  A symbolic counterexample is
decoded from BDD frontiers without ever materializing the product, so a
decoding bug could fabricate states or steps that the real structure does
not contain — and every report, state label, and culprit-app attribution
downstream would silently lie.  For a handful of Table-4/MalIoT
environments:

* every decoded **AG shortest-path** witness must start in an initial
  state of the explicit Kripke structure and follow real edges;
* every decoded **AF lasso** witness (stem + cycle) must follow real
  edges, close its cycle, and stay inside the structure.

Witnesses are compared on ``(state, incoming-props)`` — counterexamples
are not unique, so only *validity* is asserted, never equality with the
explicit checker's pick.
"""

import pytest

from repro.corpus import groundtruth
from repro.corpus.batch import analyze_batch
from repro.mc import ctl
from repro.mc.symbolic import SymbolicModelChecker
from repro.model.encoder import SymbolicUnionModel, encode_union
from repro.model.union import build_union_skeleton
from repro.soteria import analyze_environment

#: A handful of curated environments with known *CTL* violations (the
#: S-only groups fail at model construction and leave no witnesses).
ENVIRONMENTS = [
    pytest.param(tuple(groundtruth.TABLE4_GROUPS[2].apps), id="G.3"),
] + [
    pytest.param(tuple(ids), id="+".join(ids))
    for ids, _prop in groundtruth.MALIOT_ENVIRONMENTS[:2]
]


def _norm(node):
    """Order-insensitive node identity: (state tuple, incoming props)."""
    return (node.state, frozenset(node.incoming))


def _explicit_graph(group):
    analyses = analyze_batch(list(group), jobs=1)
    members = [analyses[app_id] for app_id in group]
    environment = analyze_environment(list(members), backend="explicit")
    kripke = environment.kripke
    nodes = {_norm(state) for state in kripke.states}
    edges = {
        (_norm(src), _norm(dst))
        for src, dsts in kripke.succ.items()
        for dst in dsts
    }
    initial = {_norm(state) for state in kripke.initial}
    return members, nodes, edges, initial


def _assert_path(path, nodes, edges):
    for node in path:
        assert _norm(node) in nodes, f"decoded state not in structure: {node}"
    for src, dst in zip(path, path[1:]):
        assert (_norm(src), _norm(dst)) in edges, (
            f"decoded step is not an explicit edge: {src} -> {dst}"
        )


@pytest.mark.parametrize("group", ENVIRONMENTS)
def test_ag_witnesses_are_explicit_paths(group):
    members, nodes, edges, initial = _explicit_graph(group)
    symbolic = analyze_environment(list(members), backend="symbolic")
    checked = 0
    for results in symbolic.check_results.values():
        for result in results:
            if result.holds or not result.counterexample:
                continue
            path = result.counterexample
            if result.counterexample_loop:
                continue  # lassos are covered below
            _assert_path(path, nodes, edges)
            if len(path) > 1:  # a real AG path, not a generic witness stub
                assert _norm(path[0]) in initial, (
                    "AG witness does not start in an initial state"
                )
                checked += 1
    assert checked, "no AG witnesses found in a known-violating environment"


@pytest.mark.parametrize("kernel", ["reference", "fast"])
@pytest.mark.parametrize("group", ENVIRONMENTS)
def test_reordering_mid_fixpoint_keeps_frontier_decoding_valid(group, kernel):
    """Regression: dynamic reordering during the reachability fixpoint
    must not corrupt the BFS frontiers that witness extraction decodes.

    A node-count threshold of 2 forces sifting to run repeatedly while
    the partition is built and the frontiers are grown, on either
    kernel; every decoded frontier state and every AG witness walked
    back over those frontiers must still be a real node/path of the
    explicit Kripke structure.
    """
    members, nodes, edges, initial = _explicit_graph(group)
    symbolic = SymbolicUnionModel(
        build_union_skeleton([m.model for m in members]),
        reorder_threshold=2,
        kernel=kernel,
    )
    assert symbolic.bdd.reorder_count >= 1, "no reorder ran — test is vacuous"

    # Every frontier still decodes to real states.
    for ring in symbolic.frontiers:
        node, _labels = symbolic.decode(symbolic.bdd.any_sat(ring))
        assert _norm(node) in nodes, f"frontier decoded a phantom state: {node}"

    # AG witnesses walked back over the (reordered-under) frontiers are
    # real explicit paths from initial states.
    checker = SymbolicModelChecker(symbolic)
    checked = 0
    seen: set[str] = set()
    for fragment in symbolic.fragments.values():
        for prop in fragment.props:
            if not prop.startswith("act:") or prop in seen:
                continue
            seen.add(prop)
            result = checker.check(ctl.AG(ctl.Not(ctl.Prop(prop))))
            if result.holds or not result.counterexample:
                continue
            path = result.counterexample
            _assert_path(path, nodes, edges)
            if len(path) > 1:
                assert _norm(path[0]) in initial
                checked += 1
    assert checked, "no failing AG formula produced a multi-step witness"


@pytest.mark.parametrize("group", ENVIRONMENTS)
def test_af_lasso_witnesses_are_explicit_cycles(group):
    members, nodes, edges, initial = _explicit_graph(group)
    symbolic = encode_union([analysis.model for analysis in members])
    checker = SymbolicModelChecker(symbolic)

    # Catalog properties are AG-shaped, so drive AF directly: for each
    # attribute value, "every path eventually reaches it" is false for
    # most values, producing a lasso that never visits it.
    lassos = 0
    union = symbolic.model
    for attribute in union.attributes:
        for value in attribute.domain:
            prop = ctl.Prop(
                f"attr:{attribute.device}.{attribute.attribute}={value}"
            )
            result = checker.check(ctl.AF(prop))
            if result.holds or not result.counterexample_loop:
                continue
            stem, loop = result.counterexample, result.counterexample_loop
            _assert_path(stem + loop, nodes, edges)
            # The cycle must close back on itself inside the structure.
            assert (_norm(loop[-1]), _norm(loop[0])) in edges
            # The whole lasso avoids the AF target — that is what makes
            # it a counterexample (decoded labels carry the atoms).
            for node in stem + loop:
                assert prop.name not in checker.labels.get(node, frozenset())
            lassos += 1
            if lassos >= 3:
                return
    assert lassos, "no failing AF formula produced a lasso witness"
