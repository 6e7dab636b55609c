"""Differential backend validation: symbolic vs explicit union checking.

The symbolic (BDD) backend exists so oversized interaction clusters can be
checked at all — which only counts if it is *trustworthy*.  This suite
runs every Table-4 group and every MalIoT environment through both
backends and asserts

* identical violation sets — same (property, devices) pairs, and
* property-level agreement per formula: for every catalog property, the
  per-binding ``holds`` verdicts must match formula by formula, not just
  in aggregate.

Witness traces are not asserted equal: counterexamples are not unique,
and the two backends legitimately pick different (equally valid) paths —
which is also why the trace-derived ``apps`` attribution may differ.
"""

import pytest

from repro.corpus import groundtruth
from repro.corpus.batch import analyze_batch
from repro.soteria import analyze_environment

#: Every curated multi-app scenario of the paper: the three Table-4
#: groups and the three Appendix-C MalIoT environments.
PAPER_GROUPS = [
    pytest.param(group.apps, id=group.group_id)
    for group in groundtruth.TABLE4_GROUPS
] + [
    pytest.param(ids, id="+".join(ids))
    for ids, _prop in groundtruth.MALIOT_ENVIRONMENTS
]


def _both_backends(group):
    analyses = analyze_batch(list(group), jobs=1)
    members = [analyses[app_id] for app_id in group]
    explicit = analyze_environment(list(members), backend="explicit")
    symbolic = analyze_environment(list(members), backend="symbolic")
    assert explicit.backend == "explicit"
    assert symbolic.backend == "symbolic"
    assert symbolic.kripke is None  # the product was never materialized
    return explicit, symbolic


@pytest.mark.parametrize("group", PAPER_GROUPS)
def test_identical_violation_sets(group):
    explicit, symbolic = _both_backends(group)
    key = lambda v: (v.property_id, v.devices)  # noqa: E731
    assert sorted(key(v) for v in explicit.violations) == sorted(
        key(v) for v in symbolic.violations
    )


@pytest.mark.parametrize("group", PAPER_GROUPS)
def test_per_formula_agreement(group):
    explicit, symbolic = _both_backends(group)
    assert explicit.checked_properties == symbolic.checked_properties
    assert explicit.check_results.keys() == symbolic.check_results.keys()
    for property_id, explicit_results in explicit.check_results.items():
        symbolic_results = symbolic.check_results[property_id]
        assert len(explicit_results) == len(symbolic_results), property_id
        for exp, sym in zip(explicit_results, symbolic_results):
            assert exp.formula == sym.formula, property_id
            assert exp.holds == sym.holds, (property_id, str(exp.formula))


@pytest.mark.parametrize("group", PAPER_GROUPS)
def test_same_state_estimate(group):
    explicit, symbolic = _both_backends(group)
    assert explicit.state_estimate == symbolic.state_estimate
    # The explicit product is exactly the estimate — the number the
    # symbolic backend reports without ever enumerating it.
    assert explicit.union_model.size() == explicit.state_estimate
    assert symbolic.union_model.states == []


def test_failing_symbolic_traces_are_decodable():
    """Symbolic counterexamples must decode to real model states so the
    report pipeline (state labels, app attribution) works unchanged."""
    ids, prop = groundtruth.MALIOT_ENVIRONMENTS[0]  # App12-14, P.3
    analyses = analyze_batch(list(ids), jobs=1)
    symbolic = analyze_environment(
        [analyses[a] for a in ids], backend="symbolic"
    )
    violation = next(v for v in symbolic.violations if v.property_id == prop)
    assert violation.counterexample  # rendered state labels
    assert all(step.startswith("[") for step in violation.counterexample)
    assert violation.apps  # trace-derived attribution found culprits


# ----------------------------------------------------------------------
# Cross-kernel differential: the reference dict-of-nodes manager is the
# oracle for the array-backed fast kernel on every paper scenario.
# ----------------------------------------------------------------------
_CROSS_KERNEL_CACHE: dict = {}


def _both_kernels(group):
    """One symbolic run per kernel over the same members, cached."""
    key = tuple(group)
    if key in _CROSS_KERNEL_CACHE:
        return _CROSS_KERNEL_CACHE[key]
    analyses = analyze_batch(list(group), jobs=1)
    members = [analyses[app_id] for app_id in group]
    runs = {}
    for kernel in ("reference", "fast"):
        run = analyze_environment(
            list(members), backend="symbolic", kernel=kernel
        )
        assert run.backend == "symbolic"
        assert run.kernel == kernel           # forced, not auto-resolved
        assert run.kernel_stats is not None
        assert run.kernel_stats["kernel"] == kernel
        runs[kernel] = run
    _CROSS_KERNEL_CACHE[key] = runs
    return runs


@pytest.mark.parametrize("group", PAPER_GROUPS)
def test_cross_kernel_identical_violation_sets(group):
    runs = _both_kernels(group)
    key = lambda v: (v.property_id, v.devices)  # noqa: E731
    reference = sorted(key(v) for v in runs["reference"].violations)
    fast = sorted(key(v) for v in runs["fast"].violations)
    assert fast == reference


@pytest.mark.parametrize("group", PAPER_GROUPS)
def test_cross_kernel_per_formula_agreement(group):
    runs = _both_kernels(group)
    reference, fast = runs["reference"], runs["fast"]
    assert reference.checked_properties == fast.checked_properties
    assert reference.check_results.keys() == fast.check_results.keys()
    for property_id, reference_results in reference.check_results.items():
        fast_results = fast.check_results[property_id]
        assert len(reference_results) == len(fast_results), property_id
        for ref, fst in zip(reference_results, fast_results):
            assert ref.formula == fst.formula, property_id
            assert ref.holds == fst.holds, (property_id, str(ref.formula))


def test_auto_kernel_matches_the_reference_oracle():
    """The default (auto -> fast) path is covered by the oracle too."""
    ids, _prop = groundtruth.MALIOT_ENVIRONMENTS[0]
    analyses = analyze_batch(list(ids), jobs=1)
    members = [analyses[a] for a in ids]
    auto = analyze_environment(list(members), backend="symbolic")
    reference = analyze_environment(
        list(members), backend="symbolic", kernel="reference"
    )
    assert auto.kernel == "fast"
    key = lambda v: (v.property_id, v.devices)  # noqa: E731
    assert sorted(key(v) for v in auto.violations) == sorted(
        key(v) for v in reference.violations
    )
