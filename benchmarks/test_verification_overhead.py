"""Sec. 6.3 — property-verification overhead.

Paper: "The verification of a property took on the order of milliseconds
to perform since the SmartThings apps have comparatively smaller state
models than the large-scale ones found in other domains."

Measured on the largest single-app model (O35, 180 states) with the
explicit CTL checker and the pipeline's symbolic checker over the
encoded model.
"""

from repro.mc import parse_ctl
from repro.mc.explicit import ExplicitChecker
from repro.mc.symbolic import SymbolicModelChecker
from repro.model import SymbolicUnionModel, build_union_skeleton

FORMULA = "AG (attr:the_alarm.alarm=siren -> EF attr:the_alarm.alarm=off)"


def test_explicit_ctl_verification(benchmark, official_analyses):
    kripke = official_analyses["O35"].kripke
    formula = parse_ctl(FORMULA)

    def run():
        return ExplicitChecker(kripke).check(formula).holds

    holds = benchmark(run)
    print(f"\nexplicit CTL on O35 ({len(kripke.states)} Kripke states): holds={holds}")


def test_symbolic_ctl_verification(benchmark, official_analyses):
    analysis = official_analyses["O35"]
    formula = parse_ctl(FORMULA)
    # Encoded once, as NuSMV builds its relation once; the single-app
    # skeleton and fire-on-change semantics of the symbolic backend.
    symbolic = SymbolicUnionModel(
        build_union_skeleton([analysis.model]), written=frozenset()
    )

    def run():
        return SymbolicModelChecker(symbolic).check(formula).holds

    holds = benchmark(run)
    print(f"\nBDD-symbolic CTL on O35: holds={holds}")
    assert holds == ExplicitChecker(analysis.kripke).check(formula).holds


def test_all_properties_over_market_model(benchmark, thirdparty_analyses):
    """Whole-catalog verification pass on one app, the paper's per-property
    milliseconds claim aggregated."""
    analysis = thirdparty_analyses["TP30"]  # 48 states, several properties

    def run():
        checker = ExplicitChecker(analysis.kripke)
        results = []
        for spec_id, checks in analysis.check_results.items():
            for result in checks:
                results.append(checker.check(result.formula).holds)
        return results

    results = benchmark(run)
    per_property_ms = (
        benchmark.stats.stats.mean / max(1, len(results)) * 1000
        if results
        else 0.0
    )
    print(f"\nTP30: {len(results)} property instance(s), "
          f"{per_property_ms:.2f} ms each (paper: order of milliseconds)")
