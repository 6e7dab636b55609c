"""Soteria orchestrator: the four-stage pipeline of Fig. 3.

:func:`analyze_app` — single-app analysis: source -> IR -> state model ->
general-property checks at model construction -> CTL model checking of the
applicable app-specific properties.

:func:`analyze_environment` — multi-app analysis: per-app models, the
Algorithm-2 union model, general checks over the combined rule set, and
model checking on the union through interchangeable backends:

* ``explicit`` — materialize the union product, build the Kripke
  structure, check with :class:`repro.mc.explicit.ExplicitChecker`;
* ``symbolic`` — compile the apps' rules to BDDs over shared attribute
  variables (:mod:`repro.model.encoder`) and check with
  :class:`repro.mc.symbolic.SymbolicModelChecker`, never enumerating the
  product;
* ``auto`` (default) — explicit while the domain-product estimate fits
  the budget (small models check faster explicitly and keep the Kripke
  structure around for callers), symbolic beyond it.

The symbolic backend keeps the transition relation as a disjunctive
fragment partition with early quantification, which is what checks the
82-app all-corpus union (see :mod:`repro.model.encoder`).

All backends produce identical violation sets — the differential test
suite asserts per-formula agreement — so the choice is purely a
performance/scalability decision.

Since the staged-pipeline refactor both functions are thin facades over
:class:`repro.pipeline.Pipeline`: every stage runs through the
content-addressed artifact store (:mod:`repro.pipeline.store`), so
repeated analyses of unchanged sources — including the per-app stages of
an environment whose members were analyzed before — replay from the
store instead of recomputing.  Signatures and results are unchanged.
"""

from __future__ import annotations

from repro.pipeline.results import AppAnalysis, EnvironmentAnalysis
from repro.pipeline.runner import default_pipeline
from repro.pipeline.stages import AUTO_SYMBOLIC_THRESHOLD, BACKENDS, CheckConfig
from repro.platform.capabilities import CapabilityDatabase
from repro.platform.smartapp import SmartApp
from repro.properties.catalog import PropertyCatalog, Violation

__all__ = [
    "AUTO_SYMBOLIC_THRESHOLD",
    "BACKENDS",
    "AppAnalysis",
    "CheckConfig",
    "EnvironmentAnalysis",
    "SmartApp",
    "Violation",
    "analyze_app",
    "analyze_environment",
]


def analyze_app(
    source: str | SmartApp,
    name: str | None = None,
    db: CapabilityDatabase | None = None,
    catalog: PropertyCatalog | None = None,
    abstract_numeric: bool = True,
    backend: str = "auto",
    kernel: str = "auto",
) -> AppAnalysis:
    """Run the full Soteria pipeline on a single app.

    ``backend`` picks the CTL checker: ``explicit`` materializes the
    Kripke structure (raising
    :class:`~repro.model.extractor.StateExplosionError` past the
    extractor budget, the pre-symbolic behaviour), ``symbolic`` compiles
    the app's rules to BDDs without enumerating a single state, and
    ``auto`` (the default) stays explicit while the model fits the budget
    and falls back to the symbolic checker when it does not — so no app
    is too wide to analyze.  ``kernel`` is the BDD kernel backing the
    symbolic checker (``reference`` | ``fast`` | ``auto`` — see
    :mod:`repro.mc.kernel`).  The symbolic path leaves
    ``kripke`` as None and skips the determinism (DET) check, which is
    defined on materialized transitions — the skip is recorded in
    :attr:`AppAnalysis.skipped_properties`.
    """
    return default_pipeline().app_analysis(
        source,
        name=name,
        db=db,
        catalog=catalog,
        abstract_numeric=abstract_numeric,
        config=CheckConfig(backend, kernel),
    )


def analyze_environment(
    sources: list[str | SmartApp | AppAnalysis],
    db: CapabilityDatabase | None = None,
    catalog: PropertyCatalog | None = None,
    shared_devices: dict[tuple[str, str], str] | None = None,
    max_union_states: int | None = None,
    backend: str = "auto",
    kernel: str = "auto",
) -> EnvironmentAnalysis:
    """Analyze a group of apps installed together.

    Each element of ``sources`` may be raw Groovy source, a parsed
    :class:`SmartApp`, or a finished :class:`AppAnalysis` — precomputed
    analyses (e.g. from the corpus batch driver's caches) are reused
    as-is, so union construction skips the per-app pipeline entirely.
    Raw members are analyzed with the same ``backend``/``kernel``/``db``/
    ``catalog`` as the environment itself.

    ``backend`` selects the union checker: ``"explicit"``, ``"symbolic"``
    (see the module docstring), or ``"auto"`` (the default — explicit
    under the state budget, symbolic above it; see
    :meth:`CheckConfig.resolve`).
    ``max_union_states`` caps the *explicit* union's state count
    (default: the :func:`repro.model.build_union_model` budget);
    crossing it with ``backend="explicit"`` raises
    :class:`~repro.model.extractor.StateExplosionError` before any state
    is enumerated, while ``auto`` switches to the symbolic backend, which
    has no budget because it never materializes states.

    ``kernel`` picks the BDD engine behind the symbolic backend:
    ``fast`` (the array-backed default) or ``reference`` (the
    dict-of-node oracle); ``auto`` resolves to ``fast``.  All kernels produce identical
    violation sets — the cross-kernel differential suite enforces it.
    The resolved choice lands in :attr:`EnvironmentAnalysis.kernel`.
    """
    return default_pipeline().environment_analysis(
        sources,
        db=db,
        catalog=catalog,
        shared_devices=shared_devices,
        config=CheckConfig(backend, kernel, max_union_states),
    )
