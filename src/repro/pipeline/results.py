"""Result dataclasses assembled from pipeline stage artifacts.

These are the public result types of :func:`repro.analyze_app` and
:func:`repro.analyze_environment` (re-exported from
:mod:`repro.soteria` for compatibility).  They live here, below the
runner, because the pipeline both produces them (assembly of stage
artifacts) and consumes them (a precomputed :class:`AppAnalysis` handed
to an environment run seeds the per-app stages).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir import AppIR
from repro.mc.explicit import CheckResult
from repro.model import StateModel
from repro.model.kripke import KripkeStructure
from repro.platform.smartapp import SmartApp
from repro.properties.catalog import Violation


def _encoding(backend: str) -> str | None:
    return "partitioned" if backend == "symbolic" else None


@dataclass
class AppAnalysis:
    """Everything Soteria derives from one app.

    ``kripke`` is None when the app was checked symbolically (a model
    whose domain product exceeds the extractor's explicit budget is never
    materialized — ``backend`` records which checker ran, and
    ``state_estimate`` the domain-product size either way).
    ``skipped_properties`` names checks the chosen backend could not run
    (the symbolic path skips DET, which is defined on materialized
    transitions) — surfaced instead of silently omitted.
    """

    app: SmartApp
    ir: AppIR
    model: StateModel
    kripke: KripkeStructure | None
    violations: list[Violation] = field(default_factory=list)
    checked_properties: list[str] = field(default_factory=list)
    check_results: dict[str, list[CheckResult]] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    backend: str = "explicit"
    state_estimate: int = 0
    #: Property ids the backend skipped (e.g. ``DET`` on the symbolic
    #: path); empty when every applicable check ran.
    skipped_properties: list[str] = field(default_factory=list)
    #: Resolved BDD kernel the symbolic backend used; None when explicit.
    kernel: str | None = None
    #: The kernel's final stats() snapshot; None when explicit.
    kernel_stats: dict | None = None
    #: The numeric-abstraction knob the model stage ran with.
    abstract_numeric: bool = True
    #: Token of the capability database the analysis ran under
    #: (``"default"`` for the shared one, a process-local token
    #: otherwise) — the pipeline keys union artifacts on it so a member
    #: precomputed with a custom database never aliases default-db keys.
    db_token: str = "default"

    @property
    def encoding(self) -> str | None:
        """The symbolic relation encoding (always ``partitioned``); None
        when the explicit backend ran."""
        return _encoding(self.backend)

    def violated_ids(self) -> set[str]:
        return {v.property_id for v in self.violations}


@dataclass
class EnvironmentAnalysis:
    """Multi-app analysis over the union state model (Algorithm 2).

    ``kripke`` is populated by the explicit backend only: the symbolic
    backend never materializes the union product, so there is no explicit
    structure to hand out (``backend`` records which one ran, and
    ``state_estimate`` the domain-product size either way).
    """

    analyses: list[AppAnalysis]
    union_model: StateModel
    kripke: KripkeStructure | None
    violations: list[Violation] = field(default_factory=list)
    checked_properties: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    backend: str = "explicit"
    state_estimate: int = 0
    check_results: dict[str, list[CheckResult]] = field(default_factory=dict)
    #: Resolved BDD kernel the symbolic backend used; None when explicit.
    kernel: str | None = None
    #: The kernel's final stats() snapshot; None when explicit.
    kernel_stats: dict | None = None

    @property
    def encoding(self) -> str | None:
        """The symbolic relation encoding (always ``partitioned``); None
        when the explicit backend ran."""
        return _encoding(self.backend)

    def multi_app_violations(self) -> list[Violation]:
        """Violations involving two or more apps (the Table 4 kind)."""
        return [v for v in self.violations if len(v.apps) > 1]

    def violated_ids(self) -> set[str]:
        return {v.property_id for v in self.violations}
