"""The pipeline stages of Fig. 3 as pure artifact-producing functions.

Each ``run_*`` function is one stage: it takes the previous stage's
artifacts plus knobs and returns one picklable artifact —

========  =============================================  ==================
stage     inputs                                         artifact
========  =============================================  ==================
parse     source text                                    :class:`SmartApp`
ir        parse artifact + capability database           :class:`AppIR`
model     ir artifact + abstraction/materialization      :class:`StateModel`
kripke    materialized model artifact                    :class:`KripkeStructure`
union     member model artifacts + sharing map           :class:`StateModel`
check     model/union artifact + catalog + CheckConfig   :class:`CheckOutcome`
========  =============================================  ==================

The functions hold **no caching and no timing** — orchestration (which
stage to run, which artifact key addresses it, auto-backend fallback)
lives in :class:`repro.pipeline.runner.Pipeline`.  Keeping the stages
pure is what makes them addressable: the runner, the corpus batch
driver, and the analysis service all execute the same functions through
the same artifact store.

The symbolic checker's BDD encoding is deliberately *inside* the check
stage rather than an artifact of its own: BDD managers are mutable
machine-local state, cheap to rebuild and unsafe to pickle, while the
:class:`CheckOutcome` they produce is plain data.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from itertools import count as _count

from repro.ir import AppIR, build_ir
from repro.mc.explicit import CheckResult, ExplicitChecker
from repro.mc.kernel import record_kernel_stats, resolve_kernel
from repro.model import (
    StateModel,
    build_kripke,
    build_union_model,
    build_union_skeleton,
    extract_model,
)
from repro.model.kripke import KripkeStructure
from repro.platform.capabilities import CapabilityDatabase, default_database
from repro.platform.smartapp import SmartApp
from repro.properties.appspecific import APP_SPECIFIC_PROPERTIES
from repro.properties.catalog import PropertyCatalog, Violation
from repro.properties.general import check_general_properties
from repro.properties.roles import device_roles, merge_roles

#: Union-state estimate beyond which the ``auto`` backend switches from
#: explicit to symbolic checking when no explicit budget is passed.  This
#: is the sweep engine's historical skip budget: every curated paper group
#: fits under it with room to spare, so ``auto`` keeps those on the (for
#: small models faster) explicit path and reserves BDDs for the clusters
#: the old budget used to reject.
AUTO_SYMBOLIC_THRESHOLD = 10_000

#: Recognized checker backends.
BACKENDS = ("auto", "explicit", "symbolic")


@dataclass(frozen=True)
class CheckConfig:
    """Which checker answers a check, and with which knobs.

    ``backend`` is one of :data:`BACKENDS`; ``kernel`` (the BDD kernel)
    is consulted by the symbolic backend; ``max_union_states`` is the explicit
    budget: ``auto`` goes symbolic past it (default
    :data:`AUTO_SYMBOLIC_THRESHOLD`), and a forced ``explicit`` union
    raises past it.  Frozen and picklable, so it ships to worker
    processes as is.

    Construction fails fast on a misspelled knob, even one a particular
    input would never consult (a small model resolving to the explicit
    backend must still reject a bogus kernel).
    """

    backend: str = "auto"
    kernel: str = "auto"
    max_union_states: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"expected one of {', '.join(BACKENDS)}"
            )
        resolve_kernel(self.kernel)

    def resolve(self, estimate: int) -> CheckConfig:
        """The config a model of ``estimate`` product states is checked
        under: a concrete backend, carrying only the knobs it consults.

        ``auto`` goes symbolic once the estimate exceeds the explicit
        budget — the clusters the old sweep skipped are exactly the ones
        the BDD backend exists for; a concrete backend ignores the
        estimate.  The resolved :meth:`key` addresses the check artifact,
        so an explicit check is shared across BDD knobs and budgets.
        """
        backend = self.backend
        if backend == "auto":
            budget = self.max_union_states
            if budget is None:
                budget = AUTO_SYMBOLIC_THRESHOLD
            backend = "symbolic" if estimate > budget else "explicit"
        if backend == "explicit":
            return CheckConfig("explicit")
        return CheckConfig(backend, self.kernel)

    def key(self) -> str:
        """The knob token every cache tier digests: each field, in order
        (a subclass's extra fields are not check knobs)."""
        return ",".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in fields(CheckConfig)
        )


# ======================================================================
# Input digests and knob tokens
# ======================================================================
def source_digest(name: str | None, source: str) -> str:
    """Content address of one submitted source (the parse-stage input)."""
    payload = f"{name or ''}\0{source}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


_token_counter = _count(1)


def _object_token(obj: object, kind: str) -> str:
    """A process-local token for a non-default knob object.

    Stamped onto the instance so repeated calls with the same object map
    to the same artifacts; artifacts keyed on such tokens stay in the
    memory layer (the token means nothing to another process).
    """
    token = getattr(obj, "_artifact_token", None)
    if isinstance(token, str):
        return token
    token = f"{kind}-{next(_token_counter)}"
    try:
        object.__setattr__(obj, "_artifact_token", token)
    except (AttributeError, TypeError):
        token = f"{kind}-id{id(obj)}"
    return token


def db_token(db: CapabilityDatabase) -> str:
    """``"default"`` for the shared capability database, else per-object."""
    if db is default_database():
        return "default"
    return _object_token(db, "db")


def catalog_token(catalog: PropertyCatalog) -> str:
    """``"default"`` for any catalog over the stock property specs.

    :func:`repro.properties.catalog.default_catalog` builds a fresh
    object per call, so identity of the *catalog* cannot define default —
    identity of its spec list can.
    """
    specs = catalog.specs
    if len(specs) == len(APP_SPECIFIC_PROPERTIES) and all(
        a is b for a, b in zip(specs, APP_SPECIFIC_PROPERTIES)
    ):
        return "default"
    return _object_token(catalog, "catalog")


# ======================================================================
# Check-stage artifact
# ======================================================================
@dataclass
class CheckOutcome:
    """Artifact of the check stage: every verdict, none of the machinery.

    Holds the Fig. 9 outputs (violations with decoded witness traces,
    per-property CTL results) plus what was checked and what the chosen
    backend could not check — but no checker, Kripke structure, or BDD
    state, so it pickles small and replays from the store instantly.
    """

    violations: list[Violation] = field(default_factory=list)
    checked_properties: list[str] = field(default_factory=list)
    check_results: dict[str, list[CheckResult]] = field(default_factory=dict)
    #: Property ids this backend skipped (``DET`` on the symbolic path).
    skipped_properties: list[str] = field(default_factory=list)
    #: Resolved BDD kernel name; None for the explicit backend.
    kernel: str | None = None
    #: The kernel's final stats() snapshot (observability; None on the
    #: explicit backend).
    kernel_stats: dict | None = None


# ======================================================================
# Stages
# ======================================================================
def run_parse(source: str, name: str | None = None) -> SmartApp:
    """parse: source text -> parsed :class:`SmartApp`."""
    return SmartApp.from_source(source, name)


def run_ir(app: SmartApp, db: CapabilityDatabase) -> AppIR:
    """ir: parsed app -> intermediate representation."""
    return build_ir(app, db)


def run_model(
    ir: AppIR,
    db: CapabilityDatabase,
    abstract_numeric: bool = True,
    materialize: bool = True,
) -> StateModel:
    """model: IR -> state model.

    ``materialize=True`` enumerates states/transitions (raising
    :class:`~repro.model.extractor.StateExplosionError` past the
    extractor budget); ``materialize=False`` produces the skeleton form
    the symbolic backend encodes without enumerating anything.
    """
    return extract_model(
        ir, db=db, abstract_numeric=abstract_numeric, materialize=materialize
    )


def run_kripke(model: StateModel) -> KripkeStructure:
    """kripke: materialized model -> explicit Kripke structure."""
    return build_kripke(model)


def run_union(
    models: list[StateModel],
    db: CapabilityDatabase,
    shared_devices: dict[tuple[str, str], str] | None = None,
    materialize: bool = True,
    max_states: int | None = None,
) -> StateModel:
    """union: member models -> Algorithm-2 union model (or its skeleton)."""
    if not materialize:
        return build_union_skeleton(models, db=db, shared_devices=shared_devices)
    kwargs = {} if max_states is None else {"max_states": max_states}
    return build_union_model(
        models, db=db, shared_devices=shared_devices, **kwargs
    )


def run_app_check(
    app_name: str,
    ir: AppIR,
    model: StateModel,
    kripke: KripkeStructure | None,
    db: CapabilityDatabase,
    catalog: PropertyCatalog,
    config: CheckConfig,
) -> CheckOutcome:
    """check (single app): general properties + CTL on one model."""
    outcome = CheckOutcome()
    origins = [(app_name, s) for s in model.all_rules()]
    outcome.violations.extend(check_general_properties(origins, ir=ir, db=db))
    if config.backend == "explicit":
        outcome.violations.extend(determinism_violations(model))
        checker = _checker(model, kripke, config)
    else:
        # The union skeleton of one model is the model itself with
        # rule_origins populated; the empty ``written`` set keeps the
        # single-app fire-on-change semantics (no self-stimulation).
        skeleton = build_union_skeleton([model], db=db)
        checker = _checker(skeleton, None, config, written=frozenset())
        # DET is defined on materialized transitions, which the
        # symbolic backend never builds — record the gap instead of
        # silently omitting it.
        outcome.skipped_properties.append("DET")
    check_app_specific(outcome, [ir], model, checker, catalog)
    _finish_check(outcome, checker, config)
    return outcome


def run_env_check(
    union: StateModel,
    irs: list[AppIR],
    kripke: KripkeStructure | None,
    catalog: PropertyCatalog,
    config: CheckConfig,
) -> CheckOutcome:
    """check (environment): general properties + CTL on the union model."""
    outcome = CheckOutcome()
    outcome.violations.extend(check_general_properties(union.rule_origins))
    checker = _checker(union, kripke, config)
    check_app_specific(outcome, irs, union, checker, catalog)
    _finish_check(outcome, checker, config)
    return outcome


def _checker(
    model: StateModel,
    kripke: KripkeStructure | None,
    config: CheckConfig,
    written: frozenset | None = None,
):
    """The CTL checker a resolved ``config`` names: explicit over
    ``kripke``, else over the union skeleton ``model`` (``written`` as
    in :class:`~repro.model.encoder.SymbolicUnionModel`)."""
    if config.backend == "explicit":
        return ExplicitChecker(kripke)
    from repro.mc.symbolic import SymbolicModelChecker
    from repro.model.encoder import SymbolicUnionModel

    return SymbolicModelChecker(
        SymbolicUnionModel(model, written=written, kernel=config.kernel)
    )


def _finish_check(outcome: CheckOutcome, checker, config: CheckConfig) -> None:
    """Harvest backend observability after the property pass."""
    if config.backend == "explicit":
        return
    symbolic = checker.symbolic
    outcome.kernel = symbolic.kernel
    outcome.kernel_stats = symbolic.bdd.stats()
    record_kernel_stats(outcome.kernel_stats)


# ======================================================================
# Check internals (shared by both check stages)
# ======================================================================
def determinism_violations(model: StateModel) -> list[Violation]:
    pairs = model.nondeterministic_pairs()
    violations = []
    seen: set[tuple[str, str]] = set()
    for first, second in pairs:
        key = (first.event.label(), f"{first.target}|{second.target}")
        if key in seen:
            continue
        seen.add(key)
        violations.append(
            Violation(
                property_id="DET",
                apps=tuple(sorted({first.app, second.app})),
                description=(
                    f"nondeterministic model: event {first.event.label()} from "
                    f"{model.state_label(first.source)} reaches both "
                    f"{model.state_label(first.target)} and "
                    f"{model.state_label(second.target)}"
                ),
                via_reflection=first.via_reflection or second.via_reflection,
            )
        )
    return violations


def check_app_specific(
    outcome: CheckOutcome,
    irs: list[AppIR],
    model: StateModel,
    checker,
    catalog: PropertyCatalog,
) -> None:
    """Check the applicable catalog properties through any CTL backend.

    ``checker`` is anything with an explicit-compatible
    ``check(formula) -> CheckResult`` and a ``labels`` map from witness
    states to their atomic propositions for violation diagnosis — the
    Kripke labelling for the explicit backend, the decoded-state labels
    for the symbolic ones.
    """
    labels = checker.labels
    device_map: dict[str, str] = {}
    for ir in irs:
        for perm in ir.devices():
            device_map.setdefault(perm.handle, perm.capability)
    roles = merge_roles([device_roles(ir) for ir in irs])
    capabilities = set(device_map.values())
    if model.attribute_index("location", "mode") is not None:
        capabilities.add("location-mode")

    app_names = tuple(model.apps)
    for spec in catalog.applicable(capabilities, roles):
        outcome.checked_properties.append(spec.id)
        results: list[CheckResult] = []
        seen_bindings: set[tuple[str, ...]] = set()
        for formula, binding in spec.formulas(model, device_map, roles):
            result = checker.check(formula)
            results.append(result)
            if result.holds:
                continue
            devices = tuple(sorted(binding.values()))
            if devices in seen_bindings:
                continue
            seen_bindings.add(devices)
            reflective = _counterexample_reflective(result, labels)
            trace = tuple(
                model.state_label(state.state) for state in result.counterexample
            )
            culprit_apps = _culprit_apps(result, labels) or app_names
            outcome.violations.append(
                Violation(
                    property_id=spec.id,
                    apps=culprit_apps,
                    description=f"{spec.description} (devices: {', '.join(devices)})",
                    formula=str(formula),
                    devices=devices,
                    via_reflection=reflective,
                    counterexample=trace,
                )
            )
        outcome.check_results[spec.id] = results


def _counterexample_reflective(result: CheckResult, labels) -> bool:
    """Did the violating step come only from reflective call targets?"""
    states = result.counterexample or result.failing_states[:1]
    if not states:
        return False
    final = states[-1]
    return "via-reflection" in labels.get(final, frozenset())


def _culprit_apps(result: CheckResult, labels) -> tuple[str, ...]:
    apps: set[str] = set()
    for state in result.counterexample:
        for prop in labels.get(state, frozenset()):
            if prop.startswith("app:"):
                apps.add(prop[4:])
    return tuple(sorted(apps))
