"""Pipeline runner: stage orchestration over the artifact store.

:class:`Pipeline` is the one component that knows the *shape* of the
Fig. 3 pipeline — which stage feeds which, how each artifact is keyed,
and where the auto backend falls back — while the stages themselves
(:mod:`repro.pipeline.stages`) stay pure functions and the store
(:mod:`repro.pipeline.store`) stays a dumb key-value layer.

Key chains (every key also digests :data:`~repro.pipeline.store.PIPELINE_VERSION`)::

    parse   <- sha256(name, source)
    ir      <- parse key, capability-db token
    model   <- ir key, {abstract_numeric, form: materialized|skeleton}
    kripke  <- model key
    union   <- ordered member model keys, {form, shared-device map}
    check   <- model/union key, {kind, catalog token, resolved CheckConfig.key()}

Because input keys chain, invalidation is free: editing a source changes
the parse key and therefore every downstream key, while re-checking with
a different catalog changes only the check key — the expensive model
artifacts replay from the store.  Analyses with a *custom* capability
database or property catalog get process-local tokens and stay in the
memory layer: their keys mean nothing to another process, so persisting
them could serve wrong results across runs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

from repro.ir import AppIR
from repro.model import StateModel, estimate_union_states
from repro.model.extractor import StateExplosionError
from repro.model.kripke import KripkeStructure
from repro.pipeline import stages
from repro.pipeline.results import AppAnalysis, EnvironmentAnalysis
from repro.pipeline.stages import (
    CheckConfig,
    CheckOutcome,
    catalog_token,
    db_token,
    source_digest,
)
from repro.pipeline.store import ArtifactStore, artifact_key, resolve_cache_dir
from repro.platform.capabilities import CapabilityDatabase, default_database
from repro.platform.smartapp import SmartApp
from repro.properties.catalog import PropertyCatalog, default_catalog


class Pipeline:
    """Runs the staged pipeline, reusing every artifact the store holds.

    One pipeline per store; ``db``/``catalog`` given here are defaults
    for every run (individual calls may override them).
    """

    def __init__(
        self,
        store: ArtifactStore | None = None,
        db: CapabilityDatabase | None = None,
        catalog: PropertyCatalog | None = None,
    ):
        self.store = store if store is not None else ArtifactStore()
        self._db = db
        self._catalog = catalog

    # ------------------------------------------------------------------
    # Key helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _parse_key(digest: str) -> str:
        return artifact_key("parse", [digest])

    @staticmethod
    def _ir_key(parse_key: str, db_tok: str) -> str:
        return artifact_key("ir", [parse_key], {"db": db_tok})

    @staticmethod
    def _model_key(ir_key: str, abstract_numeric: bool, form: str) -> str:
        return artifact_key(
            "model", [ir_key], {"abstract_numeric": abstract_numeric, "form": form}
        )

    def _model_key_for(self, analysis: AppAnalysis) -> str:
        """The model key a finished analysis corresponds to.

        Recomputed from the analysis' own app/knobs — including the
        capability-db token the analysis actually ran under, so a member
        precomputed with a custom database never aliases the default
        database's keys (and vice versa).
        """
        app = analysis.app
        parse_key = self._parse_key(source_digest(app.name, app.source))
        ir_key = self._ir_key(parse_key, analysis.db_token)
        form = "materialized" if analysis.backend == "explicit" else "skeleton"
        return self._model_key(ir_key, analysis.abstract_numeric, form)

    # ------------------------------------------------------------------
    # Single-app pipeline
    # ------------------------------------------------------------------
    def app_analysis(
        self,
        source: str | SmartApp,
        name: str | None = None,
        db: CapabilityDatabase | None = None,
        catalog: PropertyCatalog | None = None,
        abstract_numeric: bool = True,
        config: CheckConfig = CheckConfig(),
    ) -> AppAnalysis:
        """parse -> ir -> model -> kripke -> check for one app.

        ``auto`` checks explicitly unless the model is too wide to
        enumerate; the budget of ``config`` applies to unions only.
        """
        db = db or self._db or default_database()
        catalog = catalog or self._catalog or default_catalog()
        db_tok = db_token(db)
        cat_tok = catalog_token(catalog)
        volatile_db = db_tok != "default"
        store = self.store
        timings: dict[str, float] = {}

        # parse ---------------------------------------------------------
        start = time.perf_counter()
        if isinstance(source, SmartApp):
            app = source
            parse_key = self._parse_key(source_digest(app.name, app.source))
            if not store.contains("parse", parse_key):
                store.put("parse", parse_key, app)
        else:
            parse_key = self._parse_key(source_digest(name, source))
            app = store.get("parse", parse_key, SmartApp)
            if app is None:
                app = stages.run_parse(source, name)
                store.put("parse", parse_key, app)
        timings["parse"] = time.perf_counter() - start

        # ir ------------------------------------------------------------
        start = time.perf_counter()
        ir_key = self._ir_key(parse_key, db_tok)
        ir = store.get("ir", ir_key, AppIR, memory_only=volatile_db)
        if ir is None:
            ir = stages.run_ir(app, db)
            store.put("ir", ir_key, ir, memory_only=volatile_db)
        timings["ir"] = time.perf_counter() - start

        # model ---------------------------------------------------------
        start = time.perf_counter()
        chosen = "explicit" if config.backend == "auto" else config.backend
        model: StateModel | None = None
        if chosen == "explicit":
            model_key = self._model_key(ir_key, abstract_numeric, "materialized")
            model = store.get("model", model_key, StateModel, memory_only=volatile_db)
            if model is None:
                try:
                    model = stages.run_model(
                        ir, db, abstract_numeric=abstract_numeric, materialize=True
                    )
                    store.put("model", model_key, model, memory_only=volatile_db)
                except StateExplosionError:
                    if config.backend == "explicit":
                        raise
                    chosen = "symbolic"  # auto: too wide to enumerate
        if model is None:
            model_key = self._model_key(ir_key, abstract_numeric, "skeleton")
            model = store.get("model", model_key, StateModel, memory_only=volatile_db)
            if model is None:
                model = stages.run_model(
                    ir, db, abstract_numeric=abstract_numeric, materialize=False
                )
                store.put("model", model_key, model, memory_only=volatile_db)
        timings["model"] = time.perf_counter() - start

        # kripke --------------------------------------------------------
        kripke: KripkeStructure | None = None
        if chosen == "explicit":
            start = time.perf_counter()
            kripke_key = artifact_key("kripke", [model_key])
            kripke = store.get(
                "kripke", kripke_key, KripkeStructure, memory_only=volatile_db
            )
            if kripke is None:
                kripke = stages.run_kripke(model)
                store.put("kripke", kripke_key, kripke, memory_only=volatile_db)
            timings["kripke"] = time.perf_counter() - start

        # check ---------------------------------------------------------
        start = time.perf_counter()
        volatile = volatile_db or cat_tok != "default"
        resolved = replace(config, backend=chosen).resolve(0)
        check_key = artifact_key(
            "check",
            [model_key],
            {"kind": "app", "catalog": cat_tok, "config": resolved.key()},
        )
        outcome = store.get("check", check_key, CheckOutcome, memory_only=volatile)
        if outcome is None:
            outcome = stages.run_app_check(
                app.name, ir, model, kripke, db, catalog, resolved
            )
            store.put("check", check_key, outcome, memory_only=volatile)
        timings["properties"] = time.perf_counter() - start

        return AppAnalysis(
            app=app,
            ir=ir,
            model=model,
            kripke=kripke,
            violations=list(outcome.violations),
            checked_properties=list(outcome.checked_properties),
            check_results={k: list(v) for k, v in outcome.check_results.items()},
            timings=timings,
            backend=chosen,
            state_estimate=estimate_union_states([model]),
            skipped_properties=list(outcome.skipped_properties),
            kernel=outcome.kernel,
            kernel_stats=outcome.kernel_stats,
            abstract_numeric=abstract_numeric,
            db_token=db_tok,
        )

    # ------------------------------------------------------------------
    # Environment (union) pipeline
    # ------------------------------------------------------------------
    def environment_analysis(
        self,
        sources: list[str | SmartApp | AppAnalysis],
        db: CapabilityDatabase | None = None,
        catalog: PropertyCatalog | None = None,
        shared_devices: dict[tuple[str, str], str] | None = None,
        config: CheckConfig = CheckConfig(),
    ) -> EnvironmentAnalysis:
        """Per-app stages (or precomputed analyses) -> union -> check."""
        db = db or self._db or default_database()
        catalog = catalog or self._catalog or default_catalog()
        db_tok = db_token(db)
        cat_tok = catalog_token(catalog)
        volatile_db = db_tok != "default"
        store = self.store

        # Per-app pipeline for raw members under the same config: a
        # forced-backend environment run must analyze its members with
        # the same backend/kernel, not silently with the defaults.
        analyses = [
            source
            if isinstance(source, AppAnalysis)
            else self.app_analysis(source, db=db, catalog=catalog, config=config)
            for source in sources
        ]

        models = [a.model for a in analyses]
        estimate = estimate_union_states(models, shared_devices)
        resolved = config.resolve(estimate)
        chosen = resolved.backend
        budget = config.max_union_states
        member_keys = [self._model_key_for(a) for a in analyses]
        # A precomputed member analyzed under a custom database carries a
        # process-local token in its model key; every union-derived key
        # is then meaningless to other processes and must stay in memory.
        volatile_members = volatile_db or any(
            a.db_token != "default" for a in analyses
        )
        shared_tok = (
            "-"
            if not shared_devices
            else repr(sorted(shared_devices.items()))
        )
        timings: dict[str, float] = {}

        # union ---------------------------------------------------------
        form = "materialized" if chosen == "explicit" else "skeleton"
        union_key = artifact_key(
            "union", member_keys, {"form": form, "shared": shared_tok}
        )
        start = time.perf_counter()
        if chosen == "explicit" and budget is not None and estimate > budget:
            # Over an explicit caller budget the cold path raises before
            # enumerating anything; a cached union (built under a larger
            # budget) must not mask that contract on warm runs.
            raise StateExplosionError(
                f"union of {[m.name for m in models]}: "
                f"{estimate} states exceed budget"
            )
        union = store.get("union", union_key, StateModel, memory_only=volatile_members)
        if union is None:
            union = stages.run_union(
                models, db, shared_devices,
                materialize=chosen == "explicit", max_states=budget,
            )
            store.put("union", union_key, union, memory_only=volatile_members)
        timings["union"] = time.perf_counter() - start

        # kripke --------------------------------------------------------
        kripke: KripkeStructure | None = None
        if chosen == "explicit":
            start = time.perf_counter()
            kripke_key = artifact_key("kripke", [union_key])
            kripke = store.get(
                "kripke", kripke_key, KripkeStructure, memory_only=volatile_members
            )
            if kripke is None:
                kripke = stages.run_kripke(union)
                store.put("kripke", kripke_key, kripke, memory_only=volatile_members)
            timings["kripke"] = time.perf_counter() - start

        # check ---------------------------------------------------------
        start = time.perf_counter()
        volatile = volatile_members or cat_tok != "default"
        check_key = artifact_key(
            "check",
            [union_key],
            {"kind": "env", "catalog": cat_tok, "config": resolved.key()},
        )
        outcome = store.get("check", check_key, CheckOutcome, memory_only=volatile)
        if outcome is None:
            irs = [a.ir for a in analyses]
            outcome = stages.run_env_check(union, irs, kripke, catalog, resolved)
            store.put("check", check_key, outcome, memory_only=volatile)
        timings["properties"] = time.perf_counter() - start

        return EnvironmentAnalysis(
            analyses=analyses,
            union_model=union,
            kripke=kripke,
            violations=list(outcome.violations),
            checked_properties=list(outcome.checked_properties),
            timings=timings,
            backend=chosen,
            state_estimate=estimate,
            check_results={k: list(v) for k, v in outcome.check_results.items()},
            kernel=outcome.kernel,
            kernel_stats=outcome.kernel_stats,
        )


# ======================================================================
# Shared pipelines
# ======================================================================
_pipelines: dict[str | None, Pipeline] = {}
_pipelines_lock = threading.Lock()


def pipeline_for(cache_dir) -> Pipeline:
    """The process-shared pipeline over one cache root (None = memory only).

    One pipeline (one store, one memory layer, one set of counters) per
    root, shared by every driver in the process — the batch driver, the
    sweep engine, the service workers, and direct ``analyze_app`` calls
    all reuse each other's artifacts.  Callers resolve
    ``$REPRO_CACHE_DIR`` themselves where it applies (the corpus
    drivers); the plain API facades stay memory-only regardless of the
    environment, like the pre-pipeline orchestrator.
    """
    root = resolve_cache_dir(cache_dir) if cache_dir is not None else None
    slot = None if root is None else str(root)
    with _pipelines_lock:
        pipeline = _pipelines.get(slot)
        if pipeline is None:
            pipeline = Pipeline(ArtifactStore(root))
            _pipelines[slot] = pipeline
        return pipeline


def default_pipeline() -> Pipeline:
    """The memory-only pipeline behind :func:`repro.analyze_app`."""
    return pipeline_for(None)


def shared_stores() -> list[ArtifactStore]:
    """The stores of every process-shared pipeline created so far."""
    with _pipelines_lock:
        return [pipeline.store for pipeline in _pipelines.values()]
