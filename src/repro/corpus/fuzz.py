"""Differential fuzzing driver: generated scenarios through both backends.

PR 3 left the repository with two independent union-model checkers — the
explicit Kripke path and the BDD-symbolic path — plus a differential test
suite pinned to the 30 curated paper environments.  This module turns that
fixed guarantee into an *unbounded property*: every scenario the generator
(:mod:`repro.gen`) can synthesize is a differential test case, and every
violation template it injects is a metamorphic oracle.

For each case (a solo app, a generated device-sharing cluster, or a
cluster mixing a synthetic app into a corpus app's device neighborhood)
the driver

1. parses and analyzes every member through the full pipeline,
2. checks the environment on **both** backends — and, with
   ``kernel="both"``, on both BDD kernels — comparing violation sets and
   per-formula verdicts (the differential oracle),
3. asserts every injected violation is flagged by its matching property
   (the metamorphic oracle), and
4. on failure, shrinks the input to a minimal reproducer
   (:mod:`repro.gen.shrink`) and hands the sources back for persisting.

Cases are planned, generated, and checked deterministically from the
seed; worker processes only change wall-clock time, never verdicts.

Analyses run through the staged pipeline (:mod:`repro.pipeline`) behind
the :mod:`repro.soteria` facades: within one case the explicit and
symbolic runs share every per-app parse/ir/model artifact, and the
symbolic passes of a cross-kernel differential share the union skeleton
— the campaign re-derives nothing a differential sibling already built.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.corpus.batch import _resolve_jobs, run_in_pool
from repro.corpus.loader import (
    app_ids,
    load_app,
    register_app,
    scoped_registration,
)
from repro.gen.generator import GenConfig, GeneratedApp, generate_app, generate_cluster
from repro.gen.shrink import shrink_app, shrink_cluster
from repro.gen.templates import BENIGN_PATTERNS
from repro.ir import build_ir
from repro.pipeline.runner import default_pipeline
from repro.pipeline.stages import CheckConfig
from repro.soteria import AppAnalysis, analyze_app

#: Union-state ceiling for a fuzz case: the generator's budgets keep
#: cases far below it; anything above indicates a generator/estimator
#: disagreement and is reported as a case error instead of ground to a
#: halt on the explicit backend.
EXPLICIT_CEILING = 25_000


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzz campaign's parameters (picklable: ships to workers)."""

    seed: int | str = 0
    count: int = 25
    #: Probability that a case is a generated cluster (vs a solo app).
    cluster_rate: float = 0.4
    #: Dataset to mix synthetic apps into (None = purely synthetic).
    #: When set, half of the cluster cases pair a corpus app with a
    #: synthetic app generated onto one of its device handles.
    mix_dataset: str | None = None
    #: Shrink failing cases to minimal reproducers.
    shrink: bool = True
    #: BDD kernel(s) the symbolic passes run on: "auto" | "reference" |
    #: "fast" pick one kernel; "both" runs every symbolic pass on the
    #: reference AND the fast kernel, turning each case into a
    #: cross-kernel differential (explicit vs reference vs fast).
    kernel: str = "auto"
    gen: GenConfig = field(default_factory=GenConfig)


@dataclass
class CaseResult:
    """Outcome of one fuzz case."""

    index: int
    kind: str                      # "app" | "cluster" | "mixed"
    app_ids: tuple[str, ...]
    sources: tuple[str, ...]       # generated member sources
    injected: tuple[str, ...]      # property ids injected across members
    detected: tuple[str, ...]      # injected ids actually flagged
    status: str                    # "ok" | "mismatch" | "missed" | "error"
    detail: str = ""
    state_estimate: int = 0
    #: Corpus members of a mixed case (prefix of ``app_ids``; their
    #: sources are referenced by id, never copied into ``sources``).
    corpus_ids: tuple[str, ...] = ()
    #: Minimal reproducer sources (populated for failing cases).
    shrunk: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class FuzzReport:
    """Aggregate of one campaign; identical for identical (seed, config)."""

    config: FuzzConfig
    results: list[CaseResult]

    def failures(self) -> list[CaseResult]:
        return [r for r in self.results if not r.ok]

    def injected_total(self) -> int:
        return sum(len(r.injected) for r in self.results)

    def detected_total(self) -> int:
        return sum(len(r.detected) for r in self.results)

    def detection_rate(self) -> float:
        injected = self.injected_total()
        return 1.0 if not injected else self.detected_total() / injected

    @property
    def ok(self) -> bool:
        return not self.failures()


# ======================================================================
# Case construction
# ======================================================================
#: Capabilities the generator can attach fragments to — corpus devices
#: with these capabilities are mixing points for synthetic apps.
_GENERATABLE_CAPS = frozenset(
    slot.capability
    for fragment in BENIGN_PATTERNS
    for slot in fragment.slots
)


def _finalize_ids(apps: list[GeneratedApp], register: bool) -> list[GeneratedApp]:
    """Rename members to digest-derived ids and register their sources.

    The digest makes ids collision-free across seeds and configs inside
    one process (loader registration binds an id to one source forever),
    while staying deterministic for reproducibility.
    """
    digest = hashlib.sha256(
        "\0".join(app.source for app in apps).encode("utf-8")
    ).hexdigest()[:10]
    renamed = [
        replace(app, app_id=f"Gen{digest}m{member}")
        for member, app in enumerate(apps)
    ]
    if register:
        for app in renamed:
            register_app(app.app_id, app.source)
    return renamed


@functools.lru_cache(maxsize=None)
def _mix_candidates(dataset: str) -> tuple[tuple[str, str, str], ...]:
    """Corpus mixing points: (app id, device handle, capability).

    Cached per process: every mixed case (and every worker) reuses one
    IR pass over the dataset instead of rebuilding 30+ IRs per case.
    """
    found: list[tuple[str, str, str]] = []
    for app_id in app_ids(dataset):
        try:
            ir = build_ir(load_app(app_id))
        except Exception:
            continue
        for perm in ir.devices():
            if perm.capability in _GENERATABLE_CAPS:
                found.append((app_id, perm.handle, perm.capability))
    return tuple(found)


@dataclass
class _Case:
    kind: str
    corpus_ids: tuple[str, ...]
    apps: list[GeneratedApp]


def _plan_case(index: int, config: FuzzConfig, register: bool = True) -> _Case:
    """Deterministically materialize case ``index`` of the campaign."""
    rng = random.Random(f"soteria-fuzz:{config.seed}:{index}")
    cluster_roll = rng.random()
    mix_roll = rng.random()
    if cluster_roll >= config.cluster_rate:
        app = generate_app(config.seed, index, config=config.gen)
        return _Case("app", (), _finalize_ids([app], register))
    if config.mix_dataset is not None and mix_roll < 0.5:
        candidates = _mix_candidates(config.mix_dataset)
        if candidates:
            corpus_id, handle, capability = rng.choice(candidates)
            synthetic = generate_app(
                config.seed,
                f"{index}.mix",
                config=config.gen,
                forced_share=(capability, handle, "mix"),
                budget=48,
            )
            return _Case(
                "mixed", (corpus_id,), _finalize_ids([synthetic], register)
            )
    apps = generate_cluster(config.seed, index, config=config.gen)
    return _Case("cluster", (), _finalize_ids(apps, register))


# ======================================================================
# The differential + metamorphic checks
# ======================================================================
def _violation_keys(environment) -> list[tuple[str, tuple[str, ...]]]:
    return sorted((v.property_id, v.devices) for v in environment.violations)


def _compare_runs(explicit, other, tag: str) -> str:
    """Disagreement description between the explicit oracle and one other
    backend run; "" = full agreement."""
    if _violation_keys(explicit) != _violation_keys(other):
        return (
            "violation sets differ: explicit="
            f"{_violation_keys(explicit)} {tag}={_violation_keys(other)}"
        )
    if explicit.checked_properties != other.checked_properties:
        return f"checked property lists differ ({tag})"
    for property_id, explicit_results in explicit.check_results.items():
        other_results = other.check_results.get(property_id, [])
        if len(explicit_results) != len(other_results):
            return f"{property_id}: formula counts differ ({tag})"
        for exp, got in zip(explicit_results, other_results):
            if exp.holds != got.holds:
                return (
                    f"{property_id}: verdicts differ on {exp.formula} "
                    f"(explicit={exp.holds}, {tag}={got.holds})"
                )
    return ""


def _passes(config: FuzzConfig) -> list[CheckConfig]:
    """The checks each case runs besides the explicit oracle: one
    symbolic pass per requested kernel (``"both"`` expands to both
    concrete kernels)."""
    kernels = ("reference", "fast") if config.kernel == "both" else (config.kernel,)
    return [CheckConfig("symbolic", kernel) for kernel in kernels]


def _differential(
    analyses: list[AppAnalysis], config: FuzzConfig
) -> tuple[int, str]:
    """Every pass of :func:`_passes` over one environment; "" = agreement.

    The explicit checker is the oracle; every pass must match it on
    violation sets and on every per-formula verdict, so ``kernel="both"``
    cross-checks the kernels against the explicit oracle *and* against
    each other.
    """
    pipeline = default_pipeline()
    explicit = pipeline.environment_analysis(
        list(analyses), config=CheckConfig("explicit")
    )
    for check in _passes(config):
        run = pipeline.environment_analysis(list(analyses), config=check)
        detail = _compare_runs(explicit, run, f"symbolic/{run.kernel}")
        if detail:
            return explicit.state_estimate, detail
    return explicit.state_estimate, ""


def _member_analyses(case: _Case) -> list[AppAnalysis]:
    analyses = [analyze_app(load_app(app_id)) for app_id in case.corpus_ids]
    analyses.extend(
        analyze_app(app.source, name=app.app_id) for app in case.apps
    )
    return analyses


def _sources_disagree(sources: list[str], config: FuzzConfig) -> bool:
    """Shrink predicate for mismatch cases: do the backends still differ?"""
    try:
        analyses = [analyze_app(source) for source in sources]
        _estimate, detail = _differential(analyses, config)
        return bool(detail)
    except Exception:
        return False


def _still_missed(property_id: str):
    """Shrink predicate factory for missed-injection cases."""

    def predicate(source: str) -> bool:
        try:
            return property_id not in analyze_app(source).violated_ids()
        except Exception:
            return False

    return predicate


def _check_case(index: int, config: FuzzConfig) -> CaseResult:
    # The case's synthetic apps are registered only for the duration of
    # the check: a long campaign (or a fleet run sharing the process)
    # must not accumulate thousands of one-shot registry entries.
    with scoped_registration():
        return _check_case_registered(index, config)


def _check_case_registered(index: int, config: FuzzConfig) -> CaseResult:
    case = _plan_case(index, config)
    ids = case.corpus_ids + tuple(app.app_id for app in case.apps)
    sources = tuple(app.source for app in case.apps)
    injected = tuple(pid for app in case.apps for pid in app.injected)
    base = dict(
        index=index, kind=case.kind, app_ids=ids, sources=sources,
        injected=injected, detected=(), corpus_ids=case.corpus_ids,
    )
    try:
        analyses = _member_analyses(case)
    except Exception as exc:
        result = CaseResult(
            **base, status="error",
            detail=f"pipeline error: {type(exc).__name__}: {exc}",
        )
        _shrink_result(result, config, case=case, error_type=type(exc).__name__)
        return result

    # Metamorphic oracle: each member's injected property must be flagged
    # by that member's own analysis.
    detected: list[str] = []
    missed: list[tuple[int, str]] = []
    offset = len(case.corpus_ids)
    for member, app in enumerate(case.apps):
        violated = analyses[offset + member].violated_ids()
        for pid in app.injected:
            if pid in violated:
                detected.append(pid)
            else:
                missed.append((member, pid))
    base["detected"] = tuple(detected)

    # Differential oracle over the environment.
    try:
        estimate, detail = _differential(analyses, config)
    except Exception as exc:
        result = CaseResult(
            **base, status="error",
            detail=f"union checking error: {type(exc).__name__}: {exc}",
        )
        _shrink_result(result, config, case=case, error_type=type(exc).__name__)
        return result
    if estimate > EXPLICIT_CEILING:
        detail = detail or (
            f"state estimate {estimate} blew the fuzz ceiling "
            f"{EXPLICIT_CEILING} (generator budget bug)"
        )

    if detail:
        result = CaseResult(
            **base, status="mismatch", detail=detail, state_estimate=estimate
        )
    elif missed:
        listed = ", ".join(f"{ids[offset + m]}:{pid}" for m, pid in missed)
        result = CaseResult(
            **base, status="missed", state_estimate=estimate,
            detail=f"injected violations undetected: {listed}",
        )
    else:
        result = CaseResult(**base, status="ok", state_estimate=estimate)
    if not result.ok:
        _shrink_result(result, config, missed=missed, case=case)
    return result


def _same_error(
    error_type: str, corpus_sources: list[str], config: FuzzConfig = FuzzConfig()
):
    """Shrink predicate factory for pipeline-error cases: does analyzing
    the candidate sources still raise the same exception type?"""

    def predicate(candidates: list[str]) -> bool:
        try:
            analyses = [
                analyze_app(source) for source in corpus_sources + candidates
            ]
            _differential(analyses, config)
        except Exception as exc:
            return type(exc).__name__ == error_type
        return False

    return predicate


def _shrink_result(
    result: CaseResult,
    config: FuzzConfig,
    missed: list[tuple[int, str]] | None = None,
    case: _Case | None = None,
    error_type: str | None = None,
) -> None:
    """Attach minimal reproducer sources to a failing result."""
    if not config.shrink or not result.sources:
        return
    # Corpus members are not shrinkable sources; only generated apps are
    # minimized (corpus apps are referenced by id in the meta and kept as
    # fixed context while shrinking).
    protected = [app.protected_methods for app in (case.apps if case else [])]
    corpus_sources = [
        load_app(app_id).source for app_id in (case.corpus_ids if case else ())
    ]
    if result.status == "mismatch":

        def predicate(candidates: list[str]) -> bool:
            return _sources_disagree(corpus_sources + candidates, config)

        result.shrunk = tuple(
            shrink_cluster(list(result.sources), predicate, protected)
        )
    elif result.status == "error" and error_type is not None:
        result.shrunk = tuple(
            shrink_cluster(
                list(result.sources),
                _same_error(error_type, corpus_sources, config),
                protected,
            )
        )
    elif result.status == "missed" and missed and case is not None:
        shrunk = list(result.sources)
        for member, property_id in missed:
            app = case.apps[member]
            shrunk[member] = shrink_app(
                app.source,
                _still_missed(property_id),
                protected=app.protected_methods,
            )
        result.shrunk = tuple(shrunk)
    else:
        result.shrunk = result.sources


# ======================================================================
# The campaign driver
# ======================================================================
def _fuzz_worker(index: int, config: FuzzConfig) -> tuple[int, CaseResult]:
    return index, _check_case(index, config)


def run_fuzz(
    seed: int | str = 0,
    count: int = 25,
    jobs: int | None = None,
    config: FuzzConfig | None = None,
    out_dir: str | os.PathLike | None = None,
) -> FuzzReport:
    """Run one differential fuzz campaign.

    Fully deterministic in ``(seed, count, config)``: the same campaign
    generates byte-identical sources and identical verdicts regardless of
    ``jobs``.  Failing cases are shrunk and, when ``out_dir`` is given,
    persisted as replayable reproducers (see :func:`write_reproducer`).
    """
    if config is None:
        config = FuzzConfig(seed=seed, count=count)
    else:
        config = replace(config, seed=seed, count=count)

    payloads = [(index, config) for index in range(count)]
    worker_count = _resolve_jobs(jobs, len(payloads), min_parallel=2)
    results: dict[int, CaseResult] = {}
    if len(payloads) > 1 and worker_count > 1:
        results.update(run_in_pool(_fuzz_worker, payloads, worker_count))
    for index, _config in payloads:
        if index not in results:
            results[index] = _check_case(index, config)

    report = FuzzReport(
        config=config, results=[results[index] for index in range(count)]
    )
    if out_dir is not None:
        for result in report.failures():
            write_reproducer(result, config, out_dir)
    return report


def write_reproducer(
    result: CaseResult, config: FuzzConfig, out_dir: str | os.PathLike
) -> Path:
    """Persist one failing case as a replayable directory.

    Layout: ``case-<index>/app<k>.groovy`` (the shrunk sources) plus
    ``meta.json`` recording the verdict, injected properties, member ids
    (including corpus members, which are referenced by id rather than
    copied), and the campaign coordinates to regenerate the unshrunk
    case.  Replay with ``soteria fuzz --replay <dir>``.
    """
    directory = Path(out_dir) / f"case-{result.index}"
    directory.mkdir(parents=True, exist_ok=True)
    sources = result.shrunk or result.sources
    for member, source in enumerate(sources):
        (directory / f"app{member}.groovy").write_text(source, encoding="utf-8")
    meta = {
        "status": result.status,
        "detail": result.detail,
        "kind": result.kind,
        "seed": config.seed,
        "index": result.index,
        # Everything needed to regenerate the *unshrunk* case: rerun the
        # campaign with this exact configuration and look up the index.
        "config": {
            "count": config.count,
            "cluster_rate": config.cluster_rate,
            "mix_dataset": config.mix_dataset,
            "kernel": config.kernel,
        },
        "app_ids": list(result.app_ids),
        "corpus_members": list(result.corpus_ids),
        "injected": list(result.injected),
        "replay": "soteria fuzz --replay <this directory>",
    }
    (directory / "meta.json").write_text(
        json.dumps(meta, indent=2) + "\n", encoding="utf-8"
    )
    return directory


def replay(directory: str | os.PathLike) -> tuple[bool, str]:
    """Re-run the differential check over a persisted reproducer.

    Returns ``(reproduced, message)``: ``reproduced`` is True when the
    recorded failure still shows (backends disagree, or a recorded
    injected property is still undetected).
    """
    directory = Path(directory)
    sources = [
        path.read_text(encoding="utf-8")
        for path in sorted(directory.glob("app*.groovy"))
    ]
    meta: dict = {}
    meta_path = directory / "meta.json"
    if meta_path.is_file():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    for corpus_id in reversed(meta.get("corpus_members", [])):
        try:
            sources.insert(0, load_app(corpus_id).source)
        except KeyError:
            return False, (
                f"meta.json names unknown corpus member {corpus_id!r}; "
                "cannot rebuild the environment"
            )
    if not sources:
        return False, f"no app*.groovy files under {directory}"

    # Older reproducers may also record "backend" or "encoding" knobs;
    # they replay through the explicit/symbolic differential like any
    # other.
    config = FuzzConfig(kernel=meta.get("config", {}).get("kernel", "auto"))
    try:
        analyses = [analyze_app(source) for source in sources]
    except Exception as exc:
        return True, f"pipeline error reproduced: {type(exc).__name__}: {exc}"
    try:
        _estimate, detail = _differential(analyses, config)
    except Exception as exc:
        return True, f"union checking error reproduced: {type(exc).__name__}: {exc}"
    if detail:
        return True, f"backend disagreement reproduced: {detail}"
    union_violated = set()
    for analysis in analyses:
        union_violated |= analysis.violated_ids()
    still_missed = [
        pid for pid in meta.get("injected", []) if pid not in union_violated
    ]
    if meta.get("status") == "missed" and still_missed:
        return True, f"missed injection reproduced: {', '.join(still_missed)}"
    return False, "failure did not reproduce (backends agree on this input)"
