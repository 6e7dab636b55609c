"""The traced layers: which public callables are wrapped, and how the
per-layer metrics are derived from the resulting spans.

Every metric is reported on every workload.  A layer that a workload
bypasses reports 0 (no calls, no time): that is the measured value, and
``README.md`` lists which layers each workload is predicted to bypass.
"""

from __future__ import annotations

from common import median, metric, tail
from tracing import (
    Span,
    ancestors,
    children_of,
    covered,
    outermost,
    outermost_total,
    self_time,
)

STAGES = ("parse", "ir", "model", "kripke", "union", "app_check", "env_check")

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str]] = (
    [(f"stages.{stage}_s", "s") for stage in STAGES]
    + [(f"stages.{stage}.calls", "count") for stage in STAGES]
    + [
        ("stages.model_fallbacks", "count"),
        ("store.get_s", "s"),
        ("store.put_s", "s"),
        ("store.hit_ratio", "ratio"),
        ("store.writes", "count"),
        ("encoder.build_s", "s"),
        ("encoder.fragments", "count"),
        ("encoder.reach_rounds", "count"),
        ("symbolic.checks", "count"),
        ("symbolic.check_s", "s"),
        ("symbolic.sat_s", "s"),
        ("symbolic.witness_s", "s"),
        ("symbolic.check_p50_ms", "ms"),
        ("symbolic.check_tail_ms", "ms"),
        ("kernel.peak_nodes", "count"),
        ("kernel.cache_hit_rate", "ratio"),
        ("kernel.gc_runs", "count"),
        ("kernel.reorders", "count"),
        ("explicit.checks", "count"),
        ("explicit.check_s", "s"),
        ("properties.general_s", "s"),
        ("fleet.generate_s", "s"),
        ("fleet.canonicalize_s", "s"),
        ("fleet.canonical_parses", "count"),
        ("fleet.probe_s", "s"),
        ("fleet.probe_hits", "count"),
        ("fleet.check_s", "s"),
        ("fleet.fresh_checks", "count"),
        ("fleet.hit_rate", "ratio"),
        ("fleet.stream_s", "s"),
        ("service.submit_ms", "ms"),
        ("service.queue_ms", "ms"),
        ("service.run_ms", "ms"),
        ("service.http_ms", "ms"),
        ("service.attached_ratio", "ratio"),
        ("jobs.write_ms", "ms"),
        ("root.uncovered_s", "s"),
        ("root.trace_overhead_s", "s"),
    ]
)


def as_metrics(values: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric in result form, in report order."""
    return {name: metric(values[name], unit) for name, unit in PER_LAYER}


# ======================================================================
# Wrapping
# ======================================================================
def _store_get(span, args, kwargs, result):
    span.attrs["hit"] = result is not None


def _encoder_built(span, args, kwargs, result):
    model = args[0]
    span.attrs["fragments"] = len(model.fragments)
    span.attrs["rounds"] = len(model.frontiers)


def _fleet_probe(span, args, kwargs, result):
    span.attrs["hit"] = result is not None


def _service_submit(span, args, kwargs, result):
    record, created = result
    span.attrs["job"] = record.id
    span.attrs["created"] = created


def _jobs_submit(span, args, kwargs, result):
    span.attrs["job"] = result[0].id


def _jobs_update(span, args, kwargs, result):
    span.attrs["job"] = args[1] if len(args) > 1 else kwargs.get("job_id")
    span.attrs["status"] = kwargs.get("status")


def install_pipeline(recorder) -> None:
    """Analysis layers: stages, store, encoder, checkers, properties."""
    from repro.mc.explicit import ExplicitChecker
    from repro.mc.symbolic import SymbolicModelChecker
    from repro.model.encoder import SymbolicUnionModel
    from repro.pipeline import stages
    from repro.pipeline.store import ArtifactStore

    for stage in STAGES:
        recorder.wrap(stages, f"run_{stage}", f"stages.{stage}")
    recorder.wrap(stages, "check_general_properties", "properties.general")
    recorder.wrap(ArtifactStore, "get", "store.get", _store_get)
    recorder.wrap(ArtifactStore, "put", "store.put")
    recorder.wrap(SymbolicUnionModel, "__init__", "encoder.build", _encoder_built)
    recorder.wrap(SymbolicModelChecker, "check", "symbolic.check")
    recorder.wrap(SymbolicModelChecker, "sat", "symbolic.sat")
    recorder.wrap(ExplicitChecker, "check", "explicit.check")


def install_fleet(recorder) -> None:
    """Fleet funnel: generation, canonicalization, probe, check."""
    from repro.corpus.diskcache import FleetCache
    from repro.fleet import driver
    from repro.fleet.profiles import TemplatePool
    from repro.platform.smartapp import SmartApp

    recorder.wrap(TemplatePool, "blueprint", "fleet.blueprint")
    recorder.wrap(TemplatePool, "canonical_key", "fleet.canonical_key")
    recorder.wrap(SmartApp, "from_source", "platform.from_source")
    recorder.wrap(FleetCache, "get", "fleet.probe", _fleet_probe)
    recorder.wrap(FleetCache, "put", "fleet.store")
    recorder.wrap(driver, "check_household", "fleet.check_household")


def install_service(recorder) -> None:
    """Service tier: admission and the job store."""
    from repro.service.app import SoteriaService
    from repro.service.jobs import JobStore

    recorder.wrap(SoteriaService, "submit", "service.submit", _service_submit)
    recorder.wrap(JobStore, "submit", "jobs.submit", _jobs_submit)
    recorder.wrap(JobStore, "update", "jobs.update", _jobs_update)


# ======================================================================
# Derivation
# ======================================================================
def _by_name(spans: list[Span], name: str) -> list[Span]:
    return [span for span in spans if span.name == name]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _inside(spans: list[Span], outer: str, inner: str) -> list[Span]:
    """``inner`` spans that have an ``outer`` span among their ancestors."""
    by_id = {span.sid: span for span in spans}
    return [
        span
        for span in spans
        if span.name == inner
        and any(node.name == outer for node in ancestors(span, by_id))
    ]


def _service_metrics(spans: list[Span], clients: list[dict]) -> dict[str, float]:
    """Job lifecycle from the submit/update spans, joined on job id."""
    submits = _by_name(spans, "service.submit")
    scheduled: dict[str, float] = {}
    running: dict[str, float] = {}
    settled: dict[str, float] = {}
    for span in submits:
        if span.attrs.get("created"):
            scheduled[span.attrs["job"]] = span.end
    for span in _by_name(spans, "jobs.update"):
        job, status = span.attrs.get("job"), span.attrs.get("status")
        if status == "running":
            running.setdefault(job, span.end)
        elif status in ("done", "failed"):
            settled[job] = span.end
    queue = {j: running[j] - t for j, t in scheduled.items() if j in running}
    run = {j: settled[j] - running[j] for j in running if j in settled}
    writes: dict[str, float] = {}
    for span in _by_name(spans, "jobs.submit") + _by_name(spans, "jobs.update"):
        job = span.attrs.get("job")
        writes[job] = writes.get(job, 0.0) + span.duration
    submit_of = {}
    for span in submits:
        submit_of.setdefault(span.attrs["job"], []).append(span.duration)
    http = []
    for client in clients:
        job = client["job"]
        inside = median(submit_of.get(job, [0.0]))
        if client["created"]:
            inside += queue.get(job, 0.0) + run.get(job, 0.0)
        http.append(client["latency"] - inside)
    attached = sum(1 for client in clients if not client["created"])
    return {
        "service.submit_ms": 1000 * median(s.duration for s in submits),
        "service.queue_ms": 1000 * median(queue.values()),
        "service.run_ms": 1000 * median(run.values()),
        "service.http_ms": 1000 * median(http),
        "service.attached_ratio": _ratio(attached, len(clients)),
        "jobs.write_ms": 1000 * median(writes.values()),
    }


def derive(
    spans: list[Span],
    windows: list[tuple[float, float]],
    kernel: dict | None = None,
    fleet: dict | None = None,
    clients: list[dict] | None = None,
    overhead_s: float = 0.0,
) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric from the spans of the traced operations.

    ``windows`` are the traced operations' wall intervals (for
    ``root.uncovered_s``); ``kernel`` is a BDD ``stats()`` snapshot or
    aggregate, ``fleet`` the screen telemetry, ``clients`` the service
    submissions as the load clients saw them.
    """
    values: dict[str, float] = {}
    notes: list[str] = []
    kids = children_of(spans)

    for stage in STAGES:
        name = f"stages.{stage}"
        values[f"{name}_s"] = outermost_total(spans, name)
        values[f"{name}.calls"] = len(_by_name(spans, name))
    values["stages.model_fallbacks"] = sum(
        1
        for span in _by_name(spans, "stages.model")
        if span.attrs.get("error") == "StateExplosionError"
    )

    gets = _by_name(spans, "store.get")
    values["store.get_s"] = sum(span.duration for span in gets)
    values["store.put_s"] = outermost_total(spans, "store.put")
    values["store.hit_ratio"] = _ratio(
        sum(1 for span in gets if span.attrs.get("hit")), len(gets)
    )
    values["store.writes"] = len(_by_name(spans, "store.put"))

    builds = _by_name(spans, "encoder.build")
    values["encoder.build_s"] = sum(span.duration for span in builds)
    values["encoder.fragments"] = sum(span.attrs.get("fragments", 0) for span in builds)
    values["encoder.reach_rounds"] = sum(span.attrs.get("rounds", 0) for span in builds)

    checks = outermost(spans, "symbolic.check")
    values["symbolic.checks"] = len(checks)
    values["symbolic.check_s"] = sum(span.duration for span in checks)
    values["symbolic.sat_s"] = outermost_total(spans, "symbolic.sat")
    values["symbolic.witness_s"] = sum(
        self_time(span, kids.get(span.sid, [])) for span in checks
    )
    durations = [1000 * span.duration for span in checks]
    values["symbolic.check_p50_ms"] = median(durations)
    pct, value, count = tail(durations)
    values["symbolic.check_tail_ms"] = value
    if count:
        notes.append(f"symbolic.check_tail_ms is p{pct:.1f} of {count} checks")

    kernel = kernel or {}
    values["kernel.peak_nodes"] = kernel.get("peak_nodes", 0)
    values["kernel.cache_hit_rate"] = _ratio(
        kernel.get("cache_hits", 0), kernel.get("cache_lookups", 0)
    )
    values["kernel.gc_runs"] = kernel.get("gc_runs", 0)
    values["kernel.reorders"] = kernel.get("reorders", 0)

    explicit = outermost(spans, "explicit.check")
    values["explicit.checks"] = len(explicit)
    values["explicit.check_s"] = sum(span.duration for span in explicit)
    values["properties.general_s"] = outermost_total(spans, "properties.general")

    # Fleet funnel.  Generation runs inside canonicalization (a variant
    # is generated on its first key request), so canonicalize_s is the
    # key time net of the generation it triggered.
    values["fleet.generate_s"] = outermost_total(spans, "fleet.blueprint")
    generate_in_keys = sum(
        span.duration
        for span in _inside(spans, "fleet.canonical_key", "fleet.blueprint")
    )
    values["fleet.canonicalize_s"] = (
        outermost_total(spans, "fleet.canonical_key") - generate_in_keys
    )
    values["fleet.canonical_parses"] = len(
        _inside(spans, "fleet.canonical_key", "platform.from_source")
    )
    probes = _by_name(spans, "fleet.probe")
    values["fleet.probe_s"] = sum(span.duration for span in probes) + sum(
        span.duration for span in _by_name(spans, "fleet.store")
    )
    values["fleet.probe_hits"] = sum(1 for span in probes if span.attrs.get("hit"))
    values["fleet.check_s"] = outermost_total(spans, "fleet.check_household")
    fleet = fleet or {}
    values["fleet.fresh_checks"] = fleet.get("fresh_checks", 0)
    values["fleet.hit_rate"] = fleet.get("hit_rate", 0.0)
    values["fleet.stream_s"] = sum(
        self_time(span, kids.get(span.sid, []))
        for span in _by_name(spans, "fleet.run_fleet")
    )

    values.update(_service_metrics(spans, clients or []))

    top = [(span.start, span.end) for span in spans if span.parent is None]
    uncovered = 0.0
    for start, end in windows:
        inside = [
            (max(s, start), min(e, end)) for s, e in top if e > start and s < end
        ]
        uncovered += (end - start) - covered(inside)
    values["root.uncovered_s"] = uncovered
    values["root.trace_overhead_s"] = overhead_s
    return values, notes
