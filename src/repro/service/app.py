"""Analysis-as-a-service: the submission/job HTTP API over the pipeline.

Stdlib only (:mod:`http.server` + :mod:`concurrent.futures`): the screen
loop an app store would run.  POST a SmartApp source (or an environment
of sources); a worker executes the staged pipeline through the shared
artifact store; the job record carries the auto-flagging verdict
(:mod:`repro.service.policy`) and the decoded violation witnesses.

Endpoints (all JSON)::

    GET  /v1/health                      liveness + pipeline version
    POST /v1/submissions                 submit sources -> job (idempotent)
    GET  /v1/jobs                        job summaries, newest first, paginated
    GET  /v1/jobs/<id>                   one job's full status
    GET  /v1/jobs/<id>/violations        decoded witnesses, paginated
    GET  /v1/stats                       job counts + per-stage cache counters
    POST /v1/fleet                       run a fleet screen -> telemetry
    GET  /v1/fleet                       latest fleet screening telemetry
    GET  /v1/blocklist                   latest violation blocklist feed

``POST /v1/submissions`` accepts either shape::

    {"source": "...groovy...", "name": "MyApp"}
    {"sources": [{"name": "A", "source": "..."}, ...],
     "backend": "auto", "kernel": "auto"}

``backend`` accepts every pipeline backend (see ``soteria env --help``).

and answers 201 for a new job, 200 for an identical resubmission — same
tenant + same sources + same knobs map to the same
:func:`~repro.service.jobs.submission_key`, so duplicates attach to the
existing record (finished ones return their verdict without re-running
a single pipeline stage; the stage hit/miss counters under
``/v1/stats`` prove it).  ``?wait=<seconds>`` blocks until the job
finishes (or the budget runs out) before responding — handy for
scripts and the CI smoke test.

Hardening for real traffic:

- **Event-driven waits.**  ``?wait=`` parks on a per-job
  :class:`threading.Event` signalled when the record settles — it
  holds no executor state, and a settled job answers without touching
  the runner-future registry (which is pruned at settle time, so a
  long-running service retains nothing per finished job).  Parked
  waiters are bounded by a slot pool (:data:`MAX_CONCURRENT_WAITERS`);
  past it, ``?wait=`` degrades to an immediate status snapshot instead
  of parking another handler thread.
- **Backpressure.**  Admission is bounded: once the unsettled-job
  count reaches ``max_pending``, new work is refused with HTTP 429 and
  a ``Retry-After`` hint (resubmissions of already-settled jobs are
  still served — they schedule nothing).
- **Per-tenant quotas.**  Submissions are namespaced by the
  ``X-Soteria-Tenant`` header; each tenant owns at most
  ``tenant_quota`` unsettled jobs (a greedy tenant saturates its own
  quota, not the service), and ``/v1/stats`` breaks job counts down
  per tenant.
- **Socket timeouts.**  Handler sockets carry a read/write timeout
  (:data:`HANDLER_TIMEOUT_SECONDS`), so a slow-loris client that
  under-sends its declared ``Content-Length`` is dropped (408) instead
  of parking a handler thread forever.
- **Job TTL/GC.**  A ``job_ttl`` reaps settled records — memory and
  disk mirror — lazily and at startup; resubmission after GC re-runs
  cleanly.
- **Single-flight fleet screens.**  ``POST /v1/fleet`` runs under a
  gate: a second concurrent screen is answered 409 (with
  ``Retry-After``) instead of interleaving with the running one.

Workers default to a **process pool** (``soteria serve`` and
:func:`build_server`): a worker receives only picklable job data — the
named sources, the job's :class:`CheckConfig`, and the cache root —
and returns a plain result dict that the *parent* records on the job
store, so no service state ever crosses the process boundary (with a
disk cache root the workers additionally share stage artifacts through
the store's disk layer; the ``/v1/stats`` stage counters always
describe the parent's store).  Platforms without working
multiprocessing fall back to threads, and ``pool="thread"`` forces the
in-process pool (shared pipeline, fastest for tests).
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import re
import threading
from concurrent.futures.process import BrokenProcessPool
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro import __version__
from repro.pipeline.runner import Pipeline, pipeline_for
from repro.pipeline.stages import CheckConfig, source_digest
from repro.pipeline.store import ArtifactStore, resolve_cache_dir
from repro.mc.kernel import aggregate_kernel_stats, record_kernel_stats
from repro.service import policy
from repro.service.jobs import (
    DEFAULT_TENANT,
    JobRecord,
    JobStore,
    job_id_for,
    submission_key,
    violation_dict,
)

#: Upper bound on ``?wait=`` to keep handler threads from parking forever.
MAX_WAIT_SECONDS = 300.0

#: Handler-socket read/write timeout (seconds).  A client that stalls
#: mid-body (slow-loris: declares ``Content-Length: N``, sends N-1
#: bytes) or stops reading its response is dropped after this long
#: instead of parking a handler thread indefinitely.
HANDLER_TIMEOUT_SECONDS = 30.0

#: Waiter-slot pool size: at most this many handler threads may park in
#: an event wait at once.  Past it, ``?wait=`` answers immediately with
#: the job's current status (a degraded wait) — N polite clients must
#: never cost N parked OS threads.
MAX_CONCURRENT_WAITERS = 32

#: Admission bound: unsettled jobs (queued + running) across all
#: tenants.  At the bound, new work is answered 429 + ``Retry-After``.
MAX_PENDING_JOBS = 64

#: Per-tenant admission bound (unsettled jobs owned by one tenant).
DEFAULT_TENANT_QUOTA = 16

#: ``Retry-After`` hint for a rejected concurrent fleet screen (409).
FLEET_RETRY_AFTER_SECONDS = 30

#: Tenant names: short, path/log-safe tokens.
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Upper bound on a POST body.  The service is unauthenticated, so an
#: attacker-controlled Content-Length must never buy a memory balloon;
#: real SmartApp sources are a few KB each.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Upper bound on ``POST /v1/fleet`` household counts.  The screen runs
#: synchronously in the handler thread; dedup makes the cost a function
#: of the *profile pool*, not the count, but the sampling loop itself is
#: O(count) and an unauthenticated request must stay bounded.  Bigger
#: fleets belong on the CLI (``soteria fleet --households 1000000``).
MAX_FLEET_HOUSEHOLDS = 50_000


class SubmissionError(ValueError):
    """A malformed or invalid submission body (rendered as HTTP 400)."""


class QueueFullError(RuntimeError):
    """Admission refused — the service (or the tenant's quota) is
    saturated.  Rendered as HTTP 429 with a ``Retry-After`` hint."""

    def __init__(self, scope: str, retry_after: int):
        self.scope = scope            # "service" | "tenant:<name>"
        self.retry_after = retry_after
        super().__init__(
            f"{scope} queue is full; retry in ~{retry_after}s"
        )


class FleetBusyError(RuntimeError):
    """A fleet screen is already running (single-flight gate).
    Rendered as HTTP 409 with a ``Retry-After`` hint."""

    def __init__(self):
        self.retry_after = FLEET_RETRY_AFTER_SECONDS
        super().__init__("a fleet screen is already running")


def validate_tenant(tenant: str) -> str:
    """Check a tenant name (header value); returns it unchanged."""
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        raise SubmissionError(
            "tenant must be 1-64 chars of [A-Za-z0-9._-] "
            "(X-Soteria-Tenant header)"
        )
    return tenant


def _check_config(body: dict, cls: type = CheckConfig, **extra) -> CheckConfig:
    """The ``backend``/``kernel`` of a request body as a
    validated ``cls`` (a :class:`CheckConfig`, or a subclass built with
    ``extra`` fields)."""
    knobs = {name: body.get(name, "auto") for name in ("backend", "kernel")}
    try:
        return cls(**knobs, **extra)
    except ValueError as exc:
        raise SubmissionError(str(exc)) from None


def _parse_submission(
    body: dict,
) -> tuple[list[tuple[str | None, str]], CheckConfig]:
    """Normalize a submission body to ([(name, source), ...], config)."""
    if not isinstance(body, dict):
        raise SubmissionError("submission body must be a JSON object")
    config = _check_config(body)
    if "sources" in body:
        raw = body["sources"]
        if not isinstance(raw, list) or not raw:
            raise SubmissionError("'sources' must be a non-empty list")
        entries = []
        for item in raw:
            if not isinstance(item, dict) or not isinstance(item.get("source"), str):
                raise SubmissionError(
                    "each sources[] item must be {'source': str, 'name'?: str}"
                )
            entries.append((item.get("name"), item["source"]))
        return entries, config
    if isinstance(body.get("source"), str):
        return [(body.get("name"), body["source"])], config
    raise SubmissionError("submission needs 'source' or 'sources'")


class SoteriaService:
    """The service core: pipeline + job store + worker pool.

    Transport-independent (the HTTP handler and the tests drive the same
    methods).  One pipeline instance — one artifact store, one set of
    counters — serves every worker, so concurrent submissions of
    overlapping sources share stage artifacts.
    """

    def __init__(
        self,
        cache_dir=None,
        state_dir=None,
        jobs: int = 2,
        pool: str = "thread",
        max_pending: int = MAX_PENDING_JOBS,
        tenant_quota: int = DEFAULT_TENANT_QUOTA,
        max_waiters: int = MAX_CONCURRENT_WAITERS,
        job_ttl: float | None = None,
    ):
        self._cache_root = resolve_cache_dir(cache_dir)
        self.pipeline = Pipeline(ArtifactStore(self._cache_root))
        self.jobs = JobStore(state_dir, ttl=job_ttl)
        self._sources: dict[str, list[tuple[str | None, str]]] = {}
        self._futures: dict[str, concurrent.futures.Future] = {}
        # In-flight registry for the event-driven wait path: one Event
        # per unsettled job, signalled (then pruned) at record-settle
        # time.  Doubles as the admission count — len(_events) is the
        # queued+running population.
        self._events: dict[str, threading.Event] = {}
        self._tenant_inflight: dict[str, int] = {}
        self._lock = threading.Lock()
        self.max_pending = max(1, max_pending)
        self.tenant_quota = max(1, tenant_quota)
        # Waiter slots: parked ?wait= handler threads, bounded.
        self._waiter_slots = threading.BoundedSemaphore(max(1, max_waiters))
        self.max_waiters = max(1, max_waiters)
        self._wait_stats = {"waits": 0, "active": 0, "peak": 0, "degraded": 0}
        self._rejected = {"service": 0, "tenant": 0}
        self.workers = max(1, jobs)
        workers = self.workers
        self._process_pool = (
            self._make_process_pool(workers) if pool == "process" else None
        )
        #: The pool flavor actually running ("process" may fall back).
        self.pool_kind = "process" if self._process_pool is not None else "thread"
        # Job-runner threads: each runs one job to completion — inline
        # on the shared pipeline, or parked on a process-pool worker and
        # recording the fields it returns.  Either way the job's event
        # fires only after the record is updated, so waiters never
        # observe a signalled event with a stale record.
        self._executor = concurrent.futures.ThreadPoolExecutor(max_workers=workers)
        # Latest fleet screening, published by fleet_screen() for the
        # GET /v1/fleet and GET /v1/blocklist views.  One slot on
        # purpose: the feed is the *current* blocklist, not a history.
        # _fleet_gate is the single-flight lock: concurrent screens
        # never interleave — the second one is refused (409).
        self._fleet_lock = threading.Lock()
        self._fleet_gate = threading.Lock()
        self._fleet_latest: dict | None = None

    @staticmethod
    def _make_process_pool(workers: int):
        executor = None
        try:
            executor = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
            # Probe eagerly: broken multiprocessing (restricted
            # sandboxes, missing semaphores) should fall back now,
            # not on the first submission.
            executor.submit(int, 0).result(timeout=30)
            return executor
        except Exception:
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
            return None

    # ------------------------------------------------------------------
    def _admit(self, tenant: str) -> None:
        """Admission control, caller holds ``_lock``.  Raises
        :class:`QueueFullError` when the service or the tenant is at
        its unsettled-job bound."""
        pending = len(self._events)
        retry_after = min(60, max(1, math.ceil((pending + 1) / self.workers)))
        if pending >= self.max_pending:
            self._rejected["service"] += 1
            raise QueueFullError("service", retry_after)
        if self._tenant_inflight.get(tenant, 0) >= self.tenant_quota:
            self._rejected["tenant"] += 1
            raise QueueFullError(f"tenant:{tenant}", retry_after)

    def submit(
        self,
        entries: list[tuple[str | None, str]],
        config: CheckConfig = CheckConfig(),
        tenant: str = DEFAULT_TENANT,
    ) -> tuple[JobRecord, bool]:
        """Register one submission; identical ones attach to their job.

        Raises :class:`QueueFullError` when scheduling NEW work would
        exceed the service's ``max_pending`` bound or the tenant's
        quota — resubmissions that attach to an existing (unsettled or
        finished) job schedule nothing and are always served.
        """
        validate_tenant(tenant)
        named = [
            (name if name else f"submission-{index + 1}", source)
            for index, (name, source) in enumerate(entries)
        ]
        digests = [source_digest(name, source) for name, source in named]
        key = submission_key(
            list(zip((name for name, _ in named), digests)), config, tenant=tenant
        )
        with self._lock:
            self.jobs.sweep()  # lazy TTL/GC on the submission path
            record = self.jobs.find(key)
            created = record is None
            schedule = created
            if record is not None:
                in_flight = record.id in self._events
                if record.status == "failed" and not in_flight:
                    # A failed job — crash recovery after a restart, a
                    # transient error — retries on identical
                    # resubmission instead of serving the stale failure
                    # forever.  The retry is new work, so it passes
                    # admission; stale result fields are cleared below
                    # so the record never mixes two attempts.
                    schedule = True
            if schedule:
                self._admit(tenant)
            if created:
                record = JobRecord(
                    id=job_id_for(key),
                    key=key,
                    kind="app" if len(named) == 1 else "environment",
                    apps=[name for name, _ in named],
                    digests=digests,
                    tenant=tenant,
                    config=config,
                )
                record, _ = self.jobs.submit(record)
            elif schedule:
                record = self.jobs.update(
                    record.id,
                    status="queued",
                    error=None,
                    verdict=None,
                    flagged=False,
                    reason=None,
                    violations=[],
                    checked_properties=[],
                    skipped_properties=[],
                    resolved_backend=None,
                    resolved_kernel=None,
                    kernel_stats=None,
                    state_estimate=0,
                )
            if schedule:
                self._sources[record.id] = named
                self._events[record.id] = threading.Event()
                self._tenant_inflight[tenant] = (
                    self._tenant_inflight.get(tenant, 0) + 1
                )
                self._futures[record.id] = self._executor.submit(
                    self._run_job, record.id
                )
        return record, created

    def wait(self, job_id: str, timeout: float | None = None) -> JobRecord | None:
        """Block until a job settles (bounded by ``timeout``); job or None.

        Event-driven: a settled job answers straight from the store —
        no executor state is consulted, let alone retained — and an
        unsettled one parks on its settle event.  Parked waiters are
        bounded by the waiter-slot pool; with every slot taken the wait
        degrades to an immediate snapshot of the record (callers poll),
        so a burst of polite clients can never park a thread each.
        """
        with self._lock:
            event = self._events.get(job_id)
        if event is None:
            # Settled (or never scheduled): the record is the answer.
            return self.jobs.get(job_id)
        if not self._waiter_slots.acquire(blocking=False):
            with self._lock:
                self._wait_stats["degraded"] += 1
            return self.jobs.get(job_id)
        try:
            with self._lock:
                self._wait_stats["waits"] += 1
                self._wait_stats["active"] += 1
                self._wait_stats["peak"] = max(
                    self._wait_stats["peak"], self._wait_stats["active"]
                )
            event.wait(timeout)
        finally:
            with self._lock:
                self._wait_stats["active"] -= 1
            self._waiter_slots.release()
        return self.jobs.get(job_id)

    def stats(self) -> dict:
        self.jobs.sweep()  # lazy TTL/GC on the stats path too
        with self._lock:
            service = {
                "pool": self.pool_kind,
                "workers": self.workers,
                "pending": len(self._events),
                "max_pending": self.max_pending,
                "tenant_quota": self.tenant_quota,
                "rejected": dict(self._rejected),
                "waiters": dict(self._wait_stats) | {"slots": self.max_waiters},
                "job_ttl": self.jobs.ttl,
            }
        return {
            "jobs": self.jobs.counts(),
            "service": service,
            "pipeline": self.pipeline.store.cache_info(),
            # Process-wide BDD-kernel counters over every symbolic check
            # this service process ran (process-pool workers report their
            # kernels' snapshots back through the job fields, so the
            # aggregate covers both pool flavors).
            "kernels": aggregate_kernel_stats(),
        }

    # ------------------------------------------------------------------
    def fleet_screen(self, body: dict) -> dict:
        """Run one fleet screening synchronously; publish + return it.

        The body mirrors the ``soteria fleet`` knobs (all optional)::

            {"households": 10000, "seed": 0, "templates": 50,
             "variants": 3, "corpus_weight": 0.25, "inject_rate": 0.4,
             "jobs": 1, "backend": "auto", "kernel": "auto"}

        Runs in the calling (handler) thread — the screen is bounded by
        :data:`MAX_FLEET_HOUSEHOLDS` and canonical dedup keeps the
        checked set small — and stores the telemetry + blocklist for the
        GET views.  Screens share this service's artifact store, so a
        repeat request over a disk root is served almost entirely from
        the fleet cache tier.

        Screens are **single-flight**: while one runs, a second
        concurrent ``POST /v1/fleet`` raises :class:`FleetBusyError`
        (HTTP 409 + ``Retry-After``) instead of interleaving — two
        screens must never race their writes to the published
        telemetry slot (or thrash the shared store).
        """
        if not isinstance(body, dict):
            raise SubmissionError("fleet body must be a JSON object")
        if not self._fleet_gate.acquire(blocking=False):
            raise FleetBusyError()
        try:
            return self._fleet_screen_locked(body)
        finally:
            self._fleet_gate.release()

    def _fleet_screen_locked(self, body: dict) -> dict:
        """The screen body; caller holds the single-flight gate."""
        from repro.fleet.driver import FleetOptions, run_fleet
        from repro.fleet.profiles import FleetProfile

        def _int(name: str, default: int, low: int, high: int) -> int:
            value = body.get(name, default)
            if not isinstance(value, int) or isinstance(value, bool):
                raise SubmissionError(f"{name!r} must be an integer")
            if not low <= value <= high:
                raise SubmissionError(f"{name!r} must be in [{low}, {high}]")
            return value

        def _rate(name: str, default: float) -> float:
            value = body.get(name, default)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise SubmissionError(f"{name!r} must be a number")
            if not 0.0 <= value <= 1.0:
                raise SubmissionError(f"{name!r} must be in [0.0, 1.0]")
            return float(value)

        options = _check_config(
            body,
            FleetOptions,
            jobs=_int("jobs", 1, 1, 4),
            cache_dir=None if self._cache_root is None else str(self._cache_root),
        )
        households = _int("households", 10_000, 1, MAX_FLEET_HOUSEHOLDS)
        profile = FleetProfile(
            seed=_int("seed", 0, 0, 2**32),
            templates=_int("templates", 50, 1, 500),
            variants=_int("variants", 3, 1, 26),
            corpus_weight=_rate("corpus_weight", 0.25),
            inject_rate=_rate("inject_rate", 0.4),
        )
        result = run_fleet(profile, households, options)
        payload = {
            "telemetry": result.telemetry.to_json(),
            "blocklist": result.blocklist,
            "exit_code": result.exit_code,
        }
        with self._fleet_lock:
            self._fleet_latest = payload
        return payload

    def fleet_latest(self) -> dict | None:
        """The latest published screening payload, or None before any."""
        with self._fleet_lock:
            return self._fleet_latest

    def shutdown(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self._process_pool is not None:
            self._process_pool.shutdown(wait=False, cancel_futures=True)
        # Wake every parked waiter (their jobs will never settle now)
        # and drop the in-flight registries, so shutdown never strands
        # a handler thread in an event wait.
        with self._lock:
            events = list(self._events.values())
            self._events.clear()
            self._futures.clear()
            self._sources.clear()
            self._tenant_inflight.clear()
        for event in events:
            event.set()

    # ------------------------------------------------------------------
    def _in_process_pool(self, fn, *args):
        """``fn(*args)`` on the process pool.

        A pool one of whose workers died is broken for good: every later
        submit raises ``BrokenProcessPool``.  It is swapped for a fresh
        pool, and a job that never reached the broken pool is submitted
        to the fresh one.  The job in flight when the worker died fails;
        an identical resubmission retries it.
        """
        pool = self._process_pool
        try:
            future = pool.submit(fn, *args)
        except BrokenProcessPool:
            pool = self._replace_broken_pool(pool)
            future = pool.submit(fn, *args)
        try:
            return future.result()
        except BrokenProcessPool:
            self._replace_broken_pool(pool)
            raise

    def _replace_broken_pool(self, broken):
        """Swap ``broken`` for a fresh pool unless another runner already
        did; returns the current pool."""
        with self._lock:
            if self._process_pool is broken:
                self._process_pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.workers
                )
            current = self._process_pool
        broken.shutdown(wait=False, cancel_futures=True)
        return current

    def _run_job(self, job_id: str) -> None:
        """Job-runner thread body: analyze one job, record the outcome.

        With a process pool the analysis itself runs in a child that
        receives only picklable data and returns a plain field dict;
        everything touching the job store — including a worker failure,
        a pickling error, or a broken pool — is recorded here, in the
        parent, before this job's future resolves.
        """
        with self._lock:
            named = self._sources.get(job_id)
        record = self.jobs.get(job_id)
        try:
            if record is None or named is None:
                return
            self.jobs.update(job_id, status="running")
            if self._process_pool is not None:
                fields = self._in_process_pool(
                    _analyze_in_worker,
                    named,
                    record.kind,
                    record.config,
                    None if self._cache_root is None else str(self._cache_root),
                )
                # The worker's kernel ran in another process: fold its
                # stats snapshot into this process's aggregate so
                # /v1/stats covers process-pool jobs too.  (Thread-pool
                # jobs record themselves inside the check stage.)
                if fields.get("kernel_stats"):
                    record_kernel_stats(fields["kernel_stats"])
            else:
                fields = _run_analysis(
                    self.pipeline, named, record.kind, record.config
                )
            self.jobs.update(job_id, **fields)
        except Exception as exc:
            self.jobs.update(
                job_id, status="failed", error=f"{type(exc).__name__}: {exc}"
            )
        finally:
            # Settle-time pruning: the record already carries the
            # outcome, so nothing per-job may outlive this block — not
            # the sources, not the runner future, not the event.  The
            # event is signalled AFTER the registries shrink; waiters
            # hold their own reference and re-read the settled record.
            with self._lock:
                self._sources.pop(job_id, None)
                self._futures.pop(job_id, None)
                event = self._events.pop(job_id, None)
                if record is not None:
                    tenant = record.tenant
                    remaining = self._tenant_inflight.get(tenant, 1) - 1
                    if remaining <= 0:
                        self._tenant_inflight.pop(tenant, None)
                    else:
                        self._tenant_inflight[tenant] = remaining
            if event is not None:
                event.set()


def _run_analysis(
    pipeline: Pipeline,
    named: list[tuple[str | None, str]],
    kind: str,
    config: CheckConfig,
) -> dict:
    """Run the staged pipeline for one job; returns the
    :class:`~repro.service.jobs.JobRecord` field updates as a plain
    JSON-ready dict — the process-pool wire format."""
    if kind == "app":
        name, source = named[0]
        analysis = pipeline.app_analysis(source, name=name, config=config)
        violations = analysis.violations
        skipped = list(analysis.skipped_properties)
    else:
        analysis = pipeline.environment_analysis(
            [source for _name, source in named], config=config
        )
        violations = analysis.violations
        skipped = sorted(
            {pid for member in analysis.analyses for pid in member.skipped_properties}
        )
    decision = policy.decide(violations)
    return {
        "status": "done",
        "verdict": decision.verdict,
        "flagged": decision.flagged,
        "reason": decision.reason,
        "violations": [violation_dict(v) for v in violations],
        "checked_properties": list(analysis.checked_properties),
        "skipped_properties": skipped,
        "resolved_backend": analysis.backend,
        "resolved_kernel": analysis.kernel,
        "kernel_stats": analysis.kernel_stats,
        "state_estimate": analysis.state_estimate,
    }


def _analyze_in_worker(
    named: list[tuple[str | None, str]],
    kind: str,
    config: CheckConfig,
    cache_root: str | None,
) -> dict:
    """Process-pool worker body: picklable data in, picklable dict out.

    Receives the named sources, the job kind, the config, and the cache
    root — never the service instance — and analyzes on the worker
    process's shared pipeline over that root, so a worker reuses its own
    artifacts across jobs and, with a disk root, shares them with every
    other process through the store's disk layer.

    Failures travel as plain data too: an exception that does not
    survive the pickle round trip would kill the pool's result reader
    and brick every job after it, so nothing raised here ever crosses
    the process boundary as an exception object.
    """
    try:
        return _run_analysis(pipeline_for(cache_root), named, kind, config)
    except Exception as exc:
        return {"status": "failed", "error": f"{type(exc).__name__}: {exc}"}


# ======================================================================
# HTTP transport
# ======================================================================
class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self) -> None:
        # Socket read/write timeout: a stalled body read (slow-loris) or
        # a client that stops reading its response drops the connection
        # after this long instead of parking the handler thread forever.
        # (StreamRequestHandler.setup applies self.timeout to the
        # connection; BaseHTTPRequestHandler additionally reaps idle
        # keep-alive connections with it.)
        self.timeout = getattr(
            self.server, "handler_timeout", HANDLER_TIMEOUT_SECONDS
        )
        super().setup()

    @property
    def service(self) -> SoteriaService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, *_args) -> None:  # keep the CLI output clean
        pass

    # -- helpers -------------------------------------------------------
    def _json(
        self, status: int, payload: dict, headers: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(payload, indent=2).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _json_safe(
        self, status: int, payload: dict, headers: dict[str, str] | None = None
    ) -> None:
        """Best-effort error response: the socket may already be gone
        (timed out, client hung up) — never let the write raise."""
        try:
            self._json(status, payload, headers)
        except OSError:
            self.close_connection = True

    def _tenant(self) -> str:
        return validate_tenant(
            self.headers.get("X-Soteria-Tenant", DEFAULT_TENANT)
        )

    def _query(self) -> dict[str, str]:
        return {
            key: values[-1]
            for key, values in parse_qs(urlparse(self.path).query).items()
        }

    @staticmethod
    def _page_args(query: dict[str, str]) -> tuple[int, int]:
        try:
            page = max(1, int(query.get("page", "1")))
            per_page = min(500, max(1, int(query.get("per_page", "50"))))
        except ValueError:
            raise SubmissionError("page/per_page must be integers") from None
        return page, per_page

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        path = urlparse(self.path).path.rstrip("/")
        try:
            query = self._query()
            if path == "/v1/health":
                self._json(200, {"status": "ok", "version": __version__})
            elif path == "/v1/stats":
                self._json(200, self.service.stats())
            elif path == "/v1/jobs":
                page, per_page = self._page_args(query)
                self._json(200, self.service.jobs.list(page, per_page))
            elif path.startswith("/v1/jobs/"):
                self._get_job(path[len("/v1/jobs/"):], query)
            elif path == "/v1/fleet":
                latest = self.service.fleet_latest()
                if latest is None:
                    self._json(404, {"error": "no fleet screening has run yet"})
                else:
                    self._json(
                        200,
                        {
                            "telemetry": latest["telemetry"],
                            "exit_code": latest["exit_code"],
                        },
                    )
            elif path == "/v1/blocklist":
                latest = self.service.fleet_latest()
                if latest is None:
                    self._json(404, {"error": "no fleet screening has run yet"})
                else:
                    self._json(200, latest["blocklist"])
            else:
                self._json(404, {"error": f"unknown path {path!r}"})
        except SubmissionError as exc:
            self._json_safe(400, {"error": str(exc)})
        except Exception as exc:  # a handler bug must not kill the server
            self._json_safe(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _get_job(self, rest: str, query: dict[str, str]) -> None:
        job_id, _, sub = rest.partition("/")
        record = self.service.jobs.get(job_id)
        if record is None:
            self._json(404, {"error": f"unknown job {job_id!r}"})
            return
        if not sub:
            self._json(200, record.summary())
        elif sub == "violations":
            page, per_page = self._page_args(query)
            start = (page - 1) * per_page
            window = record.violations[start : start + per_page]
            self._json(
                200,
                {
                    "job": record.id,
                    "verdict": record.verdict,
                    "violations": window,
                    "page": page,
                    "per_page": per_page,
                    "total": len(record.violations),
                },
            )
        else:
            self._json(404, {"error": f"unknown job view {sub!r}"})

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        path = urlparse(self.path).path.rstrip("/")
        if path not in ("/v1/submissions", "/v1/fleet"):
            self._json(404, {"error": f"unknown path {path!r}"})
            return
        try:
            tenant = self._tenant()
            body = self._read_body()
            if body is None:  # refused: _read_body already answered
                return
            if path == "/v1/fleet":
                payload = self.service.fleet_screen(body)
                self._json(200, payload)
                return
            entries, config = _parse_submission(body)
            record, created = self.service.submit(entries, config, tenant=tenant)
            wait = self._query().get("wait")
            if wait is not None:
                try:
                    budget = min(MAX_WAIT_SECONDS, max(0.0, float(wait)))
                except ValueError:
                    raise SubmissionError("wait must be a number of seconds") from None
                record = self.service.wait(record.id, timeout=budget) or record
            payload = record.summary()
            payload["created"] = created
            self._json(201 if created else 200, payload)
        except QueueFullError as exc:
            # Backpressure: bounded admission answers 429 with a
            # Retry-After hint instead of queueing without limit.
            self._json_safe(
                429,
                {"error": str(exc), "scope": exc.scope,
                 "retry_after": exc.retry_after},
                headers={"Retry-After": str(exc.retry_after)},
            )
        except FleetBusyError as exc:
            # Single-flight: a concurrent screen never interleaves.
            self._json_safe(
                409,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": str(exc.retry_after)},
            )
        except SubmissionError as exc:
            self._json_safe(400, {"error": str(exc)})
        except Exception as exc:
            self._json_safe(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _read_body(self) -> dict | None:
        """Read and decode a bounded JSON POST body; None if refused."""
        raw_length = self.headers.get("Content-Length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            self.close_connection = True  # body unread: drop the socket
            raise SubmissionError(
                f"Content-Length must be an integer, got {raw_length!r}"
            ) from None
        if length < 0:
            self.close_connection = True
            raise SubmissionError("Content-Length must be non-negative")
        if length > MAX_BODY_BYTES:
            # Refuse before reading: an attacker-sized body must not
            # be buffered just to be rejected.
            self.close_connection = True
            self._json(
                413,
                {"error": f"submission body exceeds {MAX_BODY_BYTES} bytes"},
            )
            return None
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            # Slow-loris: the client declared Content-Length but
            # stalled mid-body.  The socket timeout (setup()) fired —
            # drop the connection; a 408 is attempted best-effort, and
            # the handler thread is free either way.
            self.close_connection = True
            self._json_safe(
                408,
                {"error": "timed out reading the request body"},
            )
            return None
        try:
            body = json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            raise SubmissionError(f"invalid JSON body: {exc}") from None
        return body


class _Server(ThreadingHTTPServer):
    # A submission burst opens many connections at once; the stock
    # listen backlog (5) would refuse some of them at the TCP layer
    # before admission control ever saw them.
    request_queue_size = 128


def build_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    cache_dir=None,
    state_dir=None,
    jobs: int = 2,
    pool: str = "process",
    max_pending: int = MAX_PENDING_JOBS,
    tenant_quota: int = DEFAULT_TENANT_QUOTA,
    max_waiters: int = MAX_CONCURRENT_WAITERS,
    job_ttl: float | None = None,
    handler_timeout: float = HANDLER_TIMEOUT_SECONDS,
) -> ThreadingHTTPServer:
    """A ready-to-serve HTTP server with its :class:`SoteriaService` attached.

    ``port=0`` binds an ephemeral port (see ``server.server_address``) —
    the tests' way to avoid collisions.  The worker pool defaults to
    ``"process"`` (falling back to threads where multiprocessing is
    unavailable); pass ``pool="thread"`` for the in-process pool.
    """
    server = _Server((host, port), _Handler)
    server.handler_timeout = handler_timeout  # type: ignore[attr-defined]
    server.service = SoteriaService(  # type: ignore[attr-defined]
        cache_dir=cache_dir,
        state_dir=state_dir,
        jobs=jobs,
        pool=pool,
        max_pending=max_pending,
        tenant_quota=tenant_quota,
        max_waiters=max_waiters,
        job_ttl=job_ttl,
    )
    return server


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    cache_dir=None,
    state_dir=None,
    jobs: int = 2,
    pool: str = "process",
    max_pending: int = MAX_PENDING_JOBS,
    tenant_quota: int = DEFAULT_TENANT_QUOTA,
    job_ttl: float | None = None,
) -> None:
    """Run the service until interrupted (the ``soteria serve`` body)."""
    server = build_server(
        host,
        port,
        cache_dir,
        state_dir,
        jobs,
        pool,
        max_pending=max_pending,
        tenant_quota=tenant_quota,
        job_ttl=job_ttl,
    )
    bound_host, bound_port = server.server_address[:2]
    service: SoteriaService = server.service  # type: ignore[attr-defined]
    print(f"soteria service listening on http://{bound_host}:{bound_port}")
    print(f"  worker pool: {service.pool_kind} x{service.workers}, "
          f"max pending {service.max_pending}, "
          f"tenant quota {service.tenant_quota}, "
          f"job ttl {service.jobs.ttl or 'none'}")
    print("  POST /v1/submissions   GET /v1/jobs   GET /v1/stats")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.shutdown()
        server.server_close()
