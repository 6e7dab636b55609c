"""Durable job records with idempotent, digest-keyed submission.

A *job* is one screening request: a single SmartApp source or an
environment of sources.  Its identity is the
:func:`submission_key` — a SHA-256 over the ordered member (name,
source-digest) pairs, the requested
:class:`~repro.pipeline.stages.CheckConfig`, and
:data:`~repro.pipeline.store.PIPELINE_VERSION` — so resubmitting
identical sources returns the *same* job record instead of scheduling
duplicate work, exactly like the artifact store returning a cached
stage result.

:class:`JobStore` keeps records in memory (thread-safe) and, when given
a ``state_dir``, mirrors every update to ``<state_dir>/jobs/<id>.json``
and reloads them on startup — a service restart keeps finished verdicts
and dedupes against jobs submitted before the restart.

Submissions are namespaced by *tenant* (the ``X-Soteria-Tenant``
header): the tenant is part of the :func:`submission_key`, so two
tenants submitting identical sources own separate job records, and the
per-tenant breakdown in :meth:`JobStore.counts` feeds the service's
quota enforcement and ``/v1/stats`` view.

A ``ttl`` (seconds) bounds the store's growth: settled records older
than the TTL are garbage-collected by :meth:`JobStore.sweep` — the
service calls it lazily on submission and stats traffic — and expired
mirror files are pruned (and deleted) at startup instead of being
reloaded.  In-flight records never expire; a resubmission after GC
creates a fresh job and re-runs cleanly.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.pipeline.stages import CheckConfig
from repro.pipeline.store import PIPELINE_VERSION
from repro.properties.catalog import Violation

#: Job lifecycle states, in order.
STATUSES = ("queued", "running", "done", "failed")

#: Statuses of settled jobs — the only ones TTL/GC may reap.
SETTLED = ("done", "failed")

#: The tenant submissions belong to when no ``X-Soteria-Tenant``
#: header names one.
DEFAULT_TENANT = "default"


def submission_key(
    entries: list[tuple[str, str]],
    config: CheckConfig = CheckConfig(),
    version: str = PIPELINE_VERSION,
    tenant: str = DEFAULT_TENANT,
) -> str:
    """Identity of one submission: the owning tenant, ordered
    (name, source digest) pairs, the check config, and the pipeline
    version.  Order is meaning-bearing for environments (it is for the
    union model's app list), a knob change is a different job — forcing
    a backend (or a BDD kernel) must never be served the auto path's
    record — and the tenant namespaces the job space, so one tenant
    never reads (or retries) another tenant's record."""
    parts = [f"version={version}", f"tenant={tenant}", f"config={config.key()}"]
    parts.extend(f"member={name}\0{digest}" for name, digest in entries)
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def violation_dict(violation: Violation) -> dict:
    """One violation as JSON-ready data, witness trace decoded."""
    return {
        "property_id": violation.property_id,
        "apps": list(violation.apps),
        "description": violation.description,
        "formula": violation.formula,
        "devices": list(violation.devices),
        "via_reflection": violation.via_reflection,
        "counterexample": list(violation.counterexample or ()),
    }


@dataclass
class JobRecord:
    """One submission's durable state (JSON-serializable through
    :func:`dataclasses.asdict`; ``config`` nests as an object)."""

    id: str
    key: str
    kind: str                      # "app" | "environment"
    apps: list[str]                # member names, submission order
    digests: list[str]             # member source digests, same order
    tenant: str = DEFAULT_TENANT   # owning namespace (quota + stats unit)
    config: CheckConfig = CheckConfig()  # the requested check
    status: str = "queued"
    verdict: str | None = None     # policy.APPROVED | policy.NEEDS_REVIEW
    flagged: bool = False
    reason: str | None = None
    violations: list[dict] = field(default_factory=list)
    checked_properties: list[str] = field(default_factory=list)
    skipped_properties: list[str] = field(default_factory=list)
    resolved_backend: str | None = None
    resolved_kernel: str | None = None
    #: The BDD kernel's final stats() snapshot (symbolic jobs only).
    kernel_stats: dict | None = None
    state_estimate: int = 0
    error: str | None = None
    created_at: float = field(default_factory=time.time)
    updated_at: float = field(default_factory=time.time)

    def summary(self) -> dict:
        """The job-listing view: everything but the violation payloads."""
        data = asdict(self)
        data["violations"] = len(self.violations)
        return data


def job_id_for(key: str) -> str:
    """Deterministic short job id from the submission key."""
    return f"job-{key[:16]}"


def _mirror_updated_at(path: Path, data: object) -> float:
    """When a mirror file's record last changed: its raw ``updated_at``,
    or the file's mtime when the JSON does not parse or lacks one (a
    file that vanished meanwhile never counts as expired)."""
    stamp = data.get("updated_at") if isinstance(data, dict) else None
    if isinstance(stamp, (int, float)):
        return stamp
    try:
        return path.stat().st_mtime
    except OSError:
        return float("inf")


class JobStore:
    """Thread-safe job registry, optionally mirrored to JSON on disk.

    ``ttl`` (seconds, ``None`` = keep forever) bounds growth: settled
    records whose last update is older than the TTL are reaped by
    :meth:`sweep` (memory *and* disk mirror), and expired mirror files
    are deleted — not reloaded — at startup.
    """

    def __init__(
        self,
        state_dir: str | os.PathLike | None = None,
        ttl: float | None = None,
    ):
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive seconds, got {ttl!r}")
        self._lock = threading.RLock()
        self._by_id: dict[str, JobRecord] = {}
        self._by_key: dict[str, str] = {}
        self._order: list[str] = []
        self.ttl = ttl
        #: Total records reaped by TTL/GC (startup prune + lazy sweeps).
        self.expired_total = 0
        self.state_dir = Path(state_dir) if state_dir is not None else None
        if self.state_dir is not None:
            self._load()

    # ------------------------------------------------------------------
    def submit(self, record: JobRecord) -> tuple[JobRecord, bool]:
        """Register a job; identical submissions return the existing one.

        Returns ``(record, created)`` — ``created`` is False when the
        submission key matched an existing job (any status: a queued or
        running duplicate attaches to the in-flight job, a finished one
        returns the stored verdict without re-running anything, and a
        failed one is re-scheduled by the service layer —
        :meth:`repro.service.app.SoteriaService.submit`).
        """
        with self._lock:
            existing_id = self._by_key.get(record.key)
            if existing_id is not None:
                return self._by_id[existing_id], False
            self._by_id[record.id] = record
            self._by_key[record.key] = record.id
            self._order.append(record.id)
            self._persist(record)
            return record, True

    def get(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self._by_id.get(job_id)

    def find(self, key: str) -> JobRecord | None:
        """The record owning one submission key, or None."""
        with self._lock:
            job_id = self._by_key.get(key)
            return None if job_id is None else self._by_id.get(job_id)

    def update(self, job_id: str, **fields) -> JobRecord:
        """Apply field updates to one job and persist the new state."""
        with self._lock:
            record = self._by_id[job_id]
            for name, value in fields.items():
                if not hasattr(record, name):
                    raise AttributeError(f"JobRecord has no field {name!r}")
                setattr(record, name, value)
            record.updated_at = time.time()
            self._persist(record)
            return record

    def list(self, page: int = 1, per_page: int = 50) -> dict:
        """Newest-first job summaries, paginated."""
        with self._lock:
            ordered = [self._by_id[jid] for jid in reversed(self._order)]
        total = len(ordered)
        start = (page - 1) * per_page
        window = ordered[start : start + per_page]
        return {
            "jobs": [record.summary() for record in window],
            "page": page,
            "per_page": per_page,
            "total": total,
        }

    def counts(self) -> dict:
        """Job totals by status, plus a per-tenant breakdown under
        ``"tenants"`` (the ``/v1/stats`` quota view)."""
        with self._lock:
            records = list(self._by_id.values())
        by_status: dict = {status: 0 for status in STATUSES}
        tenants: dict[str, dict[str, int]] = {}
        for record in records:
            by_status[record.status] = by_status.get(record.status, 0) + 1
            per = tenants.setdefault(
                record.tenant, {status: 0 for status in STATUSES} | {"total": 0}
            )
            per[record.status] = per.get(record.status, 0) + 1
            per["total"] += 1
        by_status["total"] = len(records)
        by_status["expired"] = self.expired_total
        by_status["tenants"] = {name: tenants[name] for name in sorted(tenants)}
        return by_status

    # ------------------------------------------------------------------
    # TTL / garbage collection
    # ------------------------------------------------------------------
    def remove(self, job_id: str) -> bool:
        """Forget one record — memory and disk mirror; True if it existed."""
        with self._lock:
            record = self._by_id.pop(job_id, None)
            if record is None:
                return False
            if self._by_key.get(record.key) == job_id:
                del self._by_key[record.key]
            try:
                self._order.remove(job_id)
            except ValueError:
                pass
            directory = self._jobs_dir
            if directory is not None:
                try:
                    (directory / f"{job_id}.json").unlink(missing_ok=True)
                except OSError:
                    pass  # the mirror is best-effort, like _persist
            return True

    def sweep(self, now: float | None = None) -> list[str]:
        """Reap settled records older than the TTL; the reaped job ids.

        In-flight records (``queued``/``running``) are never reaped — a
        live worker owns them.  A no-op without a TTL, so callers can
        invoke it unconditionally on hot paths (lazy GC).
        """
        if self.ttl is None:
            return []
        if now is None:
            now = time.time()
        cutoff = now - self.ttl
        with self._lock:
            expired = [
                record.id
                for record in self._by_id.values()
                if record.status in SETTLED and record.updated_at < cutoff
            ]
            for job_id in expired:
                self.remove(job_id)
            self.expired_total += len(expired)
        return expired

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    @property
    def _jobs_dir(self) -> Path | None:
        if self.state_dir is None:
            return None
        return self.state_dir / "jobs"

    def _persist(self, record: JobRecord) -> None:
        """Mirror one record to disk, atomically and best-effort."""
        directory = self._jobs_dir
        if directory is None:
            return
        try:
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"{record.id}.json"
            tmp = directory / f".{record.id}.tmp"
            tmp.write_text(json.dumps(asdict(record), indent=2))
            os.replace(tmp, path)
        except Exception:
            pass  # an unwritable state volume degrades to in-memory only

    def _load(self) -> None:
        directory = self._jobs_dir
        if directory is None or not directory.is_dir():
            return
        records = []
        cutoff = None if self.ttl is None else time.time() - self.ttl
        for path in sorted(directory.glob("*.json")):
            try:
                data = json.loads(path.read_text())
            except Exception:
                data = None
            if cutoff is not None and _mirror_updated_at(path, data) < cutoff:
                # Startup prune: an expired mirror file is deleted, not
                # reloaded — the durable store shrinks on disk.  Expiry
                # is decided before the record is rebuilt, so a torn
                # file or one in a shape this version cannot load is
                # reaped too.  (Stale queued/running records from the
                # dead process expire as well; no worker owns them.)
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass
                self.expired_total += 1
                continue
            try:
                data["config"] = CheckConfig(**data["config"])
                record = JobRecord(**data)
            except Exception:
                continue  # torn/stale file: skip, do not crash startup
            if record.status in ("queued", "running"):
                # The process died before/while analyzing; no worker owns
                # the record anymore, so surface it as failed —
                # :meth:`repro.service.app.SoteriaService.submit`
                # re-schedules failed jobs on identical resubmission.
                record.error = (
                    "service restarted during analysis"
                    if record.status == "running"
                    else "service restarted before analysis started"
                )
                record.status = "failed"
            records.append(record)
        records.sort(key=lambda record: record.created_at)
        for record in records:
            self._by_id[record.id] = record
            self._by_key.setdefault(record.key, record.id)
            self._order.append(record.id)
