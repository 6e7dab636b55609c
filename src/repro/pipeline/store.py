"""Content-addressed artifact store for the staged analysis pipeline.

Every stage of the Fig. 3 pipeline (``parse -> ir -> model -> kripke /
encode -> check``) produces one picklable **artifact**, addressed by a
key that digests everything the artifact depends on: the stage name, the
keys of its input artifacts, the stage knobs, and the pipeline version.
Identical inputs always map to the identical key, so

* re-running any entry point over unchanged sources re-uses every stage
  from the store (the warm path never re-parses, re-extracts, or
  re-checks anything);
* changing one knob (a new property catalog, a forced kernel) misses
  only on the stages downstream of the change — e.g. a re-check with a
  different catalog reuses the cached ``model`` artifact and re-runs
  only ``check``;
* a union (environment) check reuses its member apps' ``parse``/``ir``/
  ``model`` artifacts byte for byte.

Two layers share one keyspace:

* an in-process **memory layer** (bounded LRU) holding the live objects —
  repeated analyses in one process share structure without ever
  pickling;
* optionally, a **disk layer** under ``root`` with one file per
  artifact::

      <root>/
        v<PIPELINE_VERSION>/
          parse/<key>.pkl
          ir/<key>.pkl
          model/<key>.pkl
          kripke/<key>.pkl
          union/<key>.pkl
          check/<key>.pkl
          analysis/<key>.pkl    (finished AppAnalysis per corpus app + source)
          sweep/<key>.pkl       (finished EnvironmentAnalysis per app group)
          shape/<key>.pkl       (fleet app shapes)
          fleet/<key>.pkl       (fleet household verdicts)

  The last four stages hold whole results.  ``analysis`` is the batch
  driver's per-app probe (:mod:`repro.corpus.batch`, keyed on app id +
  source digest) and ``sweep`` the sweep engine's per-group probe
  (:mod:`repro.corpus.sweep`, keyed on the sorted member source digests
  + :meth:`~repro.pipeline.stages.CheckConfig.key`): a warm corpus run
  or sweep reads them back without touching any finer stage.  ``shape``
  holds the fleet's per-app canonical shapes
  (:func:`repro.fleet.canon.app_shape`, keyed on the source digest) and
  ``fleet`` its household verdicts (keyed on the canonical household
  form + the screen's ``CheckConfig.key()``).  Every tier counts its
  hits in :meth:`ArtifactStore.counters`, so ``soteria cache`` and
  ``/v1/stats`` see all of them.

The pipeline version is a directory level: bumping
:data:`PIPELINE_VERSION` orphans every older entry at once (lookups only
ever see the current version directory); :meth:`ArtifactStore.prune`
reclaims the disk lazily.  Disk writes are atomic (temp file +
``os.replace``) so concurrent writers — batch worker processes, service
worker threads, parallel CI shards — never expose a torn pickle, and
corrupt or mistyped entries read as misses and are deleted.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from collections.abc import Mapping, Sequence
from pathlib import Path

#: Version of the analysis pipeline baked into every artifact key and
#: cache path.  Bump this whenever a change anywhere in the pipeline
#: (IR, abstraction, model extraction, property catalog, result
#: dataclasses) can alter an artifact, so stale results are never served
#: across code changes.
PIPELINE_VERSION = "11"  # 11: S.2/S.3 records sorted; AG witnesses from BFS rings

#: Environment variable consulted when no cache directory is passed
#: explicitly (CLI ``--cache-dir`` and the ``cache_dir=`` parameters win).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Stage names in pipeline order (display order for ``soteria cache``).
#: ``shape`` and ``fleet`` are the fleet-screening tiers.
STAGE_ORDER = (
    "parse", "ir", "model", "kripke", "union", "check", "analysis", "sweep",
    "shape", "fleet",
)

#: Default bound on live objects held by the memory layer.  Analyses of
#: the 82-app corpus fit with room to spare; unbounded growth would leak
#: in long fuzz campaigns that synthesize thousands of one-shot apps.
DEFAULT_MEMORY_ENTRIES = 4096


def resolve_cache_dir(cache_dir: str | os.PathLike | None) -> Path | None:
    """An explicit cache dir, else the ``REPRO_CACHE_DIR`` env, else None."""
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(CACHE_DIR_ENV)
    if env is not None and env.strip():
        return Path(env.strip())
    return None


def artifact_key(
    stage: str,
    inputs: Sequence[str],
    knobs: Mapping[str, object] | None = None,
    version: str = PIPELINE_VERSION,
) -> str:
    """The content address of one stage artifact.

    Digests the stage name, the input artifact keys **in order** (order
    is meaning-bearing: union members are positional), the knob mapping
    (order-insensitive), and the pipeline version.  Any difference in any
    component yields a different key, so the store never needs
    invalidation logic — superseded artifacts simply stop being
    referenced.
    """
    parts = [f"stage={stage}", f"version={version}"]
    parts.extend(f"input={value}" for value in inputs)
    for name in sorted(knobs or {}):
        parts.append(f"knob:{name}={(knobs or {})[name]!r}")
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


class ArtifactStore:
    """Two-layer (memory LRU + optional disk) store of stage artifacts.

    ``root=None`` is a memory-only store (the default pipeline's mode —
    process-lifetime reuse without touching the filesystem).  All
    methods are thread-safe: the service's worker pool shares one store.
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        version: str = PIPELINE_VERSION,
        max_memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    ):
        self.root = Path(root) if root is not None else None
        self.version = version
        self.max_memory_entries = max_memory_entries
        self._memory: OrderedDict[tuple[str, str], object] = OrderedDict()
        self._counters: dict[str, dict[str, int]] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def version_dir(self) -> Path | None:
        if self.root is None:
            return None
        return self.root / f"v{self.version}"

    def stage_dir(self, stage: str) -> Path | None:
        if self.version_dir is None:
            return None
        return self.version_dir / stage

    def path_for(self, stage: str, key: str) -> Path | None:
        directory = self.stage_dir(stage)
        if directory is None:
            return None
        return directory / f"{key}.pkl"

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------
    def _count(self, stage: str, event: str, amount: int = 1) -> None:
        with self._lock:
            counter = self._counters.setdefault(
                stage,
                {"memory_hits": 0, "disk_hits": 0, "misses": 0, "writes": 0},
            )
            counter[event] += amount

    def get(
        self,
        stage: str,
        key: str,
        expected: type = object,
        memory_only: bool = False,
    ) -> object | None:
        """The artifact for (stage, key), or None (counts a hit/miss).

        ``memory_only`` skips the disk layer both ways — used for
        artifacts keyed on process-local objects (a custom capability
        database or property catalog), whose keys are meaningless to
        other processes.  A corrupt or mistyped disk entry is a miss and
        is deleted so the next write replaces it cleanly.
        """
        slot = (stage, key)
        with self._lock:
            if slot in self._memory:
                value = self._memory[slot]
                if isinstance(value, expected):
                    self._memory.move_to_end(slot)
                    self._count(stage, "memory_hits")
                    return value
        if not memory_only:
            path = self.path_for(stage, key)
            if path is not None:
                value = _read_pickle(path, expected)
                if value is not None:
                    self._remember(slot, value)
                    self._count(stage, "disk_hits")
                    return value
        self._count(stage, "misses")
        return None

    def put(
        self,
        stage: str,
        key: str,
        value: object,
        memory_only: bool = False,
    ) -> None:
        """Insert one artifact (memory always; disk unless ``memory_only``).

        Disk persistence is best-effort: an unwritable cache volume
        (read-only CI restore, full disk) must never fail the analysis
        that produced the artifact; it degrades to future misses.
        """
        self._remember((stage, key), value)
        self._count(stage, "writes")
        if memory_only:
            return
        path = self.path_for(stage, key)
        if path is None:
            return
        try:
            _write_pickle(path, value, prefix=stage)
        except Exception:
            pass

    def contains_disk(self, stage: str, key: str) -> bool:
        """Is the artifact persisted on disk?  (No counter effect.)"""
        path = self.path_for(stage, key)
        return path is not None and path.exists()

    def contains(self, stage: str, key: str) -> bool:
        """Is the artifact in either layer?  (No counter effect — used to
        seed caller-supplied inputs without skewing hit rates.)"""
        with self._lock:
            if (stage, key) in self._memory:
                return True
        return self.contains_disk(stage, key)

    def _remember(self, slot: tuple[str, str], value: object) -> None:
        with self._lock:
            self._memory[slot] = value
            self._memory.move_to_end(slot)
            while len(self._memory) > self.max_memory_entries:
                self._memory.popitem(last=False)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def entries(self, stage: str) -> list[Path]:
        """Disk entries of one stage (current version), sorted by name."""
        directory = self.stage_dir(stage)
        if directory is None or not directory.is_dir():
            return []
        return sorted(p for p in directory.iterdir() if p.suffix == ".pkl")

    def memory_entries(self, stage: str) -> int:
        """Live objects of one stage in the memory layer."""
        with self._lock:
            return sum(1 for slot in self._memory if slot[0] == stage)

    def disk_stages(self) -> list[str]:
        """Stages with at least one disk entry, in pipeline order."""
        if self.version_dir is None or not self.version_dir.is_dir():
            return []
        found = sorted(
            child.name for child in self.version_dir.iterdir() if child.is_dir()
        )
        ordered = [stage for stage in STAGE_ORDER if stage in found]
        ordered.extend(stage for stage in found if stage not in STAGE_ORDER)
        return ordered

    def counters(self) -> dict[str, dict[str, int]]:
        """Per-stage lifetime hit/miss/write counters of this process."""
        with self._lock:
            return {stage: dict(counts) for stage, counts in self._counters.items()}

    def cache_info(self) -> dict:
        """Per-stage stats: disk entries + bytes, process hit/miss counters."""
        stages: dict[str, dict[str, int]] = {}
        for stage in self.disk_stages():
            paths = self.entries(stage)
            stages[stage] = {
                "entries": len(paths),
                "bytes": sum(p.stat().st_size for p in paths if p.exists()),
            }
        for stage, counts in self.counters().items():
            stages.setdefault(stage, {"entries": 0, "bytes": 0}).update(counts)
        for stats in stages.values():
            for event in ("memory_hits", "disk_hits", "misses", "writes"):
                stats.setdefault(event, 0)
            stats["hits"] = stats["memory_hits"] + stats["disk_hits"]
        return {
            "root": None if self.root is None else str(self.root),
            "version": self.version,
            "memory_entries": len(self._memory),
            "stages": stages,
        }

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def clear_memory(self) -> None:
        with self._lock:
            self._memory.clear()
            self._counters.clear()

    def clear_disk(self) -> int:
        """Delete every current-version artifact; returns the count."""
        if self.version_dir is None or not self.version_dir.is_dir():
            return 0
        return _clear_tree(self.version_dir)

    def prune(self) -> int:
        """Delete entries of other pipeline versions; returns the count.

        Lazy garbage collection: stale-version directories are
        unreachable by lookups, this just reclaims the disk.
        """
        if self.root is None or not self.root.is_dir():
            return 0
        removed = 0
        for child in self.root.iterdir():
            if not child.is_dir() or child == self.version_dir:
                continue
            removed += _clear_tree(child)
        return removed


# ----------------------------------------------------------------------
def _clear_tree(directory: Path) -> int:
    """Recursively delete a cache subtree; returns files removed."""
    count = 0
    for entry in list(directory.iterdir()):
        if entry.is_dir():
            count += _clear_tree(entry)
        else:
            try:
                entry.unlink()
                count += 1
            except OSError:
                pass
    try:
        directory.rmdir()
    except OSError:
        pass
    return count


def _read_pickle(path: Path, expected: type) -> object | None:
    """Load one entry; corrupt or mistyped files are deleted misses."""
    try:
        with open(path, "rb") as handle:
            value = pickle.load(handle)
    except FileNotFoundError:
        return None
    except Exception:
        value = None
    if value is None or not isinstance(value, expected):
        try:
            path.unlink()
        except OSError:
            pass
        return None
    return value


def _write_pickle(path: Path, value: object, prefix: str) -> None:
    """Write one entry atomically (temp file + ``os.replace``)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{prefix}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
