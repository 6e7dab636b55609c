"""The pluggable BDD-kernel layer: protocol, shared base, registry.

The symbolic stack (encoder, checkers, pipeline) does not depend on a
concrete BDD manager anymore — it programs against :class:`BddKernel`,
the narrow operation surface the codebase actually uses, and obtains an
implementation through :func:`make_kernel`.  Two kernels ship:

* ``reference`` — :class:`repro.mc.bdd.BDD`, the original dict-of-node
  manager.  Readable, recursive, and the *oracle*: the differential
  suites (``tests/test_backends_differential.py``, the fuzz driver's
  ``--kernel both`` mode) prove every other kernel equivalent to it on
  real workloads, so nothing else has to be trusted.
* ``fast`` — :class:`repro.mc.fastbdd.FastKernel`, flat parallel
  ``array('q')`` columns for (level, low, high), packed-integer keys in
  the open-addressed unique/computed hash tables, and iterative
  (explicit-stack) apply/exists loops.  The default: ``auto``
  resolves to it.

Every kernel honors the same contract the rest of the stack relies on:
node ids are integers with ``FALSE == 0`` / ``TRUE == 1``; reordering is
id-stable (an id keeps denoting the same function across :meth:`sift`);
long-lived ids are registered via :meth:`protect` so the mark-and-sweep
:meth:`collect` knows the roots; collected slots are never reused.

:class:`KernelBase` holds everything that is representation-independent
— variable bookkeeping, GC-root protection, the grouped-sifting search,
the auto-reorder policy, the early-quantification schedule of
:meth:`and_exists_list`, and the :meth:`stats` shape — so a kernel only
implements the node table and the traversals.
"""

from __future__ import annotations

import threading
from typing import Protocol, runtime_checkable

__all__ = [
    "BddKernel",
    "KernelBase",
    "KERNEL_CHOICES",
    "DEFAULT_KERNEL",
    "available_kernels",
    "resolve_kernel",
    "make_kernel",
    "record_kernel_stats",
    "aggregate_kernel_stats",
    "reset_kernel_stats",
]


#: Sentinel level of the two terminals — below every real variable.
TERMINAL_LEVEL = 1 << 30


@runtime_checkable
class BddKernel(Protocol):
    """The operation surface the symbolic stack programs against.

    Structural typing only — implementations do not need to inherit
    anything (though :class:`KernelBase` provides the shared machinery).
    """

    FALSE: int
    TRUE: int

    # Variables / order ------------------------------------------------
    def add_var(self, name: str) -> int: ...
    def var(self, name: str) -> int: ...
    def nvar(self, name: str) -> int: ...
    def var_order(self) -> list[str]: ...

    # Connectives ------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int: ...
    def and_(self, f: int, g: int) -> int: ...
    def or_(self, f: int, g: int) -> int: ...
    def not_(self, f: int) -> int: ...
    def and_not(self, f: int, g: int) -> int: ...
    def xor(self, f: int, g: int) -> int: ...
    def implies(self, f: int, g: int) -> int: ...
    def conj(self, items: list[int]) -> int: ...
    def disj(self, items: list[int]) -> int: ...

    # Quantification / substitution ------------------------------------
    def exists(self, names: list[str], f: int) -> int: ...
    def and_exists_list(self, names: list[str], conjuncts: list[int]) -> int: ...
    def restrict(self, f: int, assignment: dict[str, bool]) -> int: ...
    def support(self, f: int) -> frozenset[str]: ...

    # Evaluation / enumeration -----------------------------------------
    def evaluate(self, f: int, assignment: dict[str, bool]) -> bool: ...
    def count_sat(self, f: int, nvars: int | None = None) -> int: ...
    def any_sat(self, f: int) -> dict[str, bool] | None: ...
    def size(self, f: int) -> int: ...

    # Lifecycle / reordering -------------------------------------------
    def protect(self, f: int) -> int: ...
    def collect(self, roots: tuple[int, ...] | list[int] = ()) -> int: ...
    def live_size(self) -> int: ...
    def allocated_nodes(self) -> int: ...
    def sift(
        self,
        groups: list[list[str]] | None = None,
        roots: tuple[int, ...] | list[int] = (),
        max_groups: int | None = None,
        max_growth: float = 2.0,
    ) -> None: ...
    def set_auto_reorder(
        self, groups: list[list[str]] | None, threshold: int
    ) -> None: ...
    def disable_auto_reorder(self) -> None: ...
    def maybe_reorder(self, extra_roots: tuple[int, ...] | list[int] = ()) -> bool: ...

    # Observability ----------------------------------------------------
    def stats(self) -> dict: ...


class KernelBase:
    """Representation-independent half of a BDD kernel.

    Subclasses provide the node table and the traversals: ``_mk``,
    ``ite``, ``and_``/``or_``/``not_``, ``_exists``, ``_and_exists``,
    ``_support_levels``, ``restrict``,
    ``evaluate``/``count_sat``/``any_sat``/``size``, ``collect``,
    ``swap_adjacent``, ``allocated_nodes``, and the
    ``_drop_op_caches`` hook (invoked when memo tables may hold dead or
    stale entries).
    """

    FALSE = 0
    TRUE = 1

    #: Registry name; subclasses override.
    KERNEL_NAME = "base"

    def __init__(self) -> None:
        self._var_names: list[str] = []
        self._var_ids: dict[str, int] = {}
        #: Live nodes per level (maintained by _mk / collect / swaps).
        self._level_nodes: dict[int, set[int]] = {}
        #: GC roots: every id passed to protect() (never released).
        self._protected: set[int] = set()
        #: Memoized support sets (level frozensets per node id); dropped
        #: on reorder (levels shift) and collection (ids die).
        self._support_cache: dict[int, frozenset[int]] = {}
        #: Dynamic-reordering configuration (see set_auto_reorder).
        self._reorder_groups: list[list[str]] | None = None
        self._reorder_threshold: int | None = None
        #: Table size below which maybe_reorder won't even try a GC —
        #: bumped to 2x the live size after every collection so a table
        #: hovering at the threshold can't trigger a full mark-and-sweep
        #: on each call (the sweep must free at least half the table to
        #: pay for itself).
        self._gc_watermark: int = 0
        #: Number of completed sift passes (observability for tests/benchmarks).
        self.reorder_count = 0
        #: GC observability (collect() maintains these).
        self._gc_runs = 0
        self._nodes_collected = 0
        #: Computed-table instrumentation; the fast kernel maintains the
        #: lookup/hit pair per traversal, the reference kernel leaves it
        #: at zero (its recursive hot path is kept uninstrumented so the
        #: benchmark baseline is not slowed down).
        self._cache_lookups = 0
        self._cache_hits = 0

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    def add_var(self, name: str) -> int:
        """Register a variable (order = registration order); returns the
        BDD node for the positive literal."""
        if name in self._var_ids:
            return self.var(name)
        self._var_ids[name] = len(self._var_names)
        self._var_names.append(name)
        return self.var(name)

    def var(self, name: str) -> int:
        level = self._var_ids[name]
        return self._mk(level, self.FALSE, self.TRUE)

    def nvar(self, name: str) -> int:
        level = self._var_ids[name]
        return self._mk(level, self.TRUE, self.FALSE)

    def var_order(self) -> list[str]:
        """Variable names from the top of the order to the bottom."""
        return list(self._var_names)

    # ------------------------------------------------------------------
    # Derived connectives
    # ------------------------------------------------------------------
    def and_not(self, f: int, g: int) -> int:
        """``f & ~g`` — the set difference of the fixpoint loops.

        Derived here; the fast kernel fuses it so the complement of a
        large set is never materialized just to be intersected away.
        """
        return self.and_(f, self.not_(g))

    def xor(self, f: int, g: int) -> int:
        return self.ite(f, self.not_(g), g)

    def implies(self, f: int, g: int) -> int:
        return self.ite(f, g, self.TRUE)

    def conj(self, items: list[int]) -> int:
        result = self.TRUE
        for item in items:
            result = self.and_(result, item)
        return result

    def disj(self, items: list[int]) -> int:
        result = self.FALSE
        for item in items:
            result = self.or_(result, item)
        return result

    # ------------------------------------------------------------------
    # Quantification wrappers (schedules are representation-independent)
    # ------------------------------------------------------------------
    def exists(self, names: list[str], f: int) -> int:
        levels = sorted(self._var_ids[name] for name in names)
        return self._exists(frozenset(levels), f, {})

    def and_exists_list(self, names: list[str], conjuncts: list[int]) -> int:
        """``exists names . conjunct_1 & ... & conjunct_k`` with an early
        quantification schedule.

        The partitioned-transition-relation workhorse: a fragment of the
        relation is kept as a *list* of conjuncts (the frontier set, the
        guard atoms, the write cube), and each quantified variable is
        existentially eliminated as soon as no later conjunct mentions it —
        so the intermediate products never carry variables that are about
        to disappear.  Conjuncts are scheduled greedily: at every step the
        one releasing the most quantified variables is merged next.
        """
        levels = frozenset(
            self._var_ids[name] for name in names if name in self._var_ids
        )
        items = list(conjuncts)
        if not items:
            return self.TRUE
        supports = [self._support_levels(f) for f in items]
        remaining = list(range(len(items)))
        acc = self.TRUE
        live: set[int] = set()   # quantified levels already inside ``acc``
        while remaining:
            best = None
            best_key: tuple[int, int, int] | None = None
            for idx in remaining:
                others: set[int] = set()
                for j in remaining:
                    if j != idx:
                        others |= supports[j]
                releasable = (live | (supports[idx] & levels)) - others
                # Most released vars first; among ties prefer the smaller
                # conjunct support, then input order (determinism).
                key = (-len(releasable), len(supports[idx]), idx)
                if best_key is None or key < best_key:
                    best, best_key = idx, key
            assert best is not None
            others = set()
            for j in remaining:
                if j != best:
                    others |= supports[j]
            releasable = (live | (supports[best] & levels)) - others
            if releasable:
                acc = self._and_exists(frozenset(releasable), acc, items[best], {})
            else:
                acc = self.and_(acc, items[best])
            live = (live | (supports[best] & levels)) - releasable
            remaining.remove(best)
            if acc == self.FALSE:
                return self.FALSE
        return acc

    def support(self, f: int) -> frozenset[str]:
        """The set of variables ``f`` depends on."""
        return frozenset(
            self._var_names[level] for level in self._support_levels(f)
        )

    # ------------------------------------------------------------------
    # GC roots
    # ------------------------------------------------------------------
    def protect(self, f: int) -> int:
        """Register ``f`` as a GC root; returns ``f``."""
        self._protected.add(f)
        return f

    def live_size(self) -> int:
        """Number of non-terminal nodes currently in the node table."""
        return sum(len(nodes) for nodes in self._level_nodes.values())

    # ------------------------------------------------------------------
    # Dynamic variable reordering (Rudell-style sifting, in place)
    # ------------------------------------------------------------------
    def _swap_blocks(self, start: int, size_a: int, size_b: int) -> None:
        """Exchange the adjacent variable blocks [start, start+size_a) and
        [start+size_a, start+size_a+size_b), preserving the internal order
        of both blocks (a sequence of adjacent swaps)."""
        for moved in range(size_a):
            position = start + size_a - 1 - moved
            for step in range(size_b):
                self.swap_adjacent(position + step)

    def sift(
        self,
        groups: list[list[str]] | None = None,
        roots: tuple[int, ...] | list[int] = (),
        max_groups: int | None = None,
        max_growth: float = 2.0,
    ) -> None:
        """Sifting-based dynamic reordering over variable *groups*.

        Each group (default: every variable on its own) is moved as one
        block through every position of the order; the position minimizing
        the node table is kept.  A group keeps its variables adjacent and
        in their relative order no matter where sifting parks it.

        ``roots`` (plus every :meth:`protect`-ed id) feed the collector:
        garbage is swept before sifting and between groups so the size
        metric tracks live nodes.  A direction of travel is abandoned once
        the table grows past ``max_growth`` times the best size seen.
        """
        if len(self._var_names) < 2:
            return
        if groups is None:
            blocks = [[name] for name in self._var_names]
        else:
            blocks = [list(group) for group in groups]
            covered = [name for block in blocks for name in block]
            if sorted(covered) != sorted(self._var_names):
                raise ValueError("groups must partition the variable set")
            for block in blocks:
                levels = sorted(self._var_ids[name] for name in block)
                if levels != list(range(levels[0], levels[0] + len(block))):
                    raise ValueError(f"group {block} is not contiguous in the order")
        self.collect(roots)

        def population(block: list[str]) -> int:
            return sum(
                len(self._level_nodes.get(self._var_ids[name], ()))
                for name in block
            )

        by_population = sorted(blocks, key=population, reverse=True)
        if max_groups is not None:
            by_population = by_population[:max_groups]
        for block in by_population:
            self._sift_block(blocks, block, max_growth)
            self.collect(roots)
        self._drop_op_caches()
        self.reorder_count += 1

    def _sift_block(
        self, blocks: list[list[str]], block: list[str], max_growth: float
    ) -> None:
        """Move one block through every position; settle at the best."""
        layout = sorted(blocks, key=lambda b: self._var_ids[b[0]])
        position = layout.index(block)

        def swap_with_next(index: int) -> None:
            start = sum(len(layout[i]) for i in range(index))
            self._swap_blocks(start, len(layout[index]), len(layout[index + 1]))
            layout[index], layout[index + 1] = layout[index + 1], layout[index]

        best_size = self.live_size()
        best_position = position
        limit = int(best_size * max_growth) + 1

        current = position
        while current < len(layout) - 1:    # travel down
            swap_with_next(current)
            current += 1
            size = self.live_size()
            if size < best_size:
                best_size, best_position = size, current
                limit = int(best_size * max_growth) + 1
            if size > limit:
                break
        while current > 0:                  # travel back up, past the start
            swap_with_next(current - 1)
            current -= 1
            size = self.live_size()
            if size < best_size:
                best_size, best_position = size, current
                limit = int(best_size * max_growth) + 1
            if size > limit and current <= best_position:
                break
        while current < best_position:      # settle on the best position
            swap_with_next(current)
            current += 1
        while current > best_position:
            swap_with_next(current - 1)
            current -= 1

    # ------------------------------------------------------------------
    # Automatic reordering trigger
    # ------------------------------------------------------------------
    def set_auto_reorder(
        self, groups: list[list[str]] | None, threshold: int
    ) -> None:
        """Arm :meth:`maybe_reorder`: once the live node table outgrows
        ``threshold``, the next call sifts ``groups`` and doubles the
        threshold (CUDD's classic growth policy)."""
        self._reorder_groups = groups if groups is not None else None
        self._reorder_threshold = threshold
        self._gc_watermark = 0

    def disable_auto_reorder(self) -> None:
        """Disarm :meth:`maybe_reorder` (e.g. once the owner of the
        manager can no longer enumerate every live root)."""
        self._reorder_threshold = None

    def maybe_reorder(self, extra_roots: tuple[int, ...] | list[int] = ()) -> bool:
        """Sift if the node table outgrew the armed threshold.

        Only call at *safe points*: no BDD operation may be mid-recursion,
        and every live id must be protected or passed via ``extra_roots``.
        Garbage is collected first — if dead intermediates alone explain
        the growth, collection is the whole fix and the (far more
        expensive) sift is skipped; sifting runs only when *live* nodes
        outgrew the threshold, i.e. the order itself is the problem.
        Returns True when a reorder ran.
        """
        if self._reorder_threshold is None:
            return False
        size = self.live_size()
        if size <= self._reorder_threshold or size <= self._gc_watermark:
            return False
        self.collect(tuple(extra_roots))
        live = self.live_size()
        self._gc_watermark = 2 * live
        if live <= self._reorder_threshold:
            return False
        self.sift(self._reorder_groups, roots=tuple(extra_roots))
        live = self.live_size()
        self._gc_watermark = 2 * live
        self._reorder_threshold = max(self._reorder_threshold, 2 * live)
        return True

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _unique_entries(self) -> int:
        raise NotImplementedError

    def _computed_entries(self) -> int:
        raise NotImplementedError

    def _drop_op_caches(self) -> None:
        """Drop every memoized operation table (entries may reference
        dead ids after a collection, or be rebuilt after a sift)."""
        raise NotImplementedError

    def stats(self) -> dict:
        """A JSON-ready snapshot of the kernel's observable state.

        ``hit_rate`` is None on kernels that do not instrument their
        computed-table lookups (the reference kernel keeps its hot path
        pristine so benchmark baselines stay honest).
        """
        lookups = self._cache_lookups
        return {
            "kernel": self.KERNEL_NAME,
            "vars": len(self._var_names),
            "live_nodes": self.live_size(),
            "peak_nodes": self.allocated_nodes(),
            "unique_entries": self._unique_entries(),
            "computed_entries": self._computed_entries(),
            "cache_lookups": lookups,
            "cache_hits": self._cache_hits,
            "hit_rate": (self._cache_hits / lookups) if lookups else None,
            "gc_runs": self._gc_runs,
            "nodes_collected": self._nodes_collected,
            "reorders": self.reorder_count,
        }


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

#: Knob spellings accepted everywhere a ``kernel=`` knob is threaded
#: (CLI flags, pipeline knobs, service submissions).
KERNEL_CHOICES = ("auto", "reference", "fast")

#: What ``auto`` resolves to.
DEFAULT_KERNEL = "fast"


def available_kernels() -> tuple[str, ...]:
    """Concrete kernel names (no ``auto``)."""
    return KERNEL_CHOICES[1:]


def resolve_kernel(kernel: str = "auto") -> str:
    """Validate a kernel knob and resolve ``auto`` to the default."""
    if kernel == "auto":
        return DEFAULT_KERNEL
    if kernel in KERNEL_CHOICES:
        return kernel
    raise ValueError(
        f"unknown kernel {kernel!r}: expected one of {', '.join(KERNEL_CHOICES)}"
    )


def make_kernel(kernel: str | BddKernel = "auto") -> BddKernel:
    """Instantiate a kernel by knob name; pass instances through.

    Accepting an instance lets callers (tests, the encoder's owner)
    inject a pre-configured manager while everything else names kernels
    by knob string.
    """
    if not isinstance(kernel, str):
        return kernel
    if resolve_kernel(kernel) == "reference":
        from repro.mc.bdd import BDD

        return BDD()
    from repro.mc.fastbdd import FastKernel

    return FastKernel()


# ----------------------------------------------------------------------
# Process-wide stats accumulator (service /v1/stats, CLI summaries)
# ----------------------------------------------------------------------

_stats_lock = threading.Lock()
_stats_runs: dict[str, dict] = {}


def record_kernel_stats(stats: dict | None) -> None:
    """Fold one finished run's :meth:`BddKernel.stats` snapshot into the
    process-wide aggregate (keyed by kernel name)."""
    if not stats or "kernel" not in stats:
        return
    name = stats["kernel"]
    with _stats_lock:
        agg = _stats_runs.setdefault(
            name,
            {
                "kernel": name,
                "runs": 0,
                "peak_nodes": 0,
                "max_live_nodes": 0,
                "cache_lookups": 0,
                "cache_hits": 0,
                "gc_runs": 0,
                "nodes_collected": 0,
                "reorders": 0,
            },
        )
        agg["runs"] += 1
        agg["peak_nodes"] = max(agg["peak_nodes"], stats.get("peak_nodes") or 0)
        agg["max_live_nodes"] = max(
            agg["max_live_nodes"], stats.get("live_nodes") or 0
        )
        for key in ("cache_lookups", "cache_hits", "gc_runs",
                    "nodes_collected", "reorders"):
            agg[key] += stats.get(key) or 0


def aggregate_kernel_stats() -> dict[str, dict]:
    """Per-kernel aggregates of every run recorded in this process, with
    a derived ``hit_rate`` (None when the kernel is uninstrumented)."""
    with _stats_lock:
        snapshot = {name: dict(agg) for name, agg in _stats_runs.items()}
    for agg in snapshot.values():
        lookups = agg["cache_lookups"]
        agg["hit_rate"] = (agg["cache_hits"] / lookups) if lookups else None
    return snapshot


def reset_kernel_stats() -> None:
    with _stats_lock:
        _stats_runs.clear()
