"""The reference ROBDD kernel: a from-scratch dict-of-node manager.

Implements the classic Bryant construction: a unique table guaranteeing
canonicity, ``ite`` as the universal connective with memoisation,
existential quantification, restriction, and satisfying-assignment
counting.  This was the substrate for the symbolic CTL checker
(:mod:`repro.mc.symbolic`) — the reproduction's analogue of NuSMV's BDD
engine — and is now the *reference kernel* of the pluggable-kernel layer
(:mod:`repro.mc.kernel`): the readable recursive implementation every
other kernel is differentially tested against.  The production default
is the array-backed :class:`repro.mc.fastbdd.FastKernel`.

Nodes are integers: 0 (false terminal), 1 (true terminal), and >= 2 for
internal nodes stored as (level, low, high) triples.  Variable order is the
order of :meth:`BDD.add_var` calls — *initially*: the order can later be
improved in place by sifting-based dynamic reordering (:meth:`sift`,
:meth:`maybe_reorder`).  Reordering is id-stable: every node keeps its
integer id and keeps denoting the same boolean function, so ids held by
callers (relations, reachable sets, frontier lists, formula caches) stay
valid across reorders.  Long-lived ids must be registered with
:meth:`protect` so the mark-and-sweep collector that runs around sifting
(:meth:`collect`) knows the live roots.

The variable bookkeeping, protect/collect policy, grouped sifting search,
auto-reorder trigger, and the early-quantification schedule live in
:class:`repro.mc.kernel.KernelBase`; this module implements only the
node table and the recursive traversals.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mc.kernel import TERMINAL_LEVEL, KernelBase


@dataclass(frozen=True)
class _Node:
    level: int
    low: int
    high: int


#: Sentinel level of the two terminals — below every real variable.
_TERMINAL_LEVEL = TERMINAL_LEVEL


class BDD(KernelBase):
    """A BDD manager: all nodes live in one shared, reduced graph."""

    KERNEL_NAME = "reference"

    def __init__(self) -> None:
        super().__init__()
        self._nodes: list[_Node | None] = [
            _Node(level=_TERMINAL_LEVEL, low=0, high=0),   # 0: false terminal
            _Node(level=_TERMINAL_LEVEL, low=1, high=1),   # 1: true terminal
        ]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}

    # ------------------------------------------------------------------
    # Core construction
    # ------------------------------------------------------------------
    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node_id = self._unique.get(key)
        if node_id is None:
            node_id = len(self._nodes)
            self._nodes.append(_Node(level=level, low=low, high=high))
            self._unique[key] = node_id
            self._level_nodes.setdefault(level, set()).add(node_id)
        return node_id

    def ite(self, f: int, g: int, h: int) -> int:
        """if-then-else: f ? g : h — the universal boolean connective."""
        if f == self.TRUE:
            return g
        if f == self.FALSE:
            return h
        if g == h:
            return g
        if g == self.TRUE and h == self.FALSE:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        level = min(self._nodes[f].level, self._nodes[g].level, self._nodes[h].level)
        f0, f1 = self._cofactors(f, level)
        g0, g1 = self._cofactors(g, level)
        h0, h1 = self._cofactors(h, level)
        low = self.ite(f0, g0, h0)
        high = self.ite(f1, g1, h1)
        result = self._mk(level, low, high)
        self._ite_cache[key] = result
        return result

    def _cofactors(self, node_id: int, level: int) -> tuple[int, int]:
        node = self._nodes[node_id]
        if node.level != level:
            return node_id, node_id
        return node.low, node.high

    # ------------------------------------------------------------------
    # Boolean connectives
    # ------------------------------------------------------------------
    def and_(self, f: int, g: int) -> int:
        return self.ite(f, g, self.FALSE)

    def or_(self, f: int, g: int) -> int:
        return self.ite(f, self.TRUE, g)

    def not_(self, f: int) -> int:
        return self.ite(f, self.FALSE, self.TRUE)

    # ------------------------------------------------------------------
    # Quantification and substitution
    # ------------------------------------------------------------------
    def _exists(self, levels: frozenset[int], f: int, cache: dict[int, int]) -> int:
        if f in (self.TRUE, self.FALSE):
            return f
        cached = cache.get(f)
        if cached is not None:
            return cached
        node = self._nodes[f]
        low = self._exists(levels, node.low, cache)
        high = self._exists(levels, node.high, cache)
        if node.level in levels:
            result = self.or_(low, high)
        else:
            result = self._mk(node.level, low, high)
        cache[f] = result
        return result

    def _and_exists(
        self,
        levels: frozenset[int],
        f: int,
        g: int,
        cache: dict[tuple[int, int], int],
    ) -> int:
        if f == self.FALSE or g == self.FALSE:
            return self.FALSE
        if f == self.TRUE and g == self.TRUE:
            return self.TRUE
        if f > g:
            f, g = g, f  # and/exists are symmetric: canonicalize the key
        key = (f, g)
        cached = cache.get(key)
        if cached is not None:
            return cached
        level = min(self._nodes[f].level, self._nodes[g].level)
        f0, f1 = self._cofactors(f, level)
        g0, g1 = self._cofactors(g, level)
        low = self._and_exists(levels, f0, g0, cache)
        if level in levels:
            if low == self.TRUE:
                result = self.TRUE  # short-circuit: the OR is saturated
            else:
                high = self._and_exists(levels, f1, g1, cache)
                result = self.or_(low, high)
        else:
            high = self._and_exists(levels, f1, g1, cache)
            result = self._mk(level, low, high)
        cache[key] = result
        return result

    def _support_levels(self, f: int) -> frozenset[int]:
        if f in (self.TRUE, self.FALSE):
            return frozenset()
        cached = self._support_cache.get(f)
        if cached is not None:
            return cached
        node = self._nodes[f]
        result = (
            self._support_levels(node.low)
            | self._support_levels(node.high)
            | {node.level}
        )
        self._support_cache[f] = result
        return result

    def restrict(self, f: int, assignment: dict[str, bool]) -> int:
        levels = {self._var_ids[n]: v for n, v in assignment.items()}
        return self._restrict(f, levels, {})

    def _restrict(
        self, f: int, levels: dict[int, bool], cache: dict[int, int]
    ) -> int:
        if f in (self.TRUE, self.FALSE):
            return f
        cached = cache.get(f)
        if cached is not None:
            return cached
        node = self._nodes[f]
        if node.level in levels:
            branch = node.high if levels[node.level] else node.low
            result = self._restrict(branch, levels, cache)
        else:
            low = self._restrict(node.low, levels, cache)
            high = self._restrict(node.high, levels, cache)
            result = self._mk(node.level, low, high)
        cache[f] = result
        return result

    # ------------------------------------------------------------------
    # Evaluation / enumeration
    # ------------------------------------------------------------------
    def evaluate(self, f: int, assignment: dict[str, bool]) -> bool:
        node_id = f
        while node_id not in (self.TRUE, self.FALSE):
            node = self._nodes[node_id]
            name = self._var_names[node.level]
            node_id = node.high if assignment.get(name, False) else node.low
        return node_id == self.TRUE

    def count_sat(self, f: int, nvars: int | None = None) -> int:
        """Number of satisfying assignments over ``nvars`` variables."""
        total_vars = nvars if nvars is not None else len(self._var_names)
        cache: dict[int, int] = {}

        def walk(node_id: int) -> tuple[int, int]:
            """Returns (count, level) where count assumes the node's level."""
            if node_id == self.FALSE:
                return 0, total_vars
            if node_id == self.TRUE:
                return 1, total_vars
            node = self._nodes[node_id]
            if node_id in cache:
                return cache[node_id], node.level
            low_count, low_level = walk(node.low)
            high_count, high_level = walk(node.high)
            count = low_count * (1 << (low_level - node.level - 1)) + high_count * (
                1 << (high_level - node.level - 1)
            )
            cache[node_id] = count
            return count, node.level

        count, level = walk(f)
        return count * (1 << level)

    def any_sat(self, f: int) -> dict[str, bool] | None:
        """One satisfying assignment, or None."""
        if f == self.FALSE:
            return None
        assignment: dict[str, bool] = {}
        node_id = f
        while node_id != self.TRUE:
            node = self._nodes[node_id]
            name = self._var_names[node.level]
            if node.high != self.FALSE:
                assignment[name] = True
                node_id = node.high
            else:
                assignment[name] = False
                node_id = node.low
        return assignment

    def size(self, f: int) -> int:
        """Number of distinct nodes in the BDD rooted at ``f``."""
        seen: set[int] = set()
        stack = [f]
        while stack:
            node_id = stack.pop()
            if node_id in seen or node_id in (self.TRUE, self.FALSE):
                continue
            seen.add(node_id)
            node = self._nodes[node_id]
            stack.append(node.low)
            stack.append(node.high)
        return len(seen) + 2

    # ------------------------------------------------------------------
    # Garbage collection (roots must be registered or passed explicitly)
    # ------------------------------------------------------------------
    def allocated_nodes(self) -> int:
        """Total nodes ever allocated (the peak table size: slots are
        never reused, so this is monotone — benchmarks report it as the
        peak node count)."""
        return len(self._nodes)

    def collect(self, roots: tuple[int, ...] | list[int] = ()) -> int:
        """Mark-and-sweep from ``roots`` + every protected id.

        Dead nodes leave the unique table and the level index and their
        slots are cleared (ids are never reused, so a dangling reference
        fails loudly instead of silently aliasing another function).
        Returns the number of collected nodes.  All memo caches are
        dropped: they may reference dead ids.
        """
        marked: set[int] = set()
        stack = [*roots, *self._protected]
        while stack:
            node_id = stack.pop()
            if node_id in (self.TRUE, self.FALSE) or node_id in marked:
                continue
            marked.add(node_id)
            node = self._nodes[node_id]
            stack.append(node.low)
            stack.append(node.high)
        collected = 0
        for node_id in range(2, len(self._nodes)):
            node = self._nodes[node_id]
            if node is None or node_id in marked:
                continue
            del self._unique[(node.level, node.low, node.high)]
            self._level_nodes[node.level].discard(node_id)
            self._nodes[node_id] = None
            collected += 1
        self._ite_cache.clear()
        self._support_cache.clear()
        self._gc_runs += 1
        self._nodes_collected += collected
        return collected

    # ------------------------------------------------------------------
    # Reordering primitive (the search strategy lives in KernelBase)
    # ------------------------------------------------------------------
    def swap_adjacent(self, level: int) -> None:
        """Exchange the variables at ``level`` and ``level + 1`` in place.

        Every node id keeps denoting the same boolean function: nodes at
        the two levels are re-expressed over the swapped order (the classic
        variable-swap), nodes elsewhere are untouched.  Canonicity is
        preserved — the unique-table entries of both levels are rebuilt.
        """
        if not 0 <= level < len(self._var_names) - 1:
            raise ValueError(f"cannot swap level {level} of {len(self._var_names)}")
        lower_level = level + 1
        upper = list(self._level_nodes.get(level, ()))
        lower = list(self._level_nodes.get(lower_level, ()))

        # Cofactor quadruples of the interacting upper nodes, computed
        # against the *original* structure before anything moves.
        quads: dict[int, tuple[int, int, int, int]] = {}
        for node_id in upper:
            node = self._nodes[node_id]
            low_node, high_node = self._nodes[node.low], self._nodes[node.high]
            touches_low = low_node.level == lower_level
            touches_high = high_node.level == lower_level
            if not (touches_low or touches_high):
                continue
            f00, f01 = (
                (low_node.low, low_node.high) if touches_low else (node.low, node.low)
            )
            f10, f11 = (
                (high_node.low, high_node.high)
                if touches_high
                else (node.high, node.high)
            )
            quads[node_id] = (f00, f01, f10, f11)

        for node_id in upper:
            node = self._nodes[node_id]
            del self._unique[(level, node.low, node.high)]
        for node_id in lower:
            node = self._nodes[node_id]
            del self._unique[(lower_level, node.low, node.high)]
        upper_set = self._level_nodes.setdefault(level, set())
        lower_set = self._level_nodes.setdefault(lower_level, set())

        # Lower nodes float up: their variable now sits at ``level`` and
        # their children (at deeper levels) are untouched.
        for node_id in lower:
            node = self._nodes[node_id]
            self._nodes[node_id] = _Node(level, node.low, node.high)
            self._unique[(level, node.low, node.high)] = node_id
            lower_set.discard(node_id)
            upper_set.add(node_id)
        # Solitary upper nodes sink unchanged below the swapped variable.
        for node_id in upper:
            if node_id in quads:
                continue
            node = self._nodes[node_id]
            self._nodes[node_id] = _Node(lower_level, node.low, node.high)
            self._unique[(lower_level, node.low, node.high)] = node_id
            upper_set.discard(node_id)
            lower_set.add(node_id)
        # Interacting nodes are rebuilt with the two variables exchanged:
        # f = u ? f1 : f0  becomes  v ? (u ? f11 : f01) : (u ? f10 : f00).
        # Both cofactors genuinely depend on u (an interacting node has a
        # reduced child over v), so the node stays at the upper level.
        for node_id, (f00, f01, f10, f11) in quads.items():
            low = self._mk(lower_level, f00, f10)
            high = self._mk(lower_level, f01, f11)
            self._nodes[node_id] = _Node(level, low, high)
            self._unique[(level, low, high)] = node_id
            # stays in upper_set

        name_a, name_b = self._var_names[level], self._var_names[lower_level]
        self._var_names[level], self._var_names[lower_level] = name_b, name_a
        self._var_ids[name_a], self._var_ids[name_b] = lower_level, level
        self._support_cache.clear()

    # ------------------------------------------------------------------
    # Observability hooks
    # ------------------------------------------------------------------
    def _unique_entries(self) -> int:
        return len(self._unique)

    def _computed_entries(self) -> int:
        return len(self._ite_cache)

    def _drop_op_caches(self) -> None:
        self._ite_cache.clear()


#: Registry alias: the dict-of-node manager is the *reference kernel* of
#: the pluggable-kernel layer — unchanged semantics, the differential
#: oracle every other kernel is proven against.
ReferenceKernel = BDD
