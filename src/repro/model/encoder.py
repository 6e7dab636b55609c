"""Symbolic union encoding: per-app state models -> BDDs, no product.

:func:`build_union_model` materializes Algorithm 2's Cartesian product
before anything is checked, which caps multi-app analysis at the state
budget (the 13-app MalIoT interaction cluster alone unions to ~82 944
states).  This module is the non-materializing path: it compiles the
*symbolic rules* of each app straight into a BDD transition relation over
shared attribute variables, so the product only ever exists implicitly.

Variable blocks
---------------
Every attribute of the deduplicated union attribute set (apps sharing a
device handle share the attribute, hence the *same* variable block) gets a
block of ``ceil(log2 |domain|)`` boolean current-state variables encoding
the index of its current value.  One extra block encodes the *incoming
fragment*: which symbolic transition produced the state.  That block
carries the transition-derived atomic propositions of the explicit Kripke
construction (``ev:``, ``act:``, ``actsrc:``, ``cmd:``, ``app:``,
``sent-notification``, ...), so CTL formulas written against
:mod:`repro.model.kripke`'s vocabulary check unchanged.  (The
state-dependent residual-guard ``src:`` labels are the one deliberate
omission: no property references them, and dropping them is exactly the
bisimulation quotient that keeps every CTL verdict identical.)

Fragments
---------
A *fragment* is one symbolic transition: an app's path summary fired for
one concrete event value.  Its guard is decided per referenced attribute
value (never per product state), its action writes are state-independent
labels, and every untouched attribute keeps its value.  The union
transition relation is the disjunction of all fragments — asynchronous
interleaving, exactly the explicit expansion's semantics — made total by
self-loops on deadlocked states.  Reachability is a symbolic least
fixpoint from the initial-state BDD; the breadth-first frontiers are kept
for counterexample witness extraction in :mod:`repro.mc.symbolic`.

The partitioned relation
------------------------
The relation is never fused into one BDD.  It is kept as a disjunctive
partition: one cluster per app/event fragment, stored as its firing
conjuncts plus the cube of written values, with no frame constraints and
no next-state variables at all.  Images and preimages are computed
fragment by fragment through
:meth:`repro.mc.kernel.KernelBase.and_exists_list`, which existentially
quantifies each variable out as soon as no later conjunct of the
schedule mentions it, then re-stamps the written values over the same
current-state variables; untouched attributes simply *stay in place*
(the frame is implicit), so no BDD ever mentions more variables than one
fragment touches.  This is Burch et al.'s partitioned transition
relation specialised to asynchronous interleaving.  A fused relation
with ``x = y`` frames is slower on every measured union (2-13-app paper
groups, fleet households, the 82-app corpus union, which it never
finishes encoding) and returns the same sets, so it is not kept.

Sifting-based dynamic variable reordering
(:meth:`repro.mc.kernel.KernelBase.sift`) is armed on node-count growth
during encoding and reachability.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.mc.kernel import BddKernel, make_kernel
from repro.model.extractor import (
    _decide_atom,
    _moved_attribute,
    _numeric_write_label,
    _resolve_operand,
)
from repro.model.kripke import KripkeState, attr_prop, transition_props
from repro.model.statemodel import StateModel, Transition
from repro.platform.events import Event


#: Live-node-count trigger for the first automatic sift during encoding
#: and reachability (doubles after every reorder, CUDD-style).
REORDER_NODE_THRESHOLD = 60_000


@dataclass(frozen=True)
class Fragment:
    """One symbolic transition of the union relation.

    ``fid`` is the fragment's code in the incoming-fragment block (0 is
    reserved for "no incoming transition", the initial states).
    """

    fid: int
    app: str
    event: Event                  # concretized (value filled in)
    moved_index: int | None
    new_value: str | None
    writes: tuple[tuple[int, str], ...]   # (attribute index, new label)
    props: tuple[str, ...]        # transition-derived propositions
    via_reflection: bool = False


# ----------------------------------------------------------------------
# Fragment enumeration and firing semantics.
# ----------------------------------------------------------------------
def enumerate_fragments(model: StateModel):
    """All fragments of ``model``'s union rules, with their summaries.

    Mirrors ``extractor._expand_summary`` minus the per-state loop:
    everything here is state-independent.
    """
    descriptors = []
    fid = 0
    for app, summary in model.rule_origins:
        entry = summary.entry
        event = entry.event
        moved = _moved_attribute(model, event)
        if moved is None:
            if not summary.actions:
                continue  # no-op timer path, skipped by the expansion
            candidates: list[tuple[int | None, str | None]] = [(None, None)]
        else:
            index, attr = moved
            if event.value is not None:
                candidates = [(index, event.value)]
            else:
                candidates = [(index, value) for value in attr.domain]
        for index, new_value in candidates:
            if index is not None and new_value is not None:
                if new_value not in model.attributes[index].domain:
                    # The explicit path would carry this transition to a
                    # state outside the domain product; no corpus app
                    # subscribes to an out-of-domain value (asserted by
                    # the differential suite), so the fragment is moot.
                    continue
            fid += 1
            descriptors.append(
                (_make_fragment(model, fid, app, summary, index, new_value), summary)
            )
    return descriptors


def _make_fragment(model: StateModel, fid, app, summary, index, new_value):
    event = summary.entry.event
    concrete_event = (
        Event(event.kind, event.device, event.attribute, new_value)
        if index is not None
        else event
    )
    writes: dict[int, str] = {}
    if index is not None and new_value is not None:
        writes[index] = new_value
    for action in summary.actions:
        if action.attribute is None:
            continue
        target = model.attribute_index(action.device, action.attribute)
        if target is None:
            continue
        attr = model.attributes[target]
        if attr.is_numeric:
            label = _numeric_write_label(model, attr, action.value)
            if label is not None:
                writes[target] = label
        elif isinstance(action.value, str) and action.value in attr.domain:
            writes[target] = action.value
    witness = Transition(
        source=(),
        target=(),
        event=concrete_event,
        condition=(),   # residual guards are state-dependent; their
                        # src: labels are the documented omission
        actions=summary.actions,
        app=app,
        via_reflection=summary.uses_reflection,
        sends=summary.sends,
    )
    props = tuple(
        p for p in transition_props(witness) if not p.startswith("src:")
    )
    return Fragment(
        fid=fid,
        app=app,
        event=concrete_event,
        moved_index=index,
        new_value=new_value,
        writes=tuple(sorted(writes.items())),
        props=props,
        via_reflection=summary.uses_reflection,
    )


def atom_guard_table(model: StateModel, atom, moved_index, new_value, event):
    """The value combinations under which ``atom`` is not definitely
    false — the state-independent analogue of the expansion's per-state
    guard decision.  Undecidable combinations stay permitted (they are
    residual labels, not restrictions), exactly like
    :func:`extractor._decide_condition`.

    Returns ``True`` (no referenced attributes, atom not definitely
    false), ``False`` (atom definitely false), or a ``(refs, combos)``
    pair: the referenced attribute indices and the allowed value-label
    tuples over them, in domain-product order.
    """
    from repro.analysis.values import DeviceRead

    refs: list[int] = []
    for operand in (atom.lhs, atom.rhs):
        if isinstance(operand, DeviceRead):
            index = model.attribute_index(operand.device, operand.attribute)
            if index is None:
                continue
            if index == moved_index and new_value is not None:
                continue  # reads of the event device see the new value
            if index not in refs:
                refs.append(index)
    template = [attr.domain[0] if attr.domain else "" for attr in model.attributes]
    if not refs:
        state = tuple(template)
        lhs = _resolve_operand(model, atom.lhs, state, moved_index, new_value, event)
        rhs = _resolve_operand(model, atom.rhs, state, moved_index, new_value, event)
        return _decide_atom(lhs, atom.op, rhs) is not False
    allowed: list[tuple[str, ...]] = []
    domains = [model.attributes[index].domain for index in refs]
    for combo in itertools.product(*domains):
        for index, value in zip(refs, combo):
            template[index] = value
        state = tuple(template)
        lhs = _resolve_operand(model, atom.lhs, state, moved_index, new_value, event)
        rhs = _resolve_operand(model, atom.rhs, state, moved_index, new_value, event)
        if _decide_atom(lhs, atom.op, rhs) is False:
            continue
        allowed.append(combo)
    return tuple(refs), allowed


def fire_requirements(model: StateModel, written, fragment: Fragment, summary):
    """The state-side firing requirements of one fragment, or ``None``
    when it can never fire.

    The single definition of the firing semantics:

    * the fire-on-change condition — device events fire on attribute
      *changes*, except that app-written values re-stimulate
      co-installed subscribers (multi-app cascades, Sec. 4.4);
    * every guard atom's not-definitely-false region.

    Each requirement is ``("change", index, label)`` (attribute ``index``
    must *not* currently hold ``label``) or ``("atom", refs, combos)``
    (the referenced attributes must jointly hold one of the allowed
    label combinations).
    """
    index, new_value = fragment.moved_index, fragment.new_value
    requirements: list[tuple] = []
    if index is not None and new_value is not None:
        attr = model.attributes[index]
        if (
            not attr.is_numeric
            and (attr.device, attr.attribute, new_value) not in written
        ):
            requirements.append(("change", index, new_value))
    for atom in summary.condition:
        table = atom_guard_table(model, atom, index, new_value, summary.entry.event)
        if table is False:
            return None
        if table is True:
            continue
        refs, combos = table
        if not combos:
            return None
        requirements.append(("atom", refs, combos))
    return requirements


@dataclass(frozen=True)
class _Partition:
    """One cluster of the disjunctive transition partition.

    The fragment moves every state satisfying ``fire`` to the state that
    holds its written values and its fragment id, every other attribute
    unchanged.  No frame is ever built: images keep the untouched
    variables in place and only quantify ``quant_x`` (the written blocks
    plus the incoming-fragment block), then stamp ``write_x``.
    """

    fragment: Fragment
    #: Firing conjuncts (change condition + guard atoms), kept
    #: unconjoined so the early-quantification schedule can interleave
    #: them with the frontier set.
    fire: tuple[int, ...]
    #: The conjunction of ``fire`` (used for preimages and deadlock).
    fire_all: int
    #: Written values + fragment id, as a cube.
    write_x: int
    #: Variables whose post-value is fixed by the fragment.
    quant_x: tuple[str, ...]


class SymbolicUnionModel:
    """A union state model compiled to BDDs, product never enumerated.

    Built from a :func:`repro.model.union.build_union_skeleton` result:
    the skeleton's ``rule_origins`` carry every app's renamed rules, its
    ``attributes`` are the shared variable blocks.  Exposes the
    disjunctive transition partition with its :meth:`post`/:meth:`pre`
    images, the initial-state set, the reachable set with its BFS
    frontiers, and a proposition map — everything
    :class:`repro.mc.symbolic.SymbolicModelChecker` needs.
    """

    def __init__(
        self,
        model: StateModel,
        reorder_threshold: int | None = REORDER_NODE_THRESHOLD,
        written: frozenset[tuple[str, str, str]] | None = None,
        kernel: str | BddKernel = "auto",
    ) -> None:
        # A materialized model works too (its states list is simply
        # ignored); the point is that a skeleton suffices.
        #
        # ``written`` overrides the app-written value set that exempts
        # events from the fire-on-change rule.  The default derives it
        # from the rules (multi-app cascade semantics, Sec. 4.4); the
        # single-app symbolic path passes ``frozenset()`` to match the
        # explicit single-app expansion, which never self-stimulates.
        # ``kernel`` names a BDD implementation from the pluggable-kernel
        # registry (``auto`` resolves to the fast array-backed one), or is
        # a pre-built manager instance injected by the caller.  Everything
        # below programs against the :class:`~repro.mc.kernel.BddKernel`
        # protocol only.
        self.model = model
        self.bdd: BddKernel = make_kernel(kernel)
        self.kernel = getattr(self.bdd, "KERNEL_NAME", type(self.bdd).__name__)

        from repro.model.union import union_written_values

        self._written = (
            union_written_values(model.rule_origins) if written is None else written
        )
        descriptors = enumerate_fragments(model)
        self.fragments: dict[int, Fragment] = {f.fid: f for f, _s in descriptors}

        # ---- variable allocation: the fragment block on top, then the
        # attribute blocks.  Top placement matters: reachable sets and
        # frontiers are unions of per-fragment-labelled slices, and with
        # the label on top such a union is a prefix tree over the fragment
        # id whose size is the *sum* of the per-fragment slices.  With the
        # label at the bottom it is the attributes -> fragment-set map,
        # which explodes combinatorially on wide unions (measured: a
        # 14-app frontier grows 128k nodes bottom-labelled vs ~2k
        # top-labelled).
        nfrag = len(self.fragments)
        self._frag_bits = max(1, nfrag.bit_length())
        self._frag_x: list[str] = []
        for bit in range(self._frag_bits):
            self.bdd.add_var(f"fb{bit}x")
            self._frag_x.append(f"fb{bit}x")
        self._block_bits: list[int] = [
            max(1, (len(attr.domain) - 1).bit_length()) for attr in model.attributes
        ]
        self._xbits: list[list[str]] = []
        for index, bits in enumerate(self._block_bits):
            xs = []
            for bit in range(bits):
                xs.append(f"a{index}b{bit}x")
                self.bdd.add_var(xs[-1])
            self._xbits.append(xs)
        self.xvars = [v for xs in self._xbits for v in xs] + self._frag_x

        # ---- dynamic reordering: sift whenever the node table outgrows
        # the threshold.  Armed only while this constructor runs: every
        # live id below is protected as it is stored, which is exactly the
        # window where the GC root set is fully enumerable.
        if reorder_threshold is not None:
            self.bdd.set_auto_reorder(self.reorder_groups(), reorder_threshold)

        # ---- state-space pieces.
        protect = self.bdd.protect
        self.valid = protect(
            self.bdd.conj(
                [self._block_valid(index) for index in range(len(model.attributes))]
            )
        )
        self.initial = protect(self.bdd.and_(self.valid, self._frag_cube(0)))
        #: States without an enabled fragment: the self-loop targets that
        #: make the relation total, kept implicit.
        self._dead: int
        self.partitions = self._build_partitions(descriptors)
        self.reachable, self.frontiers = self._compute_reachable()
        protect(self.reachable)
        # Last safe point: everything live is protected, so give the
        # manager one more reorder opportunity before the CTL phase runs
        # on a frozen order (the checker cannot enumerate its transient
        # fixpoint roots, so reordering is disarmed beyond this line).
        self.bdd.maybe_reorder()
        self.bdd.disable_auto_reorder()
        self.prop_map = self._build_prop_map()
        for prop in self.prop_map.values():
            protect(prop)

    def reorder_groups(self) -> list[list[str]]:
        """The sifting groups: every state variable on its own, attribute
        blocks first, then the incoming-fragment block."""
        return [[name] for name in self.xvars]

    # ------------------------------------------------------------------
    # Encoding primitives
    # ------------------------------------------------------------------
    def _code_cube(self, names: list[str], code: int) -> int:
        terms = []
        for bit, name in enumerate(names):
            terms.append(
                self.bdd.var(name) if (code >> bit) & 1 else self.bdd.nvar(name)
            )
        return self.bdd.conj(terms)

    def value_cube(self, index: int, label: str) -> int:
        """BDD for "attribute ``index`` holds ``label``"."""
        code = self.model.attributes[index].domain.index(label)
        return self._code_cube(self._xbits[index], code)

    def _frag_cube(self, fid: int) -> int:
        return self._code_cube(self._frag_x, fid)

    def _block_valid(self, index: int) -> int:
        domain = self.model.attributes[index].domain
        size = max(1, len(domain))
        if size == 1 << self._block_bits[index]:
            return self.bdd.TRUE
        return self.bdd.disj(
            [self._code_cube(self._xbits[index], code) for code in range(size)]
        )

    # ------------------------------------------------------------------
    # The disjunctive partition
    # ------------------------------------------------------------------
    def _fire_conjuncts(self, fragment: Fragment, summary) -> list[int] | None:
        """The firing conjuncts of one fragment, or None when it can never
        fire: the :func:`fire_requirements` semantics rendered as BDDs,
        kept unconjoined for the early-quantification schedule."""
        bdd = self.bdd
        requirements = fire_requirements(self.model, self._written, fragment, summary)
        if requirements is None:
            return None
        conjuncts: list[int] = []
        for requirement in requirements:
            if requirement[0] == "change":
                _, index, label = requirement
                conjuncts.append(bdd.not_(self.value_cube(index, label)))
            else:
                _, refs, combos = requirement
                conjuncts.append(
                    bdd.disj(
                        [
                            bdd.conj(
                                [
                                    self.value_cube(index, value)
                                    for index, value in zip(refs, combo)
                                ]
                            )
                            for combo in combos
                        ]
                    )
                )
        return conjuncts

    def _build_partitions(self, descriptors) -> list[_Partition]:
        bdd = self.bdd
        partitions: list[_Partition] = []
        fire_terms: list[int] = []
        for fragment, summary in descriptors:
            conjuncts = self._fire_conjuncts(fragment, summary)
            if conjuncts is None:
                continue
            fire_all = bdd.conj(conjuncts)
            if fire_all == bdd.FALSE:
                continue  # contradictory guard atoms: the fragment never fires
            written = dict(fragment.writes)
            write_terms = [
                self.value_cube(attr_index, value)
                for attr_index, value in sorted(written.items())
            ]
            write_terms.append(self._frag_cube(fragment.fid))
            write_x = bdd.conj(write_terms)
            quant_x = tuple(
                name
                for attr_index in sorted(written)
                for name in self._xbits[attr_index]
            ) + tuple(self._frag_x)
            for piece in conjuncts:
                bdd.protect(piece)
            bdd.protect(fire_all)
            bdd.protect(write_x)
            partitions.append(
                _Partition(
                    fragment=fragment,
                    fire=tuple(conjuncts),
                    fire_all=fire_all,
                    write_x=write_x,
                    quant_x=quant_x,
                )
            )
            fire_terms.append(fire_all)
            bdd.maybe_reorder()
        # Deadlocked states self-loop (identity frame, incoming label
        # kept): with the frame implicit, the loop is just "stay put".
        enabled = bdd.disj(fire_terms)
        self._dead = bdd.protect(bdd.and_(self.valid, bdd.not_(enabled)))
        return partitions

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    def post(self, states: int) -> int:
        """Symbolic image: successors of ``states`` under the relation.

        Fragment by fragment: quantify the written blocks out of
        ``states & fire`` on the early schedule (untouched blocks stay in
        place, the frame is implicit), stamp the written values, and
        disjoin; deadlocked states contribute themselves.
        """
        bdd = self.bdd
        terms = []
        for part in self.partitions:
            image = bdd.and_exists_list(list(part.quant_x), [states, *part.fire])
            if image == bdd.FALSE:
                continue
            terms.append(bdd.and_(part.write_x, image))
        terms.append(bdd.and_(states, self._dead))
        return bdd.disj(terms)

    def pre(self, states: int) -> int:
        """Symbolic preimage of ``states`` under the relation.

        For each fragment, cofactor ``states`` on the written values and
        the fragment id (quantifying those blocks out), then conjoin the
        firing condition; deadlocked states in ``states`` are their own
        predecessors.
        """
        bdd = self.bdd
        terms = []
        for part in self.partitions:
            hit = bdd.and_exists_list(list(part.quant_x), [states, part.write_x])
            if hit == bdd.FALSE:
                continue
            terms.append(bdd.and_(part.fire_all, hit))
        terms.append(bdd.and_(states, self._dead))
        return bdd.disj(terms)

    def _compute_reachable(self) -> tuple[int, list[int]]:
        """Least fixpoint of ``post`` from the initial states.

        Returns (reachable set, BFS frontiers): ``frontiers[i]`` holds the
        states first reached in exactly ``i`` steps — the onion rings that
        counterexample extraction walks backwards for shortest paths.
        Between iterations the manager may sift (node-count trigger); the
        frontiers are protected as they are found, so a mid-fixpoint
        reorder never invalidates what witness decoding walks later.
        """
        frontier = self.initial
        reached = self.initial
        frontiers = [self.bdd.protect(frontier)]
        while True:
            step = self.post(frontier)
            frontier = self.bdd.and_(step, self.bdd.not_(reached))
            if frontier == self.bdd.FALSE:
                return reached, frontiers
            frontiers.append(self.bdd.protect(frontier))
            reached = self.bdd.or_(reached, frontier)
            self.bdd.maybe_reorder(extra_roots=(reached,))

    # ------------------------------------------------------------------
    # Propositions and decoding
    # ------------------------------------------------------------------
    def _build_prop_map(self) -> dict[str, int]:
        prop_map: dict[str, int] = {}
        for index, attr in enumerate(self.model.attributes):
            for value in attr.domain:
                prop_map[attr_prop(attr.device, attr.attribute, value)] = (
                    self.value_cube(index, value)
                )
        by_prop: dict[str, list[int]] = {}
        for fragment in self.fragments.values():
            for prop in fragment.props:
                by_prop.setdefault(prop, []).append(fragment.fid)
        for prop, fids in by_prop.items():
            cube = self.bdd.disj([self._frag_cube(fid) for fid in fids])
            existing = prop_map.get(prop)
            prop_map[prop] = (
                cube if existing is None else self.bdd.or_(existing, cube)
            )
        return prop_map

    def prop(self, name: str) -> int:
        """The BDD of one atomic proposition (FALSE when unknown)."""
        return self.prop_map.get(name, self.bdd.FALSE)

    # ------------------------------------------------------------------
    def state_cube(self, assignment: dict[str, bool]) -> int:
        """The cube pinning every state variable of a (possibly partial)
        satisfying assignment; unmentioned variables read False,
        matching :meth:`BDD.any_sat`'s completion convention."""
        terms = []
        for name in self.xvars:
            terms.append(
                self.bdd.var(name) if assignment.get(name, False) else self.bdd.nvar(name)
            )
        return self.bdd.conj(terms)

    def decode(self, assignment: dict[str, bool]) -> tuple[KripkeState, frozenset[str]]:
        """Turn a satisfying assignment over the state variables into the
        explicit Kripke node it denotes, plus that node's label set."""
        values = []
        for index, attr in enumerate(self.model.attributes):
            code = 0
            for bit, name in enumerate(self._xbits[index]):
                if assignment.get(name, False):
                    code |= 1 << bit
            domain = attr.domain or ("?",)
            values.append(domain[min(code, len(domain) - 1)])
        fid = 0
        for bit, name in enumerate(self._frag_x):
            if assignment.get(name, False):
                fid |= 1 << bit
        fragment = self.fragments.get(fid)
        incoming = fragment.props if fragment is not None else ()
        labels = {
            attr_prop(attr.device, attr.attribute, value)
            for attr, value in zip(self.model.attributes, values)
        } | set(incoming)
        return KripkeState(state=tuple(values), incoming=incoming), frozenset(labels)

    def state_count(self) -> int:
        """Number of reachable symbolic states (for reports/benchmarks)."""
        return self.bdd.count_sat(self.reachable)


def encode_union(
    models: list[StateModel],
    shared_devices: dict[tuple[str, str], str] | None = None,
    kernel: str | BddKernel = "auto",
) -> SymbolicUnionModel:
    """Compile app state models into one symbolic union model.

    The convenience entry point: builds the non-materializing union
    skeleton (shared attribute variables for shared device handles) and
    encodes it.  ``shared_devices`` has :func:`build_union_model`'s
    meaning; ``kernel`` picks the BDD kernel (``auto``, ``reference``, ``fast``).
    """
    from repro.model.union import build_union_skeleton

    return SymbolicUnionModel(
        build_union_skeleton(models, shared_devices=shared_devices),
        kernel=kernel,
    )
