"""Algorithm 2: the union of apps' state models (Soteria Sec. 4.4).

Apps installed together interact through shared devices and shared abstract
events (location mode).  The union model G' has states that are the
Cartesian product over the *deduplicated* attribute set (attributes of
devices appearing in multiple apps are merged), and every app's transitions
are lifted into G': a transition v -l-> u of app i becomes v' -l-> u' for
every union state v' containing v and the corresponding u' (the edge is
labelled with i).

Device identity: two apps reference the same physical device when their
permission *handles* match (the reproduction's stand-in for "the user
authorized the same devices at install time"); an explicit
``shared_devices`` mapping can override this.
"""

from __future__ import annotations

import itertools

from repro.model.extractor import StateExplosionError, expand_rules_into
from repro.model.statemodel import StateAttribute, StateModel
from repro.platform.capabilities import CapabilityDatabase, default_database


def build_union_model(
    models: list[StateModel],
    db: CapabilityDatabase | None = None,
    max_states: int = 250_000,
    shared_devices: dict[tuple[str, str], str] | None = None,
) -> StateModel:
    """Union the state models of apps running in concert (Algorithm 2).

    ``shared_devices`` optionally maps (app-name, handle) -> global device
    id; unmapped handles keep their own name (so equal handles are shared).

    This is the *explicit* path: the union's states are materialized as the
    Cartesian product over the deduplicated attribute set and every app's
    rules are expanded into concrete transitions.  For unions too large to
    enumerate, :func:`build_union_skeleton` builds the same model without
    states/transitions so :mod:`repro.model.encoder` can compile the rules
    directly to BDDs.
    """
    db = db or default_database()

    total = estimate_union_states(models, shared_devices)
    if total > max_states:
        raise StateExplosionError(
            f"union of {[m.name for m in models]}: {total} states exceed budget"
        )

    union = build_union_skeleton(models, db=db, shared_devices=shared_devices)
    union.states = (
        [
            tuple(combo)
            for combo in itertools.product(*(a.domain for a in union.attributes))
        ]
        if union.attributes
        else [()]
    )

    # ------------------------------------------------------------------
    # Lines 2-12: lift every app's transitions into G', labelled with the
    # originating app.  Expansion re-applies each app's symbolic rules in
    # the union space, which yields exactly "add e' = v' -l-> u' for every
    # v' containing v" (the rule fires from every union state whose
    # projection matches, and updates only that app's attributes).
    # ------------------------------------------------------------------
    written = union_written_values(union.rule_origins)
    per_app: dict[str, dict] = {}
    for app, summary in union.rule_origins:
        per_app.setdefault(app, {}).setdefault(summary.entry, []).append(summary)
    for app, renamed in per_app.items():
        expand_rules_into(union, renamed, app, db, app_written=written)
    return union


def build_union_skeleton(
    models: list[StateModel],
    db: CapabilityDatabase | None = None,
    shared_devices: dict[tuple[str, str], str] | None = None,
) -> StateModel:
    """Algorithm 2 without the Cartesian product: the union model's
    attributes, merged numeric domains, and renamed rules — but no
    materialized states or transitions.

    The skeleton carries everything the property catalog and the general
    checks need (``attributes``, ``numeric_domains``, ``rules``,
    ``rule_origins``), and is the input of
    :func:`repro.model.encoder.encode_union`, which compiles the rules
    straight to BDDs over shared attribute variables.  Its ``states`` list
    is intentionally empty: callers wanting the explicit product use
    :func:`build_union_model`.
    """
    db = db or default_database()
    mapping = shared_devices or {}

    def global_id(app: str, handle: str) -> str:
        return mapping.get((app, handle), handle)

    union_attrs, union_domains = _union_attributes(models, shared_devices)
    raw = 1
    for model in models:
        raw *= max(1, model.raw_state_count)

    union = StateModel(
        name="+".join(model.name for model in models),
        attributes=union_attrs,
        states=[],
        numeric_domains={k: v for k, v in union_domains.items()},  # type: ignore[misc]
        raw_state_count=raw,
        apps=[model.apps[0] if model.apps else model.name for model in models],
    )

    for model in models:
        app = model.apps[0] if model.apps else model.name
        renamed = _rename_rules(model, app, global_id)
        for entry, summaries in renamed.items():
            union.rules.setdefault(entry, []).extend(summaries)
            for summary in summaries:
                union.rule_origins.append((app, summary))
    return union


def union_written_values(
    rule_origins: list[tuple[str, object]],
) -> frozenset[tuple[str, str, str]]:
    """(device, attribute, value) triples some app actively writes.

    Events for app-written values re-stimulate subscribers in co-installed
    apps (handler cascades, Sec. 4.4), so both the explicit expansion and
    the symbolic encoder exempt them from the fire-on-change-only rule.
    """
    written: set[tuple[str, str, str]] = set()
    for _app, summary in rule_origins:
        for action in summary.actions:
            if action.attribute is not None and isinstance(action.value, str):
                written.add((action.device, action.attribute, action.value))
    return frozenset(written)


def _union_attributes(
    models: list[StateModel],
    shared_devices: dict[tuple[str, str], str] | None = None,
) -> tuple[list[StateAttribute], dict[tuple[str, str], object]]:
    """Line 1 of Algorithm 2: the deduplicated attribute set of the union
    ("the Cartesian product should remove attributes of duplicate
    devices"), plus the merged numeric domains keyed on global device ids.
    """
    mapping = shared_devices or {}

    def global_id(app: str, handle: str) -> str:
        return mapping.get((app, handle), handle)

    union_attrs: list[StateAttribute] = []
    union_domains: dict[tuple[str, str], object] = {}
    index_of: dict[tuple[str, str], int] = {}
    for model in models:
        app = model.apps[0] if model.apps else model.name
        for attr in model.attributes:
            gid = global_id(app, attr.device)
            key = (gid, attr.attribute)
            if key in index_of:
                existing = union_attrs[index_of[key]]
                merged_domain = _merge_domains(existing.domain, attr.domain)
                union_attrs[index_of[key]] = StateAttribute(
                    device=gid,
                    attribute=attr.attribute,
                    domain=merged_domain,
                    is_numeric=existing.is_numeric or attr.is_numeric,
                )
                numeric = model.numeric_domains.get((attr.device, attr.attribute))
                if numeric is not None:
                    # Keep the second app's abstract regions too: without
                    # them, its labels in the merged symbolic domain are
                    # undecidable in the union (guards degrade to Unknown,
                    # numeric writes stop landing).
                    present = union_domains.get(key)
                    union_domains[key] = (
                        numeric
                        if present is None
                        else _merge_numeric_domains(gid, present, numeric)
                    )
                continue
            index_of[key] = len(union_attrs)
            union_attrs.append(
                StateAttribute(
                    device=gid,
                    attribute=attr.attribute,
                    domain=attr.domain,
                    is_numeric=attr.is_numeric,
                )
            )
            numeric = model.numeric_domains.get((attr.device, attr.attribute))
            if numeric is not None:
                union_domains[key] = numeric
    return union_attrs, union_domains


def estimate_union_states(
    models: list[StateModel],
    shared_devices: dict[tuple[str, str], str] | None = None,
) -> int:
    """State count of :func:`build_union_model`'s result, without building
    it — the deduplicated-attribute domain product.

    The single estimator behind every union budget decision: the sweep
    engine's per-group budget check, :func:`build_union_model`'s explosion
    guard, and the ``auto`` backend selector all call this, so "too big for
    explicit checking" means the same thing everywhere.
    """
    union_attrs, _domains = _union_attributes(models, shared_devices)
    total = 1
    for attr in union_attrs:
        total *= max(1, len(attr.domain))
    return total


def _merge_domains(first: tuple[str, ...], second: tuple[str, ...]) -> tuple[str, ...]:
    merged = list(first)
    for value in second:
        if value not in merged:
            merged.append(value)
    return tuple(merged)


def _merge_numeric_domains(gid, first, second):
    """Union two apps' abstract domains for one shared numeric attribute.

    Regions merge by label (first writer wins on a label clash — labels
    encode the region, so equal labels describe equal regions);
    ``raw_size`` keeps the larger pre-abstraction count, mirroring how the
    symbolic domain keeps every label.
    """
    from repro.analysis.abstraction import AbstractDomain

    regions = list(first.regions)
    labels = {region.label for region in regions}
    for region in second.regions:
        if region.label not in labels:
            labels.add(region.label)
            regions.append(region)
    return AbstractDomain(
        device=gid,
        attribute=first.attribute,
        regions=tuple(regions),
        raw_size=max(first.raw_size, second.raw_size),
    )


def _rename_rules(model: StateModel, app: str, global_id):
    """Rewrite device handles in a model's rules to global device ids."""
    from dataclasses import replace

    from repro.analysis.symexec import Action, PathSummary
    from repro.analysis.values import DeviceRead
    from repro.analysis.predicates import Atom
    from repro.ir.ir import EntryPoint
    from repro.platform.events import Event

    def fix_value(value):
        if isinstance(value, DeviceRead):
            return DeviceRead(global_id(app, value.device), value.attribute)
        return value

    def fix_atom(atom: Atom) -> Atom:
        return Atom(lhs=fix_value(atom.lhs), op=atom.op, rhs=fix_value(atom.rhs))

    def fix_action(action: Action) -> Action:
        return replace(
            action,
            device=global_id(app, action.device),
            value=fix_value(action.value)
            if not isinstance(action.value, str)
            else action.value,
        )

    def fix_event(event: Event) -> Event:
        if event.device in ("location", "app", "timer"):
            return event
        return Event(
            event.kind, global_id(app, event.device), event.attribute, event.value
        )

    renamed: dict[EntryPoint, list[PathSummary]] = {}
    for entry, summaries in model.rules.items():
        new_entry = EntryPoint(event=fix_event(entry.event), handler=entry.handler)
        bucket = renamed.setdefault(new_entry, [])
        for summary in summaries:
            bucket.append(
                PathSummary(
                    entry=new_entry,
                    condition=tuple(fix_atom(a) for a in summary.condition),
                    actions=tuple(fix_action(a) for a in summary.actions),
                    state_writes=summary.state_writes,
                    sends=summary.sends,
                    uses_reflection=summary.uses_reflection,
                )
            )
    return renamed
