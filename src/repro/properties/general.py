"""General properties S.1-S.5 (Soteria Fig. 8, Appendix B Table 1).

These are app-agnostic constraints checked *at state-model construction*
(Fig. 9: "General properties failed at state-model construction"), i.e. on
the symbolic transition rules rather than via CTL:

* **S.1** — an event handler must not change an attribute to conflicting
  values on some control-flow path.
* **S.2** — an event handler must not change an attribute to the *same*
  value multiple times on some path.
* **S.3** — handlers of complementary events must not change an attribute
  to the same value.
* **S.4** — two or more non-complementary event handlers must not change an
  attribute to conflicting values (a race: the events may co-occur).
* **S.5** — a handler whose code dispatches on event values must actually be
  subscribed to the events it handles.

In multi-app environments the same checks run over the combined rule set;
"handler" then means "any handler triggered by the event, in any app"
(this is how groups G.1-G.3 in Table 4 are found).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.feasibility import is_feasible
from repro.analysis.symexec import Action, PathSummary
from repro.analysis.values import Const, EventValue, SymValue
from repro.ir.ir import AppIR
from repro.lang import ast
from repro.platform.capabilities import CapabilityDatabase, default_database
from repro.platform.events import Event, EventKind, are_complementary
from repro.properties.catalog import Violation

#: Rules tagged with their owning app: (app name, rule).
OriginRules = list[tuple[str, PathSummary]]


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _value_key(action: Action) -> str:
    if isinstance(action.value, SymValue):
        return action.value.key()
    return str(action.value)


def _writes(summary: PathSummary) -> list[tuple[str, str, str, Action]]:
    """(device, attribute, value-key, action) for every attribute write.

    Actions reachable only through over-approximated reflective calls are
    excluded: the S checks run at model construction and reflection-induced
    conflicts would be pure noise (the CTL properties still see reflective
    transitions, which is where the paper's App5 false positive comes from).
    """
    return [
        (a.device, a.attribute or "", _value_key(a), a)
        for a in summary.actions
        if a.attribute is not None and not a.via_reflection
    ]


def effective_event(summary: PathSummary) -> Event:
    """The rule's event, refined with any ``evt.value == c`` constraint.

    An app subscribing to all ``contact`` events whose handler guards a
    branch with ``evt.value == "open"`` effectively reacts to
    ``contact.open``; S.3/S.4 need that refinement.
    """
    event = summary.entry.event
    if event.value is not None:
        return event
    for atom in summary.condition:
        if atom.op != "==":
            continue
        lhs, rhs = atom.lhs, atom.rhs
        if isinstance(rhs, EventValue):
            lhs, rhs = rhs, lhs
        if isinstance(lhs, EventValue) and isinstance(rhs, Const):
            if isinstance(rhs.value, str):
                return Event(event.kind, event.device, event.attribute, rhs.value)
    return event


def _events_can_co_occur(first: Event, second: Event) -> bool:
    """Can the two (refined) events happen at the same instant?

    Same-attribute device events cannot (one attribute changes to one
    value); complementary events cannot; everything else may race.
    """
    if first.kind is EventKind.DEVICE and second.kind is EventKind.DEVICE:
        if (first.device, first.attribute) == (second.device, second.attribute):
            return False
    if first.kind is EventKind.MODE and second.kind is EventKind.MODE:
        return False
    if are_complementary(first, second):
        return False
    return True


def _same_event(first: Event, second: Event) -> bool:
    return first.matches(second) or second.matches(first)


def _jointly_feasible(first: PathSummary, second: PathSummary) -> bool:
    return is_feasible(tuple(first.condition) + tuple(second.condition))


def _reflective(*summaries: PathSummary) -> bool:
    return any(s.uses_reflection for s in summaries)


# ----------------------------------------------------------------------
# S.1 — conflicting values on one "path"
# ----------------------------------------------------------------------
def check_s1(rules: OriginRules) -> list[Violation]:
    violations: list[Violation] = []
    # Intra-handler: one path writes an attribute to two different values.
    for app, summary in rules:
        per_attr: dict[tuple[str, str], list[str]] = {}
        for device, attribute, value, _action in _writes(summary):
            per_attr.setdefault((device, attribute), []).append(value)
        for (device, attribute), values in per_attr.items():
            if len(set(values)) > 1:
                violations.append(
                    Violation(
                        property_id="S.1",
                        apps=(app,),
                        description=(
                            f"handler {summary.entry.handler}() sets "
                            f"{device}.{attribute} to conflicting values "
                            f"{sorted(set(values))} on one path "
                            f"(event {summary.entry.event.label()})"
                        ),
                        via_reflection=_reflective(summary),
                    )
                )
    # Cross-handler, same event (multi-app G.1 semantics).
    for i, (app_a, first) in enumerate(rules):
        for app_b, second in rules[i + 1 :]:
            if (app_a, first.entry.handler) == (app_b, second.entry.handler):
                continue
            ev_a, ev_b = effective_event(first), effective_event(second)
            if not _same_event(ev_a, ev_b):
                continue
            if not _jointly_feasible(first, second):
                continue
            for dev_a, attr_a, val_a, _ in _writes(first):
                for dev_b, attr_b, val_b, _ in _writes(second):
                    if (dev_a, attr_a) == (dev_b, attr_b) and val_a != val_b:
                        violations.append(
                            Violation(
                                property_id="S.1",
                                apps=tuple(sorted({app_a, app_b})),
                                description=(
                                    f"event {ev_a.label()} drives "
                                    f"{dev_a}.{attr_a} to both {val_a!r} "
                                    f"({app_a}) and {val_b!r} ({app_b})"
                                ),
                                via_reflection=_reflective(first, second),
                            )
                        )
    return _dedupe(violations)


# ----------------------------------------------------------------------
# S.2 — same value written repeatedly
# ----------------------------------------------------------------------
def check_s2(rules: OriginRules) -> list[Violation]:
    violations: list[Violation] = []
    for app, summary in rules:
        counts: dict[tuple[str, str, str], int] = {}
        for device, attribute, value, _action in _writes(summary):
            counts[(device, attribute, value)] = (
                counts.get((device, attribute, value), 0) + 1
            )
        for (device, attribute, value), count in counts.items():
            if count > 1:
                violations.append(
                    Violation(
                        property_id="S.2",
                        apps=(app,),
                        description=(
                            f"handler {summary.entry.handler}() sets "
                            f"{device}.{attribute}={value} {count} times on "
                            f"one path (event {summary.entry.event.label()})"
                        ),
                        via_reflection=_reflective(summary),
                    )
                )
    # Cross-handler: two different handlers on the same event write the
    # same value (the O8 + TP12 pattern).
    for i, (app_a, first) in enumerate(rules):
        for app_b, second in rules[i + 1 :]:
            if (app_a, first.entry.handler) == (app_b, second.entry.handler):
                continue
            if app_a == app_b:
                continue  # within one app this is commonplace fan-out
            ev_a, ev_b = effective_event(first), effective_event(second)
            if not _same_event(ev_a, ev_b):
                continue
            if not _jointly_feasible(first, second):
                continue
            writes_a = {(d, a, v) for d, a, v, _ in _writes(first)}
            writes_b = {(d, a, v) for d, a, v, _ in _writes(second)}
            for device, attribute, value in sorted(writes_a & writes_b):
                violations.append(
                    Violation(
                        property_id="S.2",
                        apps=tuple(sorted({app_a, app_b})),
                        description=(
                            f"event {ev_a.label()} makes both {app_a} and "
                            f"{app_b} set {device}.{attribute}={value} "
                            f"(repeated command)"
                        ),
                        via_reflection=_reflective(first, second),
                    )
                )
    return _dedupe(violations)


# ----------------------------------------------------------------------
# S.3 — complementary events, same value
# ----------------------------------------------------------------------
def check_s3(rules: OriginRules) -> list[Violation]:
    violations: list[Violation] = []
    for i, (app_a, first) in enumerate(rules):
        for app_b, second in rules[i + 1 :]:
            ev_a, ev_b = effective_event(first), effective_event(second)
            if not are_complementary(ev_a, ev_b):
                continue
            writes_a = {(d, a, v) for d, a, v, _ in _writes(first)}
            writes_b = {(d, a, v) for d, a, v, _ in _writes(second)}
            for device, attribute, value in sorted(writes_a & writes_b):
                violations.append(
                    Violation(
                        property_id="S.3",
                        apps=tuple(sorted({app_a, app_b})),
                        description=(
                            f"complementary events {ev_a.label()} and "
                            f"{ev_b.label()} both set "
                            f"{device}.{attribute}={value}"
                        ),
                        via_reflection=_reflective(first, second),
                    )
                )
    return _dedupe(violations)


# ----------------------------------------------------------------------
# S.4 — race: non-complementary events, conflicting values
# ----------------------------------------------------------------------
def check_s4(rules: OriginRules) -> list[Violation]:
    violations: list[Violation] = []
    for i, (app_a, first) in enumerate(rules):
        for app_b, second in rules[i + 1 :]:
            ev_a, ev_b = effective_event(first), effective_event(second)
            if _same_event(ev_a, ev_b):
                continue  # S.1's concern
            if not _events_can_co_occur(ev_a, ev_b):
                continue
            if not _jointly_feasible(first, second):
                continue
            for dev_a, attr_a, val_a, _ in _writes(first):
                for dev_b, attr_b, val_b, _ in _writes(second):
                    if (dev_a, attr_a) == (dev_b, attr_b) and val_a != val_b:
                        violations.append(
                            Violation(
                                property_id="S.4",
                                apps=tuple(sorted({app_a, app_b})),
                                description=(
                                    f"race: events {ev_a.label()} and "
                                    f"{ev_b.label()} may co-occur and drive "
                                    f"{dev_a}.{attr_a} to {val_a!r} vs {val_b!r}"
                                ),
                                via_reflection=_reflective(first, second),
                            )
                        )
    return _dedupe(violations)


# ----------------------------------------------------------------------
# S.5 — handler logic without a matching subscription
# ----------------------------------------------------------------------
def check_s5(
    ir: AppIR, db: CapabilityDatabase | None = None
) -> list[Violation]:
    """Scan every method for event-value dispatch without a subscription."""
    db = db or default_database()
    violations: list[Violation] = []
    subscribed_by_handler: dict[str, list[Event]] = {}
    for sub in ir.subscriptions:
        subscribed_by_handler.setdefault(sub.handler, []).append(sub.event)

    mode_names = {"home", "away", "night", "sleeping"}

    for name, decl in ir.methods().items():
        if decl.body is None or not decl.params:
            continue
        param = decl.params[0].name
        checked_values = _event_value_cases(decl.body, param)
        if not checked_values:
            continue
        events = subscribed_by_handler.get(name, [])
        uncovered: list[str] = []
        for value in checked_values:
            attrs = db.attributes_for_value(value)
            covered = False
            for event in events:
                if event.kind is EventKind.MODE and (
                    value in mode_names or not attrs
                ):
                    covered = True
                elif event.kind is EventKind.DEVICE and event.attribute in attrs:
                    covered = True
                elif event.kind is EventKind.DEVICE and not attrs:
                    covered = True  # unknown value string: be conservative
            if not covered:
                uncovered.append(value)
        if uncovered:
            violations.append(
                Violation(
                    property_id="S.5",
                    apps=(ir.app.name,),
                    description=(
                        f"method {name}() handles event value(s) "
                        f"{sorted(uncovered)} but the app does not subscribe "
                        f"it to a matching event"
                    ),
                )
            )
    return violations


def _event_value_cases(body: ast.Block, param: str) -> set[str]:
    """String constants compared against ``<param>.value`` in a method."""
    values: set[str] = set()
    for node in ast.walk(body):
        if not isinstance(node, ast.BinaryOp) or node.op not in ("==", "!="):
            continue
        sides = [node.left, node.right]
        has_evt_value = any(
            isinstance(s, ast.PropertyAccess)
            and s.name == "value"
            and isinstance(s.obj, ast.Name)
            and s.obj.id in (param, "evt")
            for s in sides
        )
        if not has_evt_value:
            continue
        for side in sides:
            if isinstance(side, ast.Literal) and isinstance(side.value, str):
                values.add(side.value)
    return values


# ----------------------------------------------------------------------
def _dedupe(violations: list[Violation]) -> list[Violation]:
    seen: set[tuple[str, tuple[str, ...], str]] = set()
    unique: list[Violation] = []
    for violation in violations:
        key = (violation.property_id, violation.apps, violation.description)
        if key not in seen:
            seen.add(key)
            unique.append(violation)
    return unique


def check_general_properties(
    rules: OriginRules,
    ir: AppIR | None = None,
    db: CapabilityDatabase | None = None,
) -> list[Violation]:
    """All S checks over a rule set (``ir`` enables S.5)."""
    violations: list[Violation] = []
    violations.extend(check_s1(rules))
    violations.extend(check_s2(rules))
    violations.extend(check_s3(rules))
    violations.extend(check_s4(rules))
    if ir is not None:
        violations.extend(check_s5(ir, db))
    return violations
