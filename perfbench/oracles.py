"""Known answers the benchmark checks every verdict against.

Each oracle returns ``None`` when the verdict is right and a one-line
reason when it is wrong; a wrong verdict counts as a failed operation.
"""

from __future__ import annotations

from repro.corpus import groundtruth

#: The all-82-app union's violated property ids.  Both BDD kernels
#: agree on this set (``BENCH_bdd_kernel.json``).
UNION_ALL_VIOLATED = frozenset(
    {
        "P.1", "P.2", "P.3", "P.8", "P.9", "P.10", "P.12", "P.13", "P.14",
        "P.17", "P.18", "P.20", "P.23", "P.24", "P.26", "P.28", "P.29",
        "P.30", "S.1", "S.2", "S.3", "S.4",
    }
)

_MALIOT = {entry.app_id: entry for entry in groundtruth.MALIOT_GROUND_TRUTH}


def check_union_all(violated: set[str], expected=UNION_ALL_VIOLATED) -> str | None:
    if set(violated) == set(expected):
        return None
    return (
        f"union_all: missing {sorted(set(expected) - set(violated))}, "
        f"extra {sorted(set(violated) - set(expected))}"
    )


def corpus_app_has_oracle(app_id: str) -> bool:
    """Single corpus apps whose stand-alone verdict the paper pins.

    MalIoT apps whose violation needs co-installed apps are left to the
    environment jobs.
    """
    entry = _MALIOT.get(app_id)
    return entry is None or not entry.environment


def check_corpus_app(app_id: str, violations: list[dict]) -> str | None:
    """Table 3 for O*/TP* apps (exact set), Appendix C for MalIoT apps."""
    got = {v["property_id"] for v in violations}
    entry = _MALIOT.get(app_id)
    if entry is None:
        want = groundtruth.TABLE3_INDIVIDUAL.get(app_id, set())
        if got != want:
            return f"{app_id}: got {sorted(got)}, Table 3 says {sorted(want)}"
        return None
    if entry.environment:
        return None
    if entry.result == "FP":
        if got and all(v["via_reflection"] for v in violations):
            return None
        return f"{app_id}: expected only reflection warnings, got {sorted(got)}"
    if not entry.detectable:
        return None if not got else f"{app_id}: expected nothing, got {sorted(got)}"
    missing = set(entry.violations) - got
    return f"{app_id}: missing {sorted(missing)}" if missing else None


def environment_expectations() -> list[tuple[str, tuple[str, ...], frozenset[str]]]:
    """``(label, member ids, ids that must be violated)`` for every
    Table 4 group and every multi-app MalIoT environment."""
    envs = [
        (group.group_id, tuple(group.apps), frozenset(group.violated))
        for group in groundtruth.TABLE4_GROUPS
    ]
    envs += [
        ("MalIoT:" + "+".join(apps), tuple(apps), frozenset({prop}))
        for apps, prop in groundtruth.MALIOT_ENVIRONMENTS
    ]
    return envs


def check_required(label: str, required, violated) -> str | None:
    """Every required id must be flagged (environments may flag more:
    the union is a sound over-approximation)."""
    missing = set(required) - set(violated)
    return f"{label}: missing {sorted(missing)}" if missing else None


def check_same(label: str, original, repeat) -> str | None:
    if set(original) == set(repeat):
        return None
    return f"{label}: {sorted(repeat)} differs from original {sorted(original)}"
