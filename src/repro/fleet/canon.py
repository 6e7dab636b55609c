"""Cluster-canonical household forms: isomorphic households, one key.

At fleet scale the cache hit rate on *isomorphic* households is the whole
ballgame: two households whose apps differ only in device-handle and
app names produce the same violation verdict, so they must map onto the
same cache key.  The canonical form has two layers:

**Per-app shape** (:func:`app_shape`) — the app source with comments
stripped, the ``definition`` name/description normalized, and every
device handle replaced by a positional descriptor carrying exactly the
semantics the checker reads off the name: the declaration index, the
platform capability, and the inferred device roles
(:func:`repro.properties.roles.device_roles` — ``hall_light`` *is* a
light to properties like P.12/P.18, so a rename that changes roles must
change the shape, while ``hall_light -> hall_light_rev`` must not).

**Household key** (:func:`household_key`) — the multiset of member
shapes refined over the shared-channel structure: a channel is a device
handle held by two or more members (the sweep engine's device-identity
convention), fingerprinted by the *shapes* of the apps on it and the
descriptor each app holds it under.  Two rounds of color refinement make
the key invariant under member permutation and any role-preserving
renaming of devices and apps, while households wired differently (a
different member pair sharing, a different capability shared) separate.

The mode broadcast channel needs no explicit edge here: mode reads and
writes are part of each member's *source*, hence of its shape, and the
channel itself admits no per-household wiring freedom.

:func:`rename_variant` produces the isomorphic witnesses: a
role-preserving consistent rename of every device handle plus an app
rename — the property tests' (and the profile sampler's) way of
exercising exactly the equivalence the key promises.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.ir import build_ir
from repro.pipeline.runner import default_pipeline
from repro.pipeline.store import ArtifactStore, artifact_key
from repro.platform.smartapp import SmartApp
from repro.properties.roles import _ROLE_KEYWORDS, device_roles

_COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)
_APP_NAME = re.compile(r'(\bname\s*:\s*)"(?:[^"\\]|\\.)*"')
_APP_DESCRIPTION = re.compile(r'(\bdescription\s*:\s*)"(?:[^"\\]|\\.)*"')

#: Suffix tags guaranteed role-preserving: purely alphabetic (the role
#: tokenizer splits on non-alphanumerics, so ``_rev`` adds the token
#: ``rev``) and disjoint from every role keyword in
#: :data:`repro.properties.roles._ROLE_KEYWORDS`.
RENAME_TAGS: tuple[str, ...] = ("rev", "alt", "dup", "twin", "iso", "mirror")

_ROLE_WORDS = frozenset(keyword for keyword, _role in _ROLE_KEYWORDS)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class AppShape:
    """Rename-invariant summary of one app.

    ``signature`` identifies the app up to role-preserving renaming;
    ``devices`` maps each *raw* device handle to its canonical
    descriptor (``d<index>:<capability>:<roles>``) so the household key
    can fingerprint shared channels without ever seeing raw names.
    """

    signature: str
    devices: dict[str, str] = field(default_factory=dict)


def _handle_pattern(handles: Sequence[str]) -> re.Pattern[str]:
    alternation = "|".join(
        re.escape(handle) for handle in sorted(handles, key=len, reverse=True)
    )
    return re.compile(rf"\b(?:{alternation})\b")


def app_shape(source: str, store: ArtifactStore | None = None) -> AppShape:
    """The canonical shape of one app source.

    A content-addressed ``shape`` artifact of ``store`` (default: the
    memory-only store of :func:`~repro.pipeline.runner.default_pipeline`),
    keyed on the source's SHA-256: a fleet screen parses each distinct
    member source at most once per store, and a warm re-screen over a
    disk store reads every shape back without parsing.  Stored shapes
    outlive the code that made them, so any change to this function's
    output must bump :data:`~repro.pipeline.store.PIPELINE_VERSION`.
    """
    if store is None:
        store = default_pipeline().store
    key = artifact_key("shape", [_digest(source)])
    shape = store.get("shape", key, AppShape)
    if shape is None:
        shape = _compute_shape(source)
        store.put("shape", key, shape)
    return shape  # type: ignore[return-value]


def _compute_shape(source: str) -> AppShape:
    ir = build_ir(SmartApp.from_source(source, name="canon"))
    roles = device_roles(ir)
    descriptors: dict[str, str] = {}
    for index, perm in enumerate(ir.devices()):
        tags = ",".join(sorted(roles.get(perm.handle, {"generic"})))
        descriptors.setdefault(
            perm.handle, f"d{index}:{perm.capability}:{tags}"
        )
    normalized = _COMMENT.sub("", source)
    if descriptors:
        normalized = _handle_pattern(list(descriptors)).sub(
            lambda match: f"\x00{descriptors[match.group(0)]}\x00", normalized
        )
    normalized = _APP_NAME.sub(r'\1"<app>"', normalized)
    normalized = _APP_DESCRIPTION.sub(r'\1"<description>"', normalized)
    # Collapse whitespace runs so formatting (and the holes comment
    # stripping leaves) never reaches the fingerprint.
    normalized = re.sub(r"\s+", " ", normalized).strip()
    return AppShape(signature=_digest("app-shape:" + normalized), devices=descriptors)


def household_key(shapes: Sequence[AppShape]) -> str:
    """The canonical cache key of one household (a multiset of shapes
    plus their shared-channel wiring).

    Invariant under member permutation by construction (every join is
    sorted); invariant under role-preserving renaming because raw handle
    names never enter a fingerprint — only shapes and descriptors do.
    """
    colors = [shape.signature for shape in shapes]
    endpoints: dict[str, list[tuple[int, str]]] = {}
    for member, shape in enumerate(shapes):
        for handle, descriptor in shape.devices.items():
            endpoints.setdefault(handle, []).append((member, descriptor))
    shared = {h: ends for h, ends in endpoints.items() if len(ends) > 1}
    fingerprints: dict[str, str] = {}
    for _round in range(2):
        for handle, ends in shared.items():
            fingerprints[handle] = _digest(
                "chan:"
                + "|".join(sorted(f"{colors[m]}@{d}" for m, d in ends))
            )
        refined = []
        for member, shape in enumerate(shapes):
            incident = sorted(
                f"{fingerprints[h]}@{d}"
                for h, d in shape.devices.items()
                if h in shared
            )
            refined.append(_digest(colors[member] + "\n" + "\n".join(incident)))
        colors = refined
    return _digest(
        "household:"
        + "\n".join(sorted(colors))
        + "\n#"
        + "\n".join(sorted(fingerprints.values()))
    )


def household_key_for_sources(sources: Sequence[str]) -> str:
    """Convenience: canonical key straight from member sources."""
    return household_key([app_shape(source) for source in sources])


def rename_variant(source: str, tag: str, store: ArtifactStore | None = None) -> str:
    """An isomorphic renamed copy of ``source``: every device handle
    gets a consistent role-preserving ``_<tag>`` suffix and the app name
    gets the tag appended, so :func:`app_shape` of the variant equals
    the original's and :func:`household_key` collapses households built
    from either.

    ``tag`` must be purely alphabetic and must not be a role keyword —
    a suffix like ``_heat`` would *add* a role and change the verdict,
    which is exactly the rename the canonical form must distinguish.
    """
    if not re.fullmatch(r"[a-z]+", tag):
        raise ValueError(f"rename tag must be lowercase alphabetic, got {tag!r}")
    if tag in _ROLE_WORDS:
        raise ValueError(f"rename tag {tag!r} is a device-role keyword")
    # The handles come from the original's (cached) shape; the pattern
    # sorts them by length, so the shape's dedup and order are immaterial.
    handles = list(app_shape(source, store).devices)
    renamed = source
    if handles:
        renamed = _handle_pattern(handles).sub(
            lambda match: f"{match.group(0)}_{tag}", renamed
        )
    renamed = _APP_NAME.sub(
        lambda match: match.group(0)[:-1] + f" {tag}\"", renamed, count=1
    )
    return renamed
