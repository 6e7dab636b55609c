"""Seeded installation-profile sampling for fleet screening.

A *fleet profile* models the app-store reality the ROADMAP's north star
names: millions of households, each installing a small bundle of 3–15
apps, drawn popularity-weighted from a shared catalog.  Two forces make
the workload cacheable:

* **Popularity skew** — installations follow a Zipf law over a finite
  pool of *household templates* (co-installation blueprints), so a few
  templates dominate the stream;
* **Cosmetic divergence** — two users installing the same bundle name
  their devices differently.  Each template materializes in several
  role-preserving :func:`~repro.fleet.canon.rename_variant` skins, so
  the sampled stream is byte-diverse while canonically repetitive —
  exactly the gap between a naive byte-dedup and the canonical form.

Everything is byte-deterministic in ``(profile, count)``: template
construction, corpus popularity ranking, and the sample stream each run
on their own string-seeded ``random.Random`` (CPython seeds strings via
SHA-512, independent of ``PYTHONHASHSEED``), and the synthetic members
come from :mod:`repro.gen`'s deterministic generator.

Templates mix :func:`repro.gen.generator.generate_cluster` synthetics
(device-sharing by construction) with corpus apps drawn from a seeded
popularity ranking; household sizes skew small (most real deployments
are 3–6 apps) with a tail out to ``max_size``.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from collections.abc import Iterator
from dataclasses import dataclass

from repro.corpus.loader import app_ids, load_source
from repro.fleet.canon import RENAME_TAGS, app_shape, household_key, rename_variant
from repro.gen.generator import GenConfig, generate_app, generate_cluster
from repro.pipeline.store import ArtifactStore


@dataclass(frozen=True)
class FleetProfile:
    """Knobs of one fleet screening population (all seeded)."""

    seed: int = 0
    #: Distinct household templates (co-installation blueprints) in the
    #: pool; the canonical-distinct household count of a long run.
    templates: int = 150
    #: Rename skins per template (variant 0 is the canonical original):
    #: the byte-distinct/canonical-distinct ratio of the stream.
    variants: int = 4
    #: Probability that a template mixes corpus apps into the bundle.
    corpus_weight: float = 0.25
    #: Household size bounds (apps per household).
    min_size: int = 3
    max_size: int = 15
    #: Zipf exponent of template popularity (1.0 = classic 1/rank).
    zipf: float = 1.05
    #: Violation-injection rate for synthetic members (repro.gen).
    inject_rate: float = 0.4
    #: Per-app and per-cluster abstract-state budgets for the generator;
    #: kept low so fleet unions ride the cheap symbolic path.
    state_budget: int = 256
    cluster_budget: int = 1024

    def key(self) -> tuple:
        return (
            self.seed,
            self.templates,
            self.variants,
            self.corpus_weight,
            self.min_size,
            self.max_size,
            self.zipf,
            self.inject_rate,
            self.state_budget,
            self.cluster_budget,
        )

    def gen_config(self) -> GenConfig:
        return GenConfig(
            inject_rate=self.inject_rate,
            state_budget=self.state_budget,
            cluster_budget=self.cluster_budget,
        )


@dataclass(frozen=True)
class Member:
    """One installed app: content-derived id + source."""

    app_id: str
    source: str


@dataclass(frozen=True)
class Household:
    """One concrete household: a template materialized in one skin."""

    template: int
    variant: int
    members: tuple[Member, ...]

    def sources(self) -> list[str]:
        return [member.source for member in self.members]

    def member_ids(self) -> tuple[str, ...]:
        return tuple(member.app_id for member in self.members)


def _fleet_id(source: str) -> str:
    """Content-derived synthetic app id (``Flt<sha12>``).

    Content-derived per the loader's re-registration contract: a freed
    id can only ever re-bind to the identical source.
    """
    return "Flt" + hashlib.sha256(source.encode("utf-8")).hexdigest()[:12]


def _variant_tag(variant: int) -> str:
    """Role-preserving rename tag of variant ``v >= 1`` (repeats the tag
    when a profile asks for more variants than there are base tags, so
    every variant stays distinct: ``rev``, ..., ``mirror``, ``revrev``)."""
    base = RENAME_TAGS[(variant - 1) % len(RENAME_TAGS)]
    return base * (1 + (variant - 1) // len(RENAME_TAGS))


class TemplatePool:
    """Lazy, memoized materialization of a profile's households.

    Memory stays bounded by the pool, not the stream: at most
    ``templates x variants`` households (a few MB of sources) plus one
    canonical key per pair are ever held, regardless of how many
    households are sampled.

    Member shapes (for rename skins and canonical keys) live in
    ``store`` (default: the memory-only store of the default pipeline),
    so each distinct member source is parsed at most once per store.
    """

    def __init__(self, profile: FleetProfile, store: ArtifactStore | None = None):
        self.profile = profile
        self.store = store
        self._blueprints: dict[int, Household] = {}
        self._variants: dict[tuple[int, int], Household] = {}
        self._keys: dict[tuple[int, int], str] = {}
        self._ranked: list[str] | None = None
        self._corpus_cum: list[float] | None = None

    # ------------------------------------------------------------------
    def _corpus_ranking(self) -> tuple[list[str], list[float]]:
        """Seeded popularity ranking over the whole 82-app corpus with
        cumulative Zipf weights for sampling."""
        if self._ranked is None:
            rng = random.Random(f"soteria-fleet-popularity:{self.profile.seed}")
            ranked = [
                app_id
                for dataset in ("official", "thirdparty", "maliot")
                for app_id in app_ids(dataset)
            ]
            rng.shuffle(ranked)
            cum: list[float] = []
            total = 0.0
            for rank in range(len(ranked)):
                total += 1.0 / (rank + 1) ** self.profile.zipf
                cum.append(total)
            self._ranked = ranked
            self._corpus_cum = cum
        return self._ranked, self._corpus_cum  # type: ignore[return-value]

    def _pick_corpus(self, rng: random.Random, count: int) -> list[str]:
        ranked, cum = self._corpus_ranking()
        picks: list[str] = []
        seen: set[str] = set()
        while len(picks) < count:
            choice = ranked[bisect.bisect_left(cum, rng.random() * cum[-1])]
            if choice not in seen:
                seen.add(choice)
                picks.append(choice)
        return picks

    # ------------------------------------------------------------------
    def blueprint(self, template: int) -> Household:
        """Variant 0 — the canonical representative of one template."""
        cached = self._blueprints.get(template)
        if cached is not None:
            return cached
        profile = self.profile
        rng = random.Random(
            f"soteria-fleet-template:{profile.seed}:{profile.key()}:t{template}"
        )
        span = profile.max_size - profile.min_size
        size = profile.min_size + min(int(rng.expovariate(0.55)), span)
        corpus_members: list[str] = []
        if rng.random() < profile.corpus_weight and size >= profile.min_size + 1:
            corpus_members = self._pick_corpus(
                rng, rng.randint(1, min(3, size - 2))
            )
        synthetic = size - len(corpus_members)
        config = profile.gen_config()
        if synthetic >= 2:
            generated = generate_cluster(
                f"fleet:{profile.seed}", template, size=synthetic, config=config
            )
        elif synthetic == 1:
            generated = [
                generate_app(
                    f"fleet:{profile.seed}", f"{template}.solo", config=config
                )
            ]
        else:
            generated = []
        members = tuple(
            [Member(_fleet_id(app.source), app.source) for app in generated]
            + [Member(app_id, load_source(app_id)) for app_id in corpus_members]
        )
        household = Household(template=template, variant=0, members=members)
        self._blueprints[template] = household
        return household

    def household(self, template: int, variant: int) -> Household:
        """The template materialized in one rename skin (0 = original)."""
        if variant == 0:
            return self.blueprint(template)
        slot = (template, variant)
        cached = self._variants.get(slot)
        if cached is not None:
            return cached
        tag = _variant_tag(variant)
        members = tuple(
            Member(_fleet_id(renamed), renamed)
            for renamed in (
                rename_variant(member.source, tag, self.store)
                for member in self.blueprint(template).members
            )
        )
        household = Household(template=template, variant=variant, members=members)
        self._variants[slot] = household
        return household

    def canonical_key(self, template: int, variant: int) -> str:
        """The canonical household key of one (template, variant) —
        identical across variants of a template by construction."""
        slot = (template, variant)
        key = self._keys.get(slot)
        if key is None:
            household = self.household(template, variant)
            key = household_key(
                [
                    app_shape(member.source, self.store)
                    for member in household.members
                ]
            )
            self._keys[slot] = key
        return key


def sample_stream(
    profile: FleetProfile, count: int
) -> Iterator[tuple[int, int, int]]:
    """The sampled fleet: yields ``(index, template, variant)``.

    Byte-deterministic in ``(profile, count)`` — one string-seeded RNG
    drives template choice (Zipf over a seeded popularity permutation of
    the pool) and skin choice (uniform), so every run over the same
    profile screens the identical fleet.
    """
    rng = random.Random(f"soteria-fleet-sample:{profile.seed}:{profile.key()}")
    order = list(range(profile.templates))
    rng.shuffle(order)
    cum: list[float] = []
    total = 0.0
    for rank in range(profile.templates):
        total += 1.0 / (rank + 1) ** profile.zipf
        cum.append(total)
    for index in range(count):
        rank = bisect.bisect_left(cum, rng.random() * total)
        template = order[min(rank, profile.templates - 1)]
        variant = rng.randrange(profile.variants) if profile.variants > 1 else 0
        yield index, template, variant
