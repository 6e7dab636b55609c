"""Canonical household forms: the dedup equivalence, property-tested.

The fleet cache key promises exactly one equivalence: households that
differ only by role-preserving device/app renaming and member order map
to one key *and* one violation verdict, while households wired
differently (a different shared-channel structure, a role-changing
rename) separate.  These tests exercise both directions — including the
verdict half, by actually union-checking a renamed household pair.
"""

import hashlib
import random

import pytest

from repro.corpus.loader import scoped_registration
from repro.fleet.canon import (
    RENAME_TAGS,
    AppShape,
    app_shape,
    household_key,
    household_key_for_sources,
    rename_variant,
)
from repro.fleet.driver import FleetOptions, check_household
from repro.fleet.profiles import FleetProfile, Household, Member, TemplatePool
from repro.gen.generator import generate_cluster
from repro.pipeline.store import ArtifactStore, artifact_key
from repro.platform.smartapp import SmartApp


def _source(name: str, handle: str, shared: str | None = None) -> str:
    """A minimal two-device app: ``handle`` plus an optional second
    input named ``shared`` (the household-overlap knob)."""
    second = (
        f'input "{shared}", "capability.switch"\n' if shared is not None else ""
    )
    return (
        f'definition(name: "{name}", description: "canon test")\n'
        'preferences { section("s") {\n'
        f'input "{handle}", "capability.switch"\n'
        f"{second}"
        "} }\n"
        f'def installed() {{ subscribe({handle}, "switch.on", h) }}\n'
        f"def h(evt) {{ {handle}.off() }}\n"
    )


class TestAppShape:
    def test_rename_variant_preserves_shape(self):
        source = _source("A", "plain_dev")
        shape = app_shape(source)
        for tag in RENAME_TAGS:
            variant = app_shape(rename_variant(source, tag))
            # Same signature and descriptors; only the raw handle
            # spellings (the devices-map keys) differ.
            assert variant.signature == shape.signature
            assert sorted(variant.devices.values()) == sorted(
                shape.devices.values()
            )

    def test_comments_and_names_do_not_enter_the_shape(self):
        plain = _source("A", "plain_dev")
        noisy = "// a comment\n" + _source("Completely Different Name", "plain_dev")
        assert app_shape(noisy).signature == app_shape(plain).signature

    def test_role_changing_rename_changes_the_shape(self):
        # ``hall_light`` carries the "light" role; ``hall_dev`` is
        # generic.  P.12-style properties read that difference, so the
        # shapes must separate even though the sources are otherwise
        # byte-identical after handle substitution.
        generic = _source("A", "hall_dev")
        light = _source("A", "hall_light")
        assert app_shape(generic).signature != app_shape(light).signature

    def test_rename_tag_validation(self):
        source = _source("A", "plain_dev")
        with pytest.raises(ValueError, match="alphabetic"):
            rename_variant(source, "v2")
        with pytest.raises(ValueError, match="role keyword"):
            rename_variant(source, "heat")


class TestHouseholdKey:
    def _cluster_sources(self, seed: int = 11, size: int = 3) -> list[str]:
        return [app.source for app in generate_cluster(seed, 0, size=size)]

    def test_renamed_and_permuted_household_same_key(self):
        sources = self._cluster_sources()
        key = household_key_for_sources(sources)
        for tag in ("rev", "iso"):
            renamed = [rename_variant(source, tag) for source in sources]
            rng = random.Random(tag)
            rng.shuffle(renamed)
            assert household_key_for_sources(renamed) == key

    def test_member_permutation_alone_same_key(self):
        sources = self._cluster_sources(seed=12)
        key = household_key_for_sources(sources)
        assert household_key_for_sources(list(reversed(sources))) == key

    def test_different_capability_overlap_distinct_keys(self):
        # Same two member shapes; in one household they share a switch
        # channel, in the other each holds a private handle.  The
        # sweep engine checks these differently, so the keys must too.
        sharing = [
            _source("A", "sw_main", shared="sw_shared"),
            _source("B", "sw_other", shared="sw_shared"),
        ]
        disjoint = [
            _source("A", "sw_main", shared="sw_sharedx"),
            _source("B", "sw_other", shared="sw_sharedy"),
        ]
        assert household_key_for_sources(sharing) != household_key_for_sources(
            disjoint
        )

    def test_who_shares_matters(self):
        a = _source("A", "sw_a", shared="sw_shared")
        b = _source("B", "sw_b", shared="sw_shared")
        c = _source("C", "sw_c")
        c_sharing = _source("C", "sw_shared")
        # {A+B share, C apart} vs {A+B+C all share}: different wiring.
        assert household_key_for_sources([a, b, c]) != household_key_for_sources(
            [a, b, c_sharing]
        )

    def test_key_ignores_raw_handle_spelling_of_the_channel(self):
        # The *name* of the shared channel is wiring-irrelevant: only
        # which members share it and under what descriptor.
        one = [
            _source("A", "sw_main", shared="sw_shared"),
            _source("B", "sw_other", shared="sw_shared"),
        ]
        other = [
            _source("A", "sw_main", shared="sw_conduit"),
            _source("B", "sw_other", shared="sw_conduit"),
        ]
        assert household_key_for_sources(one) == household_key_for_sources(other)


class TestVerdictParity:
    def test_renamed_household_same_violation_set(self):
        """The dedup soundness claim itself: a renamed household's
        union check reports the identical violation set, so serving it
        the original's cached verdict is exact, not approximate."""
        apps = generate_cluster(21, 0, size=2)
        original = Household(
            template=0,
            variant=0,
            members=tuple(
                Member(f"CanonA{i}", app.source) for i, app in enumerate(apps)
            ),
        )
        renamed = Household(
            template=0,
            variant=1,
            members=tuple(
                Member(f"CanonB{i}", rename_variant(app.source, "twin"))
                for i, app in enumerate(reversed(apps))
            ),
        )
        key = household_key_for_sources([m.source for m in original.members])
        assert (
            household_key_for_sources([m.source for m in renamed.members]) == key
        )
        options = FleetOptions()
        with scoped_registration():
            first = check_household(original, key, options)
            second = check_household(renamed, key, options)
        assert not first.failed and not second.failed
        assert first.violated_ids() == second.violated_ids()


class TestShapeStore:
    """``app_shape`` is the ``shape`` stage of the artifact store."""

    SOURCE = _source("Shape App", "porch_light", shared="fan")

    def _parses(self, monkeypatch) -> list[str]:
        """Record every source the canonicalizer parses."""
        parsed: list[str] = []
        original = SmartApp.from_source.__func__

        def counting(cls, source, name=None):
            if name == "canon":
                parsed.append(source)
            return original(cls, source, name)

        monkeypatch.setattr(SmartApp, "from_source", classmethod(counting))
        return parsed

    def test_keyed_on_the_source_digest(self, tmp_path):
        store = ArtifactStore(tmp_path)
        shape = app_shape(self.SOURCE, store)
        digest = hashlib.sha256(self.SOURCE.encode("utf-8")).hexdigest()
        key = artifact_key("shape", [digest])
        assert store.contains_disk("shape", key)
        assert ArtifactStore(tmp_path).get("shape", key, AppShape) == shape

    def test_one_parse_per_store(self, tmp_path, monkeypatch):
        parsed = self._parses(monkeypatch)
        store = ArtifactStore(tmp_path)
        first = app_shape(self.SOURCE, store)
        assert app_shape(self.SOURCE, store) == first
        rename_variant(self.SOURCE, "rev", store)  # reuses the stored shape
        assert parsed == [self.SOURCE]
        # A fresh store over the same directory reads the shape from disk.
        assert app_shape(self.SOURCE, ArtifactStore(tmp_path)) == first
        assert parsed == [self.SOURCE]

    def test_truncated_pickle_is_a_deleted_miss(self, tmp_path, monkeypatch):
        shape = app_shape(self.SOURCE, ArtifactStore(tmp_path))
        (path,) = ArtifactStore(tmp_path).entries("shape")
        path.write_bytes(path.read_bytes()[:10])
        parsed = self._parses(monkeypatch)
        store = ArtifactStore(tmp_path)
        assert app_shape(self.SOURCE, store) == shape
        assert parsed == [self.SOURCE]
        assert store.counters()["shape"]["misses"] == 1
        # The corrupt entry was replaced by a readable one.
        assert ArtifactStore(tmp_path).get("shape", path.stem, AppShape) == shape

    def test_other_version_never_serves_a_shape(self, tmp_path, monkeypatch):
        digest = hashlib.sha256(self.SOURCE.encode("utf-8")).hexdigest()
        bogus = AppShape(signature="stale", devices={})
        ArtifactStore(tmp_path, version="old").put(
            "shape", artifact_key("shape", [digest]), bogus
        )
        parsed = self._parses(monkeypatch)
        store = ArtifactStore(tmp_path)
        assert app_shape(self.SOURCE, store).signature != "stale"
        assert parsed == [self.SOURCE]
        assert store.counters()["shape"]["disk_hits"] == 0


class TestProfileGolden:
    """Golden digests recorded before shapes moved into the store and
    ``rename_variant`` started reading handles off the stored shape."""

    PROFILE = FleetProfile(seed=0, templates=40)
    VARIANTS_DIGEST = (
        "fca15d129ae38c323ed92fdcfddc895cffcdff187e2bd9599b2c8e74583ea40c"
    )
    KEYS_DIGEST = "9ca777a34785269eefd1c27010d310ae4bfccbf4838a728b3c6169c4f591da22"

    def test_variants_and_keys_are_byte_identical(self, tmp_path):
        pool = TemplatePool(self.PROFILE, ArtifactStore(tmp_path))
        slots = [
            (template, variant)
            for template in range(self.PROFILE.templates)
            for variant in range(self.PROFILE.variants)
        ]
        assert len(slots) == 160
        digest = hashlib.sha256()
        for template, variant in slots:
            for member in pool.household(template, variant).members:
                digest.update(member.source.encode("utf-8") + b"\x00")
            digest.update(b"\x01")
        assert digest.hexdigest() == self.VARIANTS_DIGEST
        keys = {pool.canonical_key(template, variant) for template, variant in slots}
        assert len(keys) == self.PROFILE.templates
        joined = "\n".join(sorted(keys)).encode("utf-8")
        assert hashlib.sha256(joined).hexdigest() == self.KEYS_DIGEST
