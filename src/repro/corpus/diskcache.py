"""The fleet tier's key adapter over the artifact store.

Every whole-result cache lives in :class:`~repro.pipeline.store.ArtifactStore`
stages (``analysis``, ``sweep``, ``shape``, ``fleet``); see
:mod:`repro.pipeline.store` for the on-disk layout.  :class:`FleetCache`
only turns a canonical household key (:func:`repro.fleet.canon.household_key`)
plus the :class:`~repro.pipeline.stages.CheckConfig` key of a screen into
a ``fleet`` artifact key, so isomorphic households share one entry and a
screen with a forced ``--backend``/``--kernel`` or another
budget is never served a verdict a differently configured screen
produced.

It stays a class, rather than two store calls inline in the fleet
driver, because its ``get``/``put`` are the fleet probe the benchmark's
layer tracer (``perfbench/layers.py``) times.
"""

from __future__ import annotations

from repro.fleet.telemetry import HouseholdVerdict
from repro.pipeline.stages import CheckConfig
from repro.pipeline.store import ArtifactStore, artifact_key

__all__ = ["FleetCache"]


class FleetCache:
    """Household verdicts in the ``fleet`` stage of one store."""

    STAGE = "fleet"

    def __init__(self, store: ArtifactStore, config: CheckConfig):
        self.store = store
        self.knobs = {"config": config.key()}

    def key_for(self, canonical_key: str) -> str:
        return artifact_key(self.STAGE, [canonical_key], self.knobs)

    def get(self, canonical_key: str) -> HouseholdVerdict | None:
        """The stored verdict for one canonical household, or None."""
        return self.store.get(
            self.STAGE, self.key_for(canonical_key), HouseholdVerdict
        )

    def put(self, canonical_key: str, verdict: HouseholdVerdict) -> None:
        self.store.put(self.STAGE, self.key_for(canonical_key), verdict)
