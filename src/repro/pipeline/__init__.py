"""Staged analysis pipeline with content-addressed artifacts.

The Fig. 3 call chain (``parse -> ir -> model -> kripke/encode ->
check``) decomposed into addressable stages:

* :mod:`repro.pipeline.store` — the two-layer artifact store keyed on
  ``(stage, input digests, knobs, PIPELINE_VERSION)``;
* :mod:`repro.pipeline.stages` — each stage as a pure artifact-producing
  function;
* :mod:`repro.pipeline.runner` — :class:`Pipeline`, the orchestrator
  that chains keys, replays cached artifacts, and assembles the public
  result dataclasses;
* :mod:`repro.pipeline.results` — :class:`AppAnalysis` /
  :class:`EnvironmentAnalysis` (re-exported by :mod:`repro.soteria`).

Everything above — the ``soteria`` CLI, the corpus batch/sweep/fuzz
drivers, and the :mod:`repro.service` HTTP layer — drives analyses
through this package.
"""

from repro.pipeline.results import AppAnalysis, EnvironmentAnalysis
from repro.pipeline.runner import Pipeline, default_pipeline, pipeline_for
from repro.pipeline.stages import (
    AUTO_SYMBOLIC_THRESHOLD,
    BACKENDS,
    CheckConfig,
    CheckOutcome,
    source_digest,
)
from repro.pipeline.store import (
    CACHE_DIR_ENV,
    PIPELINE_VERSION,
    ArtifactStore,
    artifact_key,
    resolve_cache_dir,
)

__all__ = [
    "AUTO_SYMBOLIC_THRESHOLD",
    "BACKENDS",
    "CACHE_DIR_ENV",
    "PIPELINE_VERSION",
    "AppAnalysis",
    "ArtifactStore",
    "CheckConfig",
    "CheckOutcome",
    "EnvironmentAnalysis",
    "Pipeline",
    "artifact_key",
    "default_pipeline",
    "pipeline_for",
    "resolve_cache_dir",
    "source_digest",
]
