"""Evaluation corpus (Soteria Sec. 6).

* ``apps/official`` — 35 "official market" apps O1-O35 (vetted; individually
  clean; some participate in the Table 4 multi-app groups),
* ``apps/thirdparty`` — 30 community apps TP1-TP30 (nine violate properties
  individually — Table 3),
* ``apps/maliot`` — the 17-app MalIoT suite with 20 ground-truth violations
  (Appendix C).

The original corpora are closed (fetched from the SmartThings market/forum
in 2017 and the IoTBench repository); these apps are reconstructions from
the paper's per-app descriptions, engineered so the violation structure of
Tables 3-4 and Appendix C reproduces exactly.
"""

from repro.corpus.loader import (
    app_ids,
    load_app,
    load_corpus,
    load_environment_sources,
)
from repro.corpus.batch import analyze_batch, analyze_corpus
from repro.corpus.sweep import (
    SweepOutcome,
    environment_only_ids,
    groups_sharing_devices,
    pairs,
    sweep_dataset,
    sweep_environments,
)
from repro.corpus import groundtruth
from repro.pipeline.store import PIPELINE_VERSION

__all__ = [
    "PIPELINE_VERSION",
    "SweepOutcome",
    "analyze_batch",
    "analyze_corpus",
    "app_ids",
    "environment_only_ids",
    "groups_sharing_devices",
    "load_app",
    "load_corpus",
    "load_environment_sources",
    "pairs",
    "sweep_dataset",
    "sweep_environments",
    "groundtruth",
]
