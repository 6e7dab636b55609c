"""Partitioned transition relations: the all-corpus union, end to end.

The paper's whole-deployment scenario taken to corpus scale: ONE union
environment containing all 82 evaluation apps (~2^115 domain-product
states, 89 shared attribute blocks, ~270 relation fragments).  A fused
relation with frame constraints cannot even finish *encoding* this union
(every fragment's frame mentions every variable block; the disjunction
explodes — measured: >10 minutes before timeout).  The partitioned
relation keeps the disjunctive fragment partition with early
quantification and no frames at all, and must check the whole corpus
under a wall-clock ceiling.
"""

import os
import time

import pytest

from repro.corpus.batch import analyze_corpus
from repro.corpus.loader import app_ids
from repro.corpus.sweep import sweep_dataset
from repro.model.union import estimate_union_states
from repro.pipeline.stages import CheckConfig
from repro.soteria import analyze_environment

#: Wall-clock ceiling for symbolically checking the full 82-app corpus
#: union.  Local runs finish in ~35 s; the ceiling leaves headroom for
#: slow CI hardware and can be widened via the environment.
ALL_CORPUS_CEILING_SECONDS = float(
    os.environ.get("REPRO_ALL_CORPUS_CEILING", "300")
)


@pytest.fixture(scope="module")
def corpus_models():
    analyses = analyze_corpus("all")
    ids = [a for ds in ("official", "thirdparty", "maliot") for a in app_ids(ds)]
    return [analyses[app_id].model for app_id in ids]


def test_all_corpus_union_checked_partitioned(benchmark, corpus_models, bench_json):
    analyses = analyze_corpus("all")
    ids = [a for ds in ("official", "thirdparty", "maliot") for a in app_ids(ds)]
    members = [analyses[app_id] for app_id in ids]
    estimate = estimate_union_states([m.model for m in members])
    assert estimate > 1 << 100          # astronomically past any budget

    start = time.perf_counter()
    environment = benchmark.pedantic(
        analyze_environment,
        args=(list(members),),
        kwargs={"backend": "symbolic"},
        rounds=1,
        iterations=1,
    )
    elapsed = time.perf_counter() - start

    assert environment.backend == "symbolic"
    assert environment.encoding == "partitioned"
    assert environment.kripke is None
    assert environment.union_model.states == []
    assert elapsed < ALL_CORPUS_CEILING_SECONDS, (
        f"all-corpus check took {elapsed:.1f}s "
        f"(ceiling {ALL_CORPUS_CEILING_SECONDS:.0f}s)"
    )
    # The corpus-wide union must still surface the curated multi-app
    # ground truth (the MalIoT chains live inside it).
    violated = environment.violated_ids()
    assert {"P.3", "P.14"} <= violated
    assert environment.multi_app_violations()
    bench_json(
        "all_corpus_partitioned_check",
        {
            "apps": 82,
            "seconds": round(elapsed, 3),
            "kernel": environment.kernel,
            "peak_nodes": (environment.kernel_stats or {}).get("peak_nodes"),
            "violated_property_ids": sorted(violated),
        },
    )
    print(
        f"\n82-app union (~2^{estimate.bit_length() - 1} states) checked "
        f"in {elapsed:.1f}s; {len(violated)} property ids violated"
    )


def test_all_corpus_sweep_mode_has_no_failures(corpus_models):
    """`soteria sweep --all-corpus` semantics: one outcome, never failed."""
    outcomes = sweep_dataset(
        "all", jobs=1, all_corpus=True, config=CheckConfig("symbolic")
    )
    (outcome,) = outcomes
    assert len(outcome.group) == 82
    assert not outcome.failed
    assert outcome.environment.encoding == "partitioned"
    assert outcome.violated_ids()

