"""Partitioned transition relations: the all-corpus union, end to end.

The paper's whole-deployment scenario taken to corpus scale: ONE union
environment containing all 82 evaluation apps (~2^115 domain-product
states, 89 shared attribute blocks, ~270 relation fragments).  The
monolithic relation encoding cannot even finish *encoding* this union
(every fragment's frame constraint mentions every variable block; the
fused disjunction explodes — measured: >10 minutes before timeout).
The partitioned encoding keeps the disjunctive fragment partition with
early quantification and no frames at all, and must check the whole
corpus under a wall-clock ceiling.

The crossover benchmark grows prefixes of the corpus through both
encodings and records where the partition overtakes the monolithic
relation, plus peak BDD node counts for both — the measured numbers
behind :data:`repro.model.encoder.PARTITION_FRAGMENT_THRESHOLD`.
"""

import os
import time

import pytest

from repro.corpus.batch import analyze_corpus
from repro.corpus.loader import app_ids
from repro.corpus.sweep import sweep_dataset
from repro.model.encoder import SymbolicUnionModel
from repro.model.union import build_union_skeleton, estimate_union_states
from repro.pipeline.stages import CheckConfig
from repro.soteria import analyze_environment

#: Wall-clock ceiling for symbolically checking the full 82-app corpus
#: union.  Local runs finish in ~35 s; the ceiling leaves headroom for
#: slow CI hardware and can be widened via the environment.
ALL_CORPUS_CEILING_SECONDS = float(
    os.environ.get("REPRO_ALL_CORPUS_CEILING", "300")
)

#: Per-prefix encoding ceiling for the crossover measurement: the
#: monolithic side is abandoned (not failed) beyond it, because past the
#: crossover it rapidly needs minutes-to-hours.
CROSSOVER_ENCODE_CEILING_SECONDS = 20.0


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
        kwargs={"backend": "symbolic", "encoding": "partitioned"},
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
    assert outcome.environment.encoding == "partitioned"   # auto resolved
    assert outcome.violated_ids()


@pytest.mark.parametrize("size", [8, 16, 24, 40])
def test_partitioned_vs_monolithic_crossover(
    benchmark, corpus_models, size, bench_json
):
    """Encode the same corpus prefix both ways; record times and peak
    node counts.  Small unions favor the fused relation (images are one
    and_exists), wide unions are partition-only territory — the measured
    crossover is why ``auto`` switches at the fragment-count threshold."""
    skeleton = build_union_skeleton(corpus_models[:size])

    start = time.perf_counter()
    partitioned = benchmark.pedantic(
        SymbolicUnionModel,
        args=(skeleton,),
        kwargs={"encoding": "partitioned"},
        rounds=1,
        iterations=1,
    )
    partitioned_s = time.perf_counter() - start
    partitioned_peak = partitioned.bdd.allocated_nodes()

    monolithic_s = None
    monolithic_peak = None
    start = time.perf_counter()
    try:
        import signal

        class _Timeout(Exception):
            pass

        def _abort(signum, frame):
            raise _Timeout

        old = signal.signal(signal.SIGALRM, _abort)
        signal.alarm(int(CROSSOVER_ENCODE_CEILING_SECONDS))
        try:
            monolithic = SymbolicUnionModel(skeleton, encoding="monolithic")
            monolithic_s = time.perf_counter() - start
            monolithic_peak = monolithic.bdd.allocated_nodes()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
    except _Timeout:
        pass

    fragments = len(partitioned.fragments)
    bench_json(
        f"crossover_{size}_apps",
        {
            "apps": size,
            "fragments": fragments,
            "partitioned": {
                "seconds": round(partitioned_s, 3),
                "peak_nodes": partitioned_peak,
            },
            "monolithic": (
                None
                if monolithic_s is None
                else {
                    "seconds": round(monolithic_s, 3),
                    "peak_nodes": monolithic_peak,
                }
            ),
        },
    )
    if monolithic_s is None:
        print(
            f"\n{size} apps / {fragments} fragments: partitioned "
            f"{partitioned_s:.2f}s (peak {partitioned_peak} nodes), "
            f"monolithic ABANDONED past {CROSSOVER_ENCODE_CEILING_SECONDS:.0f}s"
        )
        return
    assert monolithic.state_count() == partitioned.state_count()
    winner = "partitioned" if partitioned_s < monolithic_s else "monolithic"
    print(
        f"\n{size} apps / {fragments} fragments: partitioned "
        f"{partitioned_s:.2f}s (peak {partitioned_peak} nodes), monolithic "
        f"{monolithic_s:.2f}s (peak {monolithic_peak} nodes) -> {winner}"
    )
    if size >= 24:
        # Past the threshold neighborhood the partition must have won,
        # on both time and peak table size.
        assert partitioned_s < monolithic_s
        assert partitioned_peak < monolithic_peak
