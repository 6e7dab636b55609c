"""Command-line front end: ``soteria`` / ``python -m repro``.

Subcommands::

    soteria analyze app.groovy [--dot out.dot] [--smv out.smv]
    soteria env app1.groovy ... [--backend B] [--kernel K]
    soteria corpus [official|thirdparty|maliot|all] [--jobs N] [--cache-dir D]
    soteria sweep [official|thirdparty|maliot|all] [--jobs N] [--cache-dir D]
                  [--pairs] [--all-corpus] [--backend B] [--kernel K]
    soteria fuzz [--seed S] [--count N] [--jobs N] [--out DIR]
                 [--mix DATASET] [--kernel K]
                 [--replay DIR]
    soteria fleet [--households N] [--seed S] [--jobs N] [--cache-dir D]
                  [--templates T] [--variants V] [--telemetry-out F]
                  [--blocklist-out F]
    soteria serve [--host H] [--port P] [--jobs N] [--cache-dir D]
                  [--state-dir D] [--pool process|thread]
                  [--max-pending N] [--tenant-quota N] [--job-ttl S]
    soteria cache [--cache-dir D] [--clear]
    soteria list-properties

``--backend`` selects the union-model checker: ``explicit`` (materialize
the product Kripke structure), ``symbolic`` (BDD-compiled relation, no
product enumeration), or the default ``auto`` (explicit under the state
budget, symbolic above it) — so oversized interaction clusters are
*checked*, not skipped.

The symbolic checker keeps the relation as a disjunctive fragment
partition with early quantification, which scales to arbitrarily wide
unions.  ``sweep --all-corpus`` runs the extreme case: one union
environment containing *every* app of the dataset (the full 82-app
corpus for ``all``, ~2^115 product states), checked symbolically end to
end.

``--kernel`` selects the BDD kernel the symbolic checker runs on:
``fast`` (the array-backed core — the default behind ``auto``),
or ``reference`` (the dict-of-nodes manager, kept as the differential
oracle).
``fuzz --kernel both`` runs every symbolic pass on reference AND fast,
turning each case into a cross-kernel differential.  Symbolic runs print
a kernel-stats block (live/peak nodes, cache hit rate, reorders) after
the report — the per-process aggregate of the same counters the service
exposes under ``/v1/stats``.

``fuzz`` synthesizes scenario apps beyond the bundled corpus
(:mod:`repro.gen`) and differentially cross-checks the two backends on
every generated environment; injected violations must be flagged by the
matching property.  Failing cases are shrunk to minimal reproducers
under ``--out`` and can be re-run with ``--replay``.

``serve`` runs the analysis-as-a-service HTTP API
(:mod:`repro.service`): POST SmartApp sources to ``/v1/submissions``
(namespaced per tenant via the ``X-Soteria-Tenant`` header), poll job
status and decoded violation witnesses, and read per-stage
artifact-cache counters plus per-tenant job counts from ``/v1/stats``.
Identical resubmissions are deduplicated against the durable job store.
Admission is bounded — at ``--max-pending`` unsettled jobs (or
``--tenant-quota`` for one tenant) new submissions get 429 +
``Retry-After`` — and ``--job-ttl`` garbage-collects settled records
(memory + disk) after that many seconds.  Workers default to a process
pool (``--pool thread`` forces the in-process pool).  ``cache``
inspects a staged artifact cache directory — per-stage entry/byte
counts, from ``parse`` through the fleet's ``shape`` (one canonical app
shape per member source) and ``fleet`` (household verdict) tiers — and
``--clear`` empties it.

``fleet`` screens a simulated fleet of households — seeded
popularity-weighted installation profiles over the corpus +
``repro.gen`` synthetics — through the canonical-form dedup engine
(:mod:`repro.fleet`): isomorphic households (renamed devices/apps,
permuted members) share one cached verdict, so a million households
screen on one machine.  The run prints aggregate telemetry and the
violation blocklist feed (app combinations known to violate), both
exportable as JSON.

Exit status is 1 when any analyzed app/environment violates a property
(for ``fuzz``: when any case fails either oracle), 0 when everything is
clean, and 2 on usage errors.  ``sweep`` and ``fleet`` exit 3 when
nothing violated but some candidate group's / household's analysis
*failed* outright (e.g. a forced explicit backend hitting the state
budget) — an incomplete screen is not a clean one.
"""

from __future__ import annotations

import argparse
import sys

from repro.mc.kernel import KERNEL_CHOICES, aggregate_kernel_stats
from repro.pipeline.stages import BACKENDS, CheckConfig
from repro.service.app import (
    DEFAULT_TENANT_QUOTA as TENANT_QUOTA_DEFAULT,
    MAX_PENDING_JOBS as MAX_PENDING_JOBS_DEFAULT,
)
from repro.reporting.dot import to_dot
from repro.reporting.report import render_report
from repro.reporting.smv import to_smv
from repro.soteria import analyze_app, analyze_environment


def _worker_count(text: str) -> int:
    """``--jobs`` parser: a non-negative worker count (0/1 = serial)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _print_kernel_stats(aggregates: dict[str, dict] | None = None) -> None:
    """Render the process-wide BDD-kernel counters, cache-table style.

    Nothing is printed when no symbolic check ran (explicit-only runs
    have no kernel to report on).
    """
    if aggregates is None:
        aggregates = aggregate_kernel_stats()
    for name in sorted(aggregates):
        agg = aggregates[name]
        hit_rate = agg.get("hit_rate")
        print(f"\nBDD kernel {name}: {agg['runs']} symbolic check(s)")
        for label, value in (
            ("peak nodes", agg.get("peak_nodes")),
            ("max live nodes", agg.get("max_live_nodes")),
            ("cache lookups", agg.get("cache_lookups")),
            ("cache hit rate", None if hit_rate is None else f"{hit_rate:.1%}"),
            ("gc runs", agg.get("gc_runs")),
            ("nodes collected", agg.get("nodes_collected")),
            ("reorders", agg.get("reorders")),
        ):
            if value is not None:
                print(f"  {label:16s} {value}")


def _cmd_analyze(args: argparse.Namespace) -> int:
    with open(args.app, encoding="utf-8") as handle:
        source = handle.read()
    analysis = analyze_app(source, kernel=args.kernel)
    print(render_report(analysis))
    # The symbolic fallback (models past the extractor budget) has no
    # materialized transitions: exporting would silently write an empty
    # graph / an SMV module with no transition relation.
    exportable = analysis.backend == "explicit"
    for flag, renderer, label in (
        (args.dot, to_dot, "state model"),
        (args.smv, to_smv, "SMV module"),
    ):
        if not flag:
            continue
        if not exportable:
            print(
                f"\n{label} NOT written to {flag}: the model was checked "
                "symbolically (too wide to materialize), so there are no "
                "explicit transitions to export"
            )
            continue
        with open(flag, "w", encoding="utf-8") as out:
            out.write(renderer(analysis.model))
        print(f"\n{label} written to {flag}")
    _print_kernel_stats()
    return 1 if analysis.violations else 0


def _cmd_env(args: argparse.Namespace) -> int:
    sources = []
    for path in args.apps:
        with open(path, encoding="utf-8") as handle:
            sources.append(handle.read())
    environment = analyze_environment(
        sources,
        backend=args.backend,
        kernel=args.kernel,
    )
    print(render_report(environment))
    _print_kernel_stats()
    return 1 if environment.violations else 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.corpus.batch import analyze_corpus
    from repro.corpus.loader import app_ids

    datasets = (
        ["official", "thirdparty", "maliot"] if args.dataset == "all" else [args.dataset]
    )
    # One sweep (one worker pool) even for "all"; print grouped per dataset.
    analyses = analyze_corpus(args.dataset, jobs=args.jobs, cache_dir=args.cache_dir)
    failures = 0
    for dataset in datasets:
        print(f"== dataset: {dataset}")
        for name in app_ids(dataset):
            analysis = analyses[name]
            ids = sorted(analysis.violated_ids())
            status = "VIOLATIONS " + ", ".join(ids) if ids else "clean"
            print(f"  {name:12s} {analysis.model.size():4d} states  {status}")
            failures += bool(ids)
    print(f"\n{failures} app(s) with violations")
    return 1 if failures else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.corpus.sweep import (
        DEFAULT_MAX_UNION_STATES,
        environment_only_ids,
        sweep_dataset,
    )

    budget = DEFAULT_MAX_UNION_STATES if args.max_states is None else args.max_states
    outcomes = sweep_dataset(
        args.dataset,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        pairwise=args.pairs,
        config=CheckConfig(args.backend, args.kernel, budget),
        all_corpus=args.all_corpus,
    )
    kind = "pair" if args.pairs else "group"
    if args.all_corpus:
        kind = "all-corpus union"
    print(f"== sweep: {args.dataset} ({len(outcomes)} candidate {kind}s)")
    failures = 0
    failed = 0
    for outcome in outcomes:
        label = "+".join(outcome.group)
        if len(outcome.group) > 16:
            label = f"{'+'.join(outcome.group[:3])}+...({len(outcome.group)} apps)"
        if outcome.failed:
            print(f"  {label}: FAILED ({outcome.error})")
            failed += 1
            continue
        environment = outcome.environment
        ids = sorted(environment.violated_ids())
        env_only = sorted(environment_only_ids(environment))
        status = "VIOLATIONS " + ", ".join(ids) if ids else "clean"
        tag = ""
        if environment.backend != "explicit":
            tag = f" [{environment.backend}"
            if environment.encoding is not None:
                tag += f"/{environment.encoding}"
            if environment.kernel is not None:
                tag += f"/{environment.kernel}"
            tag += "]"
        estimate = environment.state_estimate
        shown = (
            f"~2^{estimate.bit_length() - 1}" if estimate >= 1 << 40 else str(estimate)
        )
        print(f"  {label}: union {shown} states{tag}  {status}")
        if env_only:
            print(f"    environment-only: {', '.join(env_only)}")
        failures += bool(ids)
    print(f"\n{failures} environment(s) with violations, {failed} failed")
    _print_kernel_stats()
    if failures:
        return 1
    # Failed groups were never verified: "no violations found" is not
    # "clean", so signal the incomplete sweep distinctly for CI gates.
    return 3 if failed else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.corpus.fuzz import FuzzConfig, replay, run_fuzz

    if args.replay:
        reproduced, message = replay(args.replay)
        print(message)
        return 1 if reproduced else 0

    config = FuzzConfig(mix_dataset=args.mix, kernel=args.kernel)
    report = run_fuzz(
        seed=args.seed,
        count=args.count,
        jobs=args.jobs,
        config=config,
        out_dir=args.out,
    )
    print(f"== fuzz: seed {args.seed}, {args.count} case(s)")
    for result in report.results:
        label = "+".join(result.app_ids)
        inject = f" [inject {', '.join(result.injected)}]" if result.injected else ""
        line = (
            f"  case {result.index:3d} {result.kind:7s} {label}{inject}"
            f"  union {result.state_estimate} states  {result.status.upper()}"
        )
        print(line)
        if not result.ok:
            print(f"    {result.detail}")
    injected = report.injected_total()
    rate = report.detection_rate()
    print(
        f"\n{len(report.failures())} failing case(s); injected violations "
        f"detected: {report.detected_total()}/{injected} "
        f"({rate:.0%})" if injected else
        f"\n{len(report.failures())} failing case(s); nothing injected"
    )
    if report.failures() and args.out:
        print(f"shrunk reproducers written under {args.out}/")
    return 0 if report.ok else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from repro.fleet.blocklist import combo_label
    from repro.fleet.driver import FleetOptions, run_fleet
    from repro.fleet.profiles import FleetProfile

    profile = FleetProfile(
        seed=args.seed,
        templates=args.templates,
        variants=args.variants,
        corpus_weight=args.corpus_weight,
        inject_rate=args.inject_rate,
    )
    options = FleetOptions(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        backend=args.backend,
        kernel=args.kernel,
        **({} if args.max_states is None else {"max_union_states": args.max_states}),
    )
    result = run_fleet(profile, args.households, options)
    telemetry = result.telemetry
    print(
        f"== fleet: {telemetry.households} household(s) screened "
        f"(seed {profile.seed}, {profile.templates} templates x "
        f"{profile.variants} variants)"
    )
    print(
        f"  byte-distinct {telemetry.byte_distinct}, canonical-distinct "
        f"{telemetry.canonical_distinct}, fresh checks "
        f"{telemetry.fresh_checks}, disk hits {telemetry.disk_hits}"
    )
    print(
        f"  cache hit rate {telemetry.hit_rate:.2%}, "
        f"{telemetry.households_per_second:,.0f} households/sec "
        f"({telemetry.elapsed:.1f}s)"
    )
    print(
        f"  violating: {telemetry.violating_households} household(s) "
        f"({telemetry.violating_distinct} canonical), failed: "
        f"{telemetry.failed_households} ({telemetry.failed_checks} canonical)"
    )
    if telemetry.by_property:
        top = sorted(telemetry.by_property.items(), key=lambda kv: (-kv[1], kv[0]))
        shown = ", ".join(f"{pid} x{count}" for pid, count in top[:8])
        print(f"  properties: {shown}")
    entries = result.blocklist["entries"]
    print(f"\nblocklist: {len(entries)} violating combination(s)")
    for entry in entries[:10]:
        combo = combo_label(entry["combination"])
        if len(entry["combination"]) > 6:
            combo = (
                combo_label(entry["combination"][:3])
                + f"+...({len(entry['combination'])} apps)"
            )
        print(
            f"  {entry['id']}  {combo}  "
            f"{', '.join(entry['properties'])}  "
            f"({entry['households']} household(s), {entry['share']:.1%})"
        )
    if len(entries) > 10:
        print(f"  ... and {len(entries) - 10} more")
    if args.telemetry_out:
        with open(args.telemetry_out, "w", encoding="utf-8") as out:
            json.dump(telemetry.to_json(), out, indent=2)
            out.write("\n")
        print(f"\ntelemetry written to {args.telemetry_out}")
    if args.blocklist_out:
        with open(args.blocklist_out, "w", encoding="utf-8") as out:
            json.dump(result.blocklist, out, indent=2)
            out.write("\n")
        print(f"blocklist feed written to {args.blocklist_out}")
    _print_kernel_stats()
    return result.exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.app import serve

    serve(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        state_dir=args.state_dir,
        jobs=args.jobs,
        pool=args.pool,
        max_pending=args.max_pending,
        tenant_quota=args.tenant_quota,
        job_ttl=args.job_ttl,
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.pipeline.store import ArtifactStore, resolve_cache_dir

    root = resolve_cache_dir(args.cache_dir)
    if root is None:
        print(
            "no cache directory: pass --cache-dir or set $REPRO_CACHE_DIR",
            file=sys.stderr,
        )
        return 2
    store = ArtifactStore(root)
    if args.clear:
        store.clear_disk()
        print(f"cleared staged artifact cache under {root}")
        return 0
    info = store.cache_info()
    print(f"staged artifact cache at {root} (pipeline v{store.version})")
    print(f"  {'stage':10s} {'entries':>8s} {'bytes':>12s}")
    total_entries = 0
    total_bytes = 0
    for stage, stats in info["stages"].items():
        print(f"  {stage:10s} {stats['entries']:8d} {stats['bytes']:12d}")
        total_entries += stats["entries"]
        total_bytes += stats["bytes"]
    print(f"  {'total':10s} {total_entries:8d} {total_bytes:12d}")
    if total_entries == 0:
        print("  (empty)")
    return 0


def _cmd_list_properties(_args: argparse.Namespace) -> int:
    from repro.properties.appspecific import APP_SPECIFIC_PROPERTIES

    print("General properties (checked at model construction):")
    for pid, text in (
        ("S.1", "no conflicting attribute values on one path"),
        ("S.2", "no repeated identical attribute writes on one path"),
        ("S.3", "complement events must not produce the same value"),
        ("S.4", "non-complement events must not race to conflicting values"),
        ("S.5", "handled events must be subscribed"),
        ("DET", "the extracted state model must be deterministic"),
    ):
        print(f"  {pid:5s} {text}")
    print("\nApp-specific properties (CTL, checked when devices present):")
    for spec in APP_SPECIFIC_PROPERTIES:
        print(f"  {spec.id:5s} {spec.description}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="soteria",
        description="Soteria: automated IoT safety and security analysis "
        "(USENIX ATC 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze a single app")
    p_analyze.add_argument("app", help="path to a SmartThings .groovy file")
    p_analyze.add_argument("--dot", help="write the state model as GraphViz DOT")
    p_analyze.add_argument("--smv", help="write the state model as NuSMV input")
    p_analyze.add_argument(
        "--kernel",
        choices=list(KERNEL_CHOICES),
        default="auto",
        help="BDD kernel if the app is too wide to check explicitly "
        "(see `soteria env --help`)",
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_env = sub.add_parser("env", help="analyze apps installed together")
    p_env.add_argument("apps", nargs="+", help="paths to .groovy files")
    p_env.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default="auto",
        help="union checker: explicit Kripke, symbolic BDDs, or auto "
        "(explicit under the state budget, symbolic above; default)",
    )
    p_env.add_argument(
        "--kernel",
        choices=list(KERNEL_CHOICES),
        default="auto",
        help="BDD kernel for the symbolic checker: the array-backed "
        "fast core (the auto default) or the reference dict-of-nodes "
        "manager",
    )
    p_env.set_defaults(func=_cmd_env)

    p_corpus = sub.add_parser("corpus", help="run over the bundled corpus")
    p_corpus.add_argument(
        "dataset",
        nargs="?",
        default="all",
        choices=["official", "thirdparty", "maliot", "all"],
    )
    p_corpus.add_argument(
        "--jobs",
        type=_worker_count,
        default=None,
        help="worker processes for the sweep (default: auto; 1 = serial)",
    )
    p_corpus.add_argument(
        "--cache-dir",
        default=None,
        help="persist analyses under this directory (default: $REPRO_CACHE_DIR)",
    )
    p_corpus.set_defaults(func=_cmd_corpus)

    p_sweep = sub.add_parser(
        "sweep", help="multi-app union analysis over corpus environments"
    )
    p_sweep.add_argument(
        "dataset",
        nargs="?",
        default="all",
        choices=["official", "thirdparty", "maliot", "all"],
    )
    p_sweep.add_argument(
        "--jobs",
        type=_worker_count,
        default=None,
        help="worker processes for the sweep (default: auto; 1 = serial)",
    )
    p_sweep.add_argument(
        "--cache-dir",
        default=None,
        help="persist analyses under this directory (default: $REPRO_CACHE_DIR)",
    )
    p_sweep.add_argument(
        "--pairs",
        action="store_true",
        help="sweep device-sharing app pairs instead of maximal groups",
    )
    p_sweep.add_argument(
        "--all-corpus",
        action="store_true",
        help="check ONE union environment containing every app of the "
        "dataset (the paper's whole-deployment scenario at corpus "
        "scale; rides the symbolic backend's partitioned relation)",
    )
    p_sweep.add_argument(
        "--max-states",
        type=int,
        default=None,
        help="explicit/symbolic crossover per environment under the auto "
        "backend (default: the sweep engine's 10000); with --backend "
        "explicit, larger groups fail instead",
    )
    p_sweep.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default="auto",
        help="union checker (see `soteria env --help`)",
    )
    p_sweep.add_argument(
        "--kernel",
        choices=list(KERNEL_CHOICES),
        default="auto",
        help="BDD kernel for symbolic union checks (see `soteria env "
        "--help`); sweep results are cached per kernel",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="generate scenario apps and differential-test both backends",
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default 0)"
    )
    p_fuzz.add_argument(
        "--count", type=int, default=25, help="cases to run (default 25)"
    )
    p_fuzz.add_argument(
        "--jobs",
        type=_worker_count,
        default=None,
        help="worker processes (default: auto; 1 = serial)",
    )
    p_fuzz.add_argument(
        "--out",
        default="fuzz-reproducers",
        help="directory for shrunk reproducers of failing cases "
        "(default: fuzz-reproducers)",
    )
    p_fuzz.add_argument(
        "--mix",
        default=None,
        choices=["official", "thirdparty", "maliot"],
        help="mix synthetic apps into this corpus dataset's device "
        "neighborhoods (cross-dataset clusters)",
    )
    p_fuzz.add_argument(
        "--kernel",
        choices=[*KERNEL_CHOICES, "both"],
        default="auto",
        help="BDD kernel(s) for the symbolic passes; 'both' runs every "
        "symbolic pass on the reference AND the fast kernel — a "
        "cross-kernel differential on every case",
    )
    p_fuzz.add_argument(
        "--replay",
        default=None,
        help="re-run a persisted reproducer directory instead of fuzzing",
    )
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_fleet = sub.add_parser(
        "fleet",
        help="screen a simulated fleet of households (canonical-form "
        "dedup + blocklist feed)",
    )
    p_fleet.add_argument(
        "--households",
        type=int,
        default=100_000,
        help="households to sample and screen (default 100000; 1000000 "
        "completes on one machine in bounded memory)",
    )
    p_fleet.add_argument(
        "--seed", type=int, default=0, help="fleet seed (default 0)"
    )
    p_fleet.add_argument(
        "--templates",
        type=int,
        default=150,
        help="distinct household templates in the population (default 150)",
    )
    p_fleet.add_argument(
        "--variants",
        type=int,
        default=4,
        help="renamed skins per template — the byte-diversity the "
        "canonical form must collapse (default 4)",
    )
    p_fleet.add_argument(
        "--corpus-weight",
        type=float,
        default=0.25,
        help="probability a template mixes corpus apps in (default 0.25)",
    )
    p_fleet.add_argument(
        "--inject-rate",
        type=float,
        default=0.4,
        help="violation-injection rate for synthetic members (default 0.4)",
    )
    p_fleet.add_argument(
        "--jobs",
        type=_worker_count,
        default=1,
        help="worker processes for the household checks, in the pool "
        "corpus, sweep and fuzz also use (default 1 = serial)",
    )
    p_fleet.add_argument(
        "--cache-dir",
        default=None,
        help="persist stage artifacts and fleet verdicts under this "
        "directory (default: $REPRO_CACHE_DIR)",
    )
    p_fleet.add_argument(
        "--max-states",
        type=int,
        default=None,
        help="explicit/symbolic crossover per household union (default: "
        "the fleet engine's 512 — far below sweep's, because symbolic "
        "checking is what makes fleet throughput possible)",
    )
    p_fleet.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default="auto",
        help="union checker (see `soteria env --help`)",
    )
    p_fleet.add_argument(
        "--kernel",
        choices=list(KERNEL_CHOICES),
        default="auto",
        help="BDD kernel for symbolic checks (see `soteria env --help`)",
    )
    p_fleet.add_argument(
        "--telemetry-out",
        default=None,
        help="write the run's telemetry counters as JSON to this file",
    )
    p_fleet.add_argument(
        "--blocklist-out",
        default=None,
        help="write the violation blocklist feed as JSON to this file",
    )
    p_fleet.set_defaults(func=_cmd_fleet)

    p_serve = sub.add_parser(
        "serve", help="run the analysis-as-a-service HTTP API"
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=8765, help="bind port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--jobs", type=int, default=2, help="analysis workers (default 2)"
    )
    p_serve.add_argument(
        "--cache-dir",
        default=None,
        help="share stage artifacts via this directory "
        "(default: $REPRO_CACHE_DIR, else memory-only)",
    )
    p_serve.add_argument(
        "--state-dir",
        default=None,
        help="persist job records under this directory (survives restarts)",
    )
    p_serve.add_argument(
        "--pool",
        choices=["process", "thread"],
        default="process",
        help="worker pool flavor (default: process, falling back to "
        "threads when multiprocessing is unavailable; 'thread' forces "
        "the in-process pool)",
    )
    p_serve.add_argument(
        "--max-pending",
        type=int,
        default=MAX_PENDING_JOBS_DEFAULT,
        help="admission bound on unsettled jobs; past it submissions "
        f"get 429 + Retry-After (default {MAX_PENDING_JOBS_DEFAULT})",
    )
    p_serve.add_argument(
        "--tenant-quota",
        type=int,
        default=TENANT_QUOTA_DEFAULT,
        help="per-tenant bound on unsettled jobs, keyed on the "
        f"X-Soteria-Tenant header (default {TENANT_QUOTA_DEFAULT})",
    )
    p_serve.add_argument(
        "--job-ttl",
        type=float,
        default=None,
        help="garbage-collect settled job records (memory + disk "
        "mirror) after this many seconds (default: keep forever)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the staged artifact cache"
    )
    p_cache.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR)",
    )
    p_cache.add_argument(
        "--clear", action="store_true", help="delete every cached artifact"
    )
    p_cache.set_defaults(func=_cmd_cache)

    p_list = sub.add_parser("list-properties", help="show the property catalog")
    p_list.set_defaults(func=_cmd_list_properties)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
