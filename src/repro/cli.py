"""The command-line interface: build, ingest, scenario, inspect, query,
ask, serve, verify.

Eight subcommands expose the end-to-end system without writing Python::

    python -m repro build --seed 7 --people 120 --out kb.nt
    python -m repro ingest --segments segdir --seed 7 --people 120 --upto 100
    python -m repro scenario list
    python -m repro scenario evaluate --all --enforce-floors
    python -m repro stats --kb kb.nt
    python -m repro query --kb kb.nt --subject world:Viktor_Adler
    python -m repro ask --kb kb.nt "Where was Viktor Adler born?"
    python -m repro serve --kb kb.nt --port 8765
    python -m repro check-determinism --runs 3

``build`` generates a synthetic world + encyclopedia and runs the full
harvesting pipeline (``--segments DIR`` additionally emits the KB as a
byte-pinned segment directory); ``ingest`` grows a segment directory
incrementally — each invocation ingests a slice of the corpus as a delta
generation (``--start``/``--upto`` over sorted page titles), optionally
retracts facts through tombstones (``--retract S P O``) and compacts the
generation stack (``--compact``); ``stats``/``query``/``ask`` operate on
any saved KB file; ``serve`` answers ``/lookup``, ``/query``, ``/topk``,
``/healthz``, and ``/metrics`` over HTTP with an identity-keyed result
cache — from a ``.nt`` file (``--kb``) or lock-free from a segment
snapshot (``--segments``); ``scenario`` lists, builds, and quality-scores
the named stress workloads of :mod:`repro.world.scenarios` (``evaluate``
prints one greppable ``scenario:`` telemetry line per profile and
``--enforce-floors`` fails the process when any pinned quality floor is
violated — the CI-lite stress matrix); ``check-determinism`` rebuilds the KB
``--runs`` times in fresh subprocesses, run ``i`` under
``PYTHONHASHSEED=i``, and verifies every run's ``.nt`` bytes and segment
files equal run 0's
(``--incremental`` also proves, per run, that delta ingestion equals a
one-shot rebuild byte for byte).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import Optional, Sequence

from . import obs
from .analytics.qa import TemplateQA
from .corpus import build_wiki
from .extraction.resolution import NameResolver
from .kb import Entity, Literal, Relation, load, ns, save
from .pipeline import KnowledgeBaseBuilder
from .world import WorldConfig, generate_world


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Knowledge-base construction and analytics toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser(
        "build", help="generate a world and harvest a knowledge base from it"
    )
    build.add_argument("--seed", type=int, default=7)
    build.add_argument("--people", type=int, default=120)
    build.add_argument("--out", required=True, help="output .nt file")
    build.add_argument(
        "--segments",
        default=None,
        metavar="DIR",
        help="also emit the KB as a byte-pinned segment directory "
        "(SPO/POS/OSP order files + bloom sidecars + manifest)",
    )
    build.add_argument(
        "--trace",
        action="store_true",
        help="print a span tree and metrics table for the pipeline run",
    )

    ingest = commands.add_parser(
        "ingest",
        help="grow a segment directory incrementally, one delta at a time",
    )
    ingest.add_argument(
        "--segments", required=True, metavar="DIR",
        help="segment directory to grow (created on first ingest; holds "
        "the builder state file alongside the segment files)",
    )
    ingest.add_argument("--seed", type=int, default=7)
    ingest.add_argument("--people", type=int, default=120)
    ingest.add_argument(
        "--start", type=int, default=0,
        help="first page of the batch (index into sorted page titles)",
    )
    ingest.add_argument(
        "--upto", type=int, default=None,
        help="end of the batch, exclusive (default: all remaining pages)",
    )
    ingest.add_argument(
        "--retract", nargs=3, action="append", default=None,
        metavar=("S", "P", "O"),
        help="retract a fact by canonical term texts, e.g. "
        "'<world:X>' '<<rel:bornIn>>' '<world:Y>' — tombstoned in this "
        "delta and erased from every future snapshot (repeatable)",
    )
    ingest.add_argument(
        "--compact", action="store_true",
        help="fold the generation stack to canonical single-segment form "
        "after the ingest (drops tombstones for good)",
    )

    scenario = commands.add_parser(
        "scenario",
        help="list, build, or quality-score the named stress workloads",
    )
    scenario_actions = scenario.add_subparsers(dest="action", required=True)
    scenario_actions.add_parser(
        "list", help="show every shipped scenario profile"
    )
    scenario_build = scenario_actions.add_parser(
        "build", help="build one scenario's KB through the real pipeline"
    )
    scenario_build.add_argument(
        "--name", required=True, help="scenario profile, e.g. burst_social"
    )
    scenario_build.add_argument(
        "--out", default=None, help="write the built KB to this .nt file"
    )
    scenario_build.add_argument(
        "--segments", default=None, metavar="DIR",
        help="also emit the KB as a byte-pinned segment directory",
    )
    scenario_eval = scenario_actions.add_parser(
        "evaluate",
        help="build scenario(s) and score extraction + KB quality "
        "against gold (one greppable 'scenario:' line each)",
    )
    scenario_eval.add_argument(
        "--name", action="append", default=None,
        help="profile to evaluate (repeatable; default with --all: all)",
    )
    scenario_eval.add_argument(
        "--all", action="store_true", help="evaluate every shipped profile"
    )
    scenario_eval.add_argument(
        "--enforce-floors", action="store_true",
        help="exit 1 if any scenario scores below its pinned quality floor",
    )
    scenario_eval.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the scores as a JSON document",
    )

    stats = commands.add_parser("stats", help="summarize a saved knowledge base")
    stats.add_argument("--kb", required=True)

    query = commands.add_parser("query", help="match triples in a saved KB")
    query.add_argument("--kb", required=True)
    query.add_argument("--subject", help="subject id, e.g. world:Viktor_Adler")
    query.add_argument("--predicate", help="relation id, e.g. rel:bornIn")
    query.add_argument("--object", dest="object_", help="object entity id")
    query.add_argument("--limit", type=int, default=20)

    ask = commands.add_parser("ask", help="answer a natural-language question")
    ask.add_argument("--kb", required=True)
    ask.add_argument("question", help='e.g. "Where was Viktor Adler born?"')

    serve = commands.add_parser(
        "serve", help="serve a saved KB over HTTP with a cached query engine"
    )
    serve.add_argument("--kb", help="saved .nt KB file to serve")
    serve.add_argument(
        "--segments",
        default=None,
        metavar="DIR",
        help="serve a segment directory through a lock-free immutable "
        "snapshot instead of an in-memory store",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8765, help="listen port (0 = ephemeral)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="handler threads (0 = server default; an explicit 1 means "
        "exactly one server thread)",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="result-cache capacity (entries)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log each request to stderr"
    )

    determinism = commands.add_parser(
        "check-determinism",
        help="verify the build is byte-identical across processes",
    )
    determinism.add_argument(
        "--runs", type=int, default=2,
        help="number of fresh-subprocess builds; run i runs under "
        "PYTHONHASHSEED=i",
    )
    determinism.add_argument("--seed", type=int, default=7)
    determinism.add_argument(
        "--people", type=int, default=40,
        help="world size per run (small default keeps the check fast)",
    )
    determinism.add_argument(
        "--skip-lint", action="store_true",
        help="only run the subprocess comparison, not the iteration lint",
    )
    determinism.add_argument(
        "--incremental", action="store_true",
        help="also verify, in every run, that delta ingestion (two batches "
        "+ a tombstoned retraction + compaction) is byte-identical to a "
        "one-shot rebuild",
    )

    return parser


def _command_build(args, out) -> int:
    print(f"Generating world (seed={args.seed}, people={args.people}) ...", file=out)
    world = generate_world(WorldConfig(seed=args.seed, n_people=args.people))
    wiki = build_wiki(world)
    print(f"Harvesting from {len(wiki.pages)} pages ...", file=out)
    if args.trace:
        obs.reset()
        obs.enable()
    try:
        kb, report = KnowledgeBaseBuilder(wiki, aliases=world.aliases).build()
    finally:
        if args.trace:
            obs.disable()
    count = save(kb, args.out)
    if args.segments is not None:
        from .pipeline import emit_segments

        manifest = emit_segments(kb, args.segments)
        print(
            f"Emitted {len(manifest['segments'])} segment(s) "
            f"({manifest['triples']} triples, epoch {manifest['epoch'][:12]}…) "
            f"to {args.segments}",
            file=out,
        )
    print(
        f"Accepted {report.accepted_facts} facts "
        f"({report.consistency.rejected} rejected by consistency reasoning); "
        f"wrote {count} triples to {args.out}",
        file=out,
    )
    if args.trace:
        print("\n--- trace ---", file=out)
        print(obs.render_trace(), file=out)
        print("\n--- metrics ---", file=out)
        print(obs.render_metrics(), file=out)
    return 0


def _command_ingest(args, out) -> int:
    from .pipeline import IncrementalBuilder

    if args.start < 0:
        print("error: --start must be non-negative", file=out)
        return 2
    print(
        f"Generating world (seed={args.seed}, people={args.people}) ...",
        file=out,
    )
    world = generate_world(WorldConfig(seed=args.seed, n_people=args.people))
    wiki = build_wiki(world)
    titles = sorted(wiki.pages)
    upto = len(titles) if args.upto is None else min(args.upto, len(titles))
    batch = [wiki.pages[title] for title in titles[args.start:upto]]
    retract = [tuple(key) for key in (args.retract or [])]
    print(
        f"Ingesting pages [{args.start}, {upto}) of {len(titles)} "
        f"into {args.segments} ...",
        file=out,
    )
    builder = IncrementalBuilder(args.segments)
    try:
        report = builder.ingest(
            pages=batch,
            aliases=world.aliases,
            retract=retract,
            compact=args.compact,
        )
    finally:
        builder.close()
    lines = {
        "ingest": {
            "batch_pages": report.batch_pages,
            "total_pages": report.total_pages,
            "affected_names": report.affected_names,
        },
        "extraction": {
            "reextracted": report.reextracted_pages,
            "cached_pages": report.cached_pages,
        },
        "reasoning": {"components": report.components},
        "delta": {
            "segment": report.segment,
            "added": report.added,
            "tombstones": report.tombstones,
            "retracted": report.retracted,
            "compacted": report.compacted,
        },
    }
    for prefix, fields in lines.items():
        print(obs.telemetry_line(prefix, fields), file=out)
    print(
        f"epoch: {report.epoch_before[:12]} -> {report.epoch_after[:12]}",
        file=out,
    )
    print(
        f"{report.triples} triples total in {report.elapsed:.2f}s",
        file=out,
    )
    return 0


def _command_scenario(args, out) -> int:
    from .world.scenarios import SCENARIOS, build_scenario

    if args.action == "list":
        print(f"{len(SCENARIOS)} scenario profiles:", file=out)
        for name, spec in SCENARIOS.items():
            print(f"  {name:<18} [{spec.stresses}]", file=out)
            print(f"      {spec.description}", file=out)
            print(
                f"      seeds: world={spec.world.seed} wiki={spec.wiki.seed} "
                f"corpus={spec.corpus.seed}"
                + (f" social={spec.social.seed}" if spec.social else ""),
                file=out,
            )
        return 0

    if args.action == "build":
        try:
            bundle = build_scenario(args.name)
        except KeyError as error:
            print(f"error: {error.args[0]}", file=out)
            return 2
        print(
            f"Building scenario {args.name} "
            f"({len(bundle.wiki.pages)} pages) ...",
            file=out,
        )
        kb, report = KnowledgeBaseBuilder(
            bundle.wiki, aliases=bundle.world.aliases
        ).build()
        fields = {
            "name": args.name,
            "pages": report.pages,
            "sentences": report.sentences,
            "triples": len(kb),
            "accepted": report.accepted_facts,
            "fingerprint": bundle.fingerprint(),
        }
        print(obs.telemetry_line("scenario", fields), file=out)
        if args.out is not None:
            count = save(kb, args.out)
            print(f"wrote {count} triples to {args.out}", file=out)
        if args.segments is not None:
            from .pipeline import emit_segments

            manifest = emit_segments(kb, args.segments)
            print(
                f"emitted {len(manifest['segments'])} segment(s) "
                f"({manifest['triples']} triples) to {args.segments}",
                file=out,
            )
        return 0

    # evaluate
    from .eval.scenarios import check_floors, evaluate_matrix

    if args.name and args.all:
        print("error: pass --name or --all, not both", file=out)
        return 2
    names = None if args.all or not args.name else list(args.name)
    unknown = [n for n in names or [] if n not in SCENARIOS]
    if unknown:
        known = ", ".join(SCENARIOS)
        print(f"error: unknown scenario(s) {unknown} (known: {known})", file=out)
        return 2
    scores = evaluate_matrix(names)
    for score in scores:
        print(score.telemetry(), file=out)
    violations = check_floors(scores)
    if args.json is not None:
        import json

        payload = [
            {
                "name": score.name,
                "pages": score.pages,
                "sentences": score.sentences,
                "triples": score.triples,
                "build_seconds": score.build_seconds,
                "extraction": {
                    "precision": score.extraction.precision,
                    "recall": score.extraction.recall,
                    "f1": score.extraction.f1,
                },
                "kb": {
                    "precision": score.kb.precision,
                    "recall": score.kb.recall,
                    "f1": score.kb.f1,
                },
                "knobs": score.knobs,
                "fingerprint": score.fingerprint,
                "incremental_identical": score.incremental_identical,
            }
            for score in scores
        ]
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(
                {"scores": payload, "violations": violations}, handle, indent=2
            )
        print(f"wrote scores to {args.json}", file=out)
    if violations:
        for violation in violations:
            print(f"floor violation: {violation}", file=out)
        if args.enforce_floors:
            return 1
    elif args.enforce_floors:
        print(f"floors: all {len(scores)} scenario(s) above their floors", file=out)
    return 0


def _command_stats(args, out) -> int:
    kb = load(args.kb)
    predicates: Counter = Counter()
    scoped = 0
    for triple in kb:
        predicates[triple.predicate.id] += 1
        if triple.scope is not None:
            scoped += 1
    print(f"{len(kb)} triples, {len(kb.entities())} entities, "
          f"{scoped} temporally scoped", file=out)
    for predicate, count in predicates.most_common(15):
        print(f"  {count:>6}  {predicate}", file=out)
    return 0


def _command_query(args, out) -> int:
    kb = load(args.kb)
    subject = Entity(args.subject) if args.subject else None
    predicate = Relation(args.predicate) if args.predicate else None
    object_ = Entity(args.object_) if args.object_ else None
    shown = 0
    for triple in kb.match(subject=subject, predicate=predicate, obj=object_):
        print(f"  {triple}  (conf={triple.confidence:.2f})", file=out)
        shown += 1
        if shown >= args.limit:
            print(f"  ... (limited to {args.limit})", file=out)
            break
    if shown == 0:
        print("  no matching triples", file=out)
    return 0


def _command_ask(args, out) -> int:
    kb = load(args.kb)
    resolver = NameResolver()
    for triple in kb.match(predicate=ns.PREF_LABEL):
        if isinstance(triple.object, Literal):
            resolver.add(triple.object.value, triple.subject, count=5)
    qa = TemplateQA(kb, resolver)
    answers = qa.answer(args.question)
    if not answers:
        print("no answer", file=out)
        return 1
    for answer in answers[:5]:
        print(f"  {answer.text}  (conf={answer.confidence:.2f})", file=out)
    return 0


def _command_serve(args, out) -> int:
    from .serving import serve_kb

    if args.workers < 0:
        print("error: --workers must be non-negative", file=out)
        return 2
    if args.cache_size < 1:
        print("error: --cache-size must be positive", file=out)
        return 2
    if (args.kb is None) == (args.segments is None):
        print("error: pass exactly one of --kb or --segments", file=out)
        return 2
    if args.segments is not None:
        from .kb.segments import open_snapshot

        try:
            kb = open_snapshot(args.segments)
        except (OSError, ValueError) as error:
            print(f"error: cannot open segment snapshot: {error}", file=out)
            return 2
    else:
        try:
            kb = load(args.kb)
        except OSError as error:
            print(f"error: cannot load KB: {error}", file=out)
            return 2
    server = serve_kb(
        kb,
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_size=args.cache_size,
        verbose=args.verbose,
    )
    host, port = server.address
    source_note = (
        f"segment snapshot {args.segments}" if args.segments is not None
        else "in-memory store"
    )
    print(
        f"Serving {len(kb)} triples ({source_note}) on http://{host}:{port} "
        f"with {server.workers} worker thread(s) "
        f"(cache capacity {args.cache_size}); Ctrl-C to stop",
        file=out,
        flush=True,
    )
    try:
        server.run_forever()
    except KeyboardInterrupt:
        server.shutdown()
        print("shutting down", file=out)
    return 0


def _command_check_determinism(args, out) -> int:
    from .determinism import check, lint_paths

    if args.runs < 2:
        print("error: --runs must be at least 2", file=out)
        return 2
    status = 0
    if not args.skip_lint:
        package_root = __path_of_package()
        findings = lint_paths([package_root])
        if findings:
            for finding in findings:
                print(finding.render(), file=out)
            print(f"lint: {len(findings)} unordered-iteration finding(s)", file=out)
            status = 1
        else:
            print("lint: clean", file=out)
    leg = ", each with an incremental ingest" if args.incremental else ""
    print(
        f"Building {args.runs}x (seed={args.seed}, people={args.people}) "
        f"under distinct PYTHONHASHSEED values{leg} ...",
        file=out,
    )
    report = check(
        seed=args.seed, people=args.people, runs=args.runs,
        incremental=args.incremental,
    )
    print(report.describe(), file=out)
    return status if report.ok else 1


def __path_of_package() -> str:
    import os

    return os.path.dirname(os.path.abspath(__file__))


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    if out is None:
        out = sys.stdout
    args = _build_parser().parse_args(argv)
    handlers = {
        "build": _command_build,
        "ingest": _command_ingest,
        "scenario": _command_scenario,
        "stats": _command_stats,
        "query": _command_query,
        "ask": _command_ask,
        "serve": _command_serve,
        "check-determinism": _command_check_determinism,
    }
    return handlers[args.command](args, out)


if __name__ == "__main__":
    sys.exit(main())
