"""Command-line entry points.

Subcommands:

  ingest            read a conversation JSONL file, build a graph, save it
  query             load a graph and print the injected context for a question
  export            dump a graph as backslash-escaped TSV node and edge lines
  bench run         planted-fact benchmark across memory conditions
  bench sweep       threshold, rag, or alpha sweep tables
  bench recall      retrieval-only keyword recall per hop budget

Benchmark outputs embed the resolved configuration and seed and contain no
timestamps, so a rerun with the same arguments is byte-identical. Every file
a command writes (the graph, the export TSV, the bench JSONL) replaces its
path in one step, so a failed write leaves any old file as it was.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import stat
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

import numpy as np

from .backends import BackendBundle
from .benchmark import (
    CONDITIONS,
    THRESHOLD_PRESETS,
    BenchmarkCase,
    ConditionResult,
    Variant,
    alpha_settings,
    generate_cases,
    pooled_row,
    rag_settings,
    ref_grid,
    retrieval_recall_eval,
    run_condition,
    run_sweep,
    threshold_settings,
)
from .config import EngineConfig, build_bundle, deep_merge, load_config
from .core import deserialize_graph, serialize_graph
from .engine import CanvasEngine
from .errors import CanvasError
from .extraction import ConversationTurn
from .retrieval import RETRIEVAL_PRESETS, retrieve

log = logging.getLogger(__name__)


def _parse_overrides(pairs: Optional[Sequence[str]]) -> dict:
    """Turn repeated ``--set a.b.c=value`` flags into a nested dict."""
    merged: dict = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        dotted, raw = pair.split("=", 1)
        import yaml  # here, so that a command without --set never loads PyYAML

        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError as exc:
            raise ValueError(f"--set {pair!r} is not valid YAML: {exc}") from exc
        node: dict = {}
        leaf = node
        keys = [k for k in dotted.split(".") if k]
        if not keys:
            raise ValueError(f"--set has an empty key in {pair!r}")
        for key in keys[:-1]:
            leaf[key] = {}
            leaf = leaf[key]
        leaf[keys[-1]] = value
        merged = deep_merge(merged, node)
    return merged


def _load_engine_config(args) -> EngineConfig:
    overrides = _parse_overrides(getattr(args, "set", None))
    if getattr(args, "preset", None):
        overrides["preset"] = args.preset
    return load_config(getattr(args, "config", None), overrides)


def _read_conversation(path: str) -> list[ConversationTurn]:
    turns = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: not valid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{line_no}: a turn must be a JSON object, got {type(record).__name__}"
                )
            if "index" not in record:
                raise ValueError(f"{path}:{line_no}: missing 'index' field")
            try:
                turns.append(
                    ConversationTurn(
                        index=record["index"],
                        user_text=record.get("user", ""),
                        assistant_text=record.get("assistant", ""),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    return turns


def _write_atomic(path: str, data: bytes) -> None:
    """Replace path with data in one step: a failure leaves any old file as it was.

    The new file gets the mode of the file it replaces, or the mode open()
    would give a new one (0o666 less the umask), not mkstemp's 0o600."""
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)  # reading the umask means setting it, so set it back
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, temp = tempfile.mkstemp(prefix=".canvasmem-", suffix=".tmp",
                                dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "wb") as handle:
            os.fchmod(handle.fileno(), mode)
            handle.write(data)
            # On disk before the rename, or a crash can leave path naming a partial file.
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise
    # The rename is on disk only once the directory that holds it is.
    directory = os.open(os.path.dirname(temp), os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


# What would break a TSV line, written as its backslash escape.
_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})


def _tsv(*fields: str) -> str:
    return "\t".join(field.translate(_TSV_ESCAPES) for field in fields)


def _print_table(rows: Sequence[dict], columns: Sequence[str]) -> None:
    if not rows:
        return
    def fmt(value) -> str:
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            return f"{value:.3f}"
        if value is None:
            return "-"
        return str(value)
    rendered = [[fmt(row.get(col)) for col in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)]
    print("  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)))
    for r in rendered:
        print("  ".join(r[i].ljust(widths[i]) for i in range(len(columns))))


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def cmd_ingest(args) -> int:
    config = _load_engine_config(args)
    bundle = build_bundle(config)
    turns = _read_conversation(args.input)
    engine = CanvasEngine(
        extractor=bundle.extractor,
        embedder=bundle.embedder,
        thresholds=config.thresholds,
        gleaning=config.gleaning,
    )
    report = engine.ingest(turns)
    _write_atomic(args.graph, serialize_graph(engine.graph))
    print(
        f"ingested {report.turns_ingested} turns "
        f"({report.turns_skipped} failed), "
        f"{report.objects_added} objects, "
        f"{report.edges_added} edges, "
        f"{report.dropped_quotes} ungrounded quotes dropped"
    )
    return 0


def cmd_query(args) -> int:
    config = _load_engine_config(args)
    bundle = build_bundle(config)
    with open(args.graph, "rb") as handle:
        graph = deserialize_graph(handle.read())
    block = retrieve(graph, args.question, bundle.embedder, config.retrieval, bundle.reranker)
    if args.answer:
        print(bundle.answerer.answer(args.question, block))
    else:
        print(block, end="")
    return 0


def cmd_export(args) -> int:
    with open(args.graph, "rb") as handle:
        graph = deserialize_graph(handle.read())
    lines = [_tsv("node", o.id, o.kind.value, str(o.turn), f"{o.confidence:.6f}", o.content,
                  o.quote) for o in sorted(graph.objects.values(), key=lambda o: (o.turn, o.id))]
    lines += [_tsv("edge", e.src, e.dst, e.kind.value, f"{e.weight:.6f}", e.origin.value)
              for e in sorted(graph.edges, key=lambda e: (e.src, e.dst, e.kind.value))]
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.output:
        _write_atomic(args.output, text.encode("utf-8"))
    else:
        print(text, end="")
    return 0


def _result_row(result: ConditionResult) -> dict:
    return {
        "kind": "result",
        "condition": result.condition,
        "variant": result.variant.value,
        "seed": result.seed,
        "aggregates": dataclasses.asdict(result.aggregates),
        "records": [
            {
                "question": r.question,
                "label": r.label,
                "fuzzy": r.fuzzy,
                "exact": r.exact,
                "keyword_coverage": r.keyword_coverage,
                "answered": r.answered,
            }
            for r in result.records
        ],
    }


def _bench_prelude(
    args, kind: str,
) -> tuple[EngineConfig, BackendBundle, list[BenchmarkCase], dict]:
    """What every bench command starts from: the config, its backends, the
    cases the bench options describe, and the header line of the output."""
    config = _load_engine_config(args)
    if args.cases is not None:
        try:
            config.bench = dataclasses.replace(config.bench, cases=args.cases)
        except ValueError as exc:
            raise ValueError(f"--cases {args.cases}: {exc}") from exc
    bundle = build_bundle(config)
    variant = Variant(args.variant)
    cases = generate_cases(
        config.bench.cases,
        variant,
        base_seed=args.seed,
        tagged=not args.untagged,
        n_turns=config.bench.n_turns,
        compression_turn=config.bench.compression_turn,
        facts_per_case=config.bench.facts_per_case,
        stories_per_case=config.bench.stories_per_case,
    )
    header = {
        "kind": kind,
        "base_seed": args.seed,
        "cases": config.bench.cases,
        "variant": variant.value,
        "config": config.to_dict(),
        "tagged": not args.untagged,
    }
    return config, bundle, cases, header


def _report(args, table: Sequence[dict], columns: Sequence[str],
            header: dict, rows: Sequence[dict]) -> int:
    """Print the table; with --output, write the header and the rows as JSONL."""
    _print_table(table, columns)
    if args.output:
        lines = [json.dumps(row, sort_keys=True) + "\n" for row in (header, *rows)]
        _write_atomic(args.output, "".join(lines).encode("utf-8"))
        print(f"wrote {args.output}")
    return 0


def cmd_bench_run(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    config, bundle, cases, header = _bench_prelude(args, "bench-run")
    conditions = args.conditions.split(",") if args.conditions else list(CONDITIONS)
    for condition in conditions:
        if condition not in CONDITIONS:
            raise ValueError(f"unknown condition {condition!r}")

    tasks = [(case, condition) for condition in conditions for case in cases]
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(
                pool.map(lambda t: run_condition(t[0], t[1], bundle, config), tasks)
            )
    else:
        results = [run_condition(case, condition, bundle, config) for case, condition in tasks]

    summary = [
        {"condition": condition,
         **pooled_row([r for r in results if r.condition == condition])}
        for condition in conditions
    ]
    header["conditions"] = conditions
    return _report(
        args, summary,
        ["condition", "questions", "recall_rate", "exact_rate",
         "keyword_coverage", "pass_rate", "causal_coverage", "impact_coverage"],
        header, [_result_row(r) for r in results],
    )


def cmd_bench_sweep(args) -> int:
    config, bundle, cases, header = _bench_prelude(args, f"bench-sweep-{args.kind}")
    condition = "canvas"
    if args.kind == "threshold":
        settings = threshold_settings(config, ref_grid() if args.grid else THRESHOLD_PRESETS)
    elif args.kind == "rag":
        settings, condition = rag_settings(config), "rag"
    else:
        settings = alpha_settings(config)
    rows = run_sweep(cases, bundle, settings, condition)
    # The label fields of a setting lead its row's columns.
    columns = [*settings[0][0], "questions", "recall_rate", "exact_rate",
               "keyword_coverage", "pass_rate"]
    return _report(args, rows, columns, header, [{"kind": "row", **row} for row in rows])


def cmd_bench_recall(args) -> int:
    try:
        hops_list = [int(h) for h in args.hops.split(",")]
    except ValueError as exc:
        raise ValueError(f"--hops {args.hops!r}: {exc}") from exc
    # Checked here, before the prelude generates every case.
    for hops in hops_list:
        if hops < 0:
            raise ValueError(f"--hops {args.hops!r}: a hop budget must be non-negative, "
                             f"got {hops}")
    config, bundle, cases, header = _bench_prelude(args, "bench-recall")
    rows = retrieval_recall_eval(cases, bundle, config, hops_list)
    return _report(args, rows, ["hops", "questions", "recall"],
                   header, [{"kind": "row", **row} for row in rows])


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML configuration file")
    parser.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override a configuration key, dotted path (repeatable)",
    )


def _add_bench_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cases", type=int, default=None, help="number of generated cases")
    parser.add_argument("--seed", type=int, default=0, help="base seed for case generation")
    parser.add_argument(
        "--variant", choices=[v.value for v in Variant], default=Variant.STANDARD.value,
    )
    parser.add_argument(
        "--untagged", action="store_true",
        help="plant facts as natural sentences instead of tagged markers",
    )
    parser.add_argument("--output", help="write results as JSONL")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canvasmem",
        description="Typed conversation memory: extraction, graph, retrieval, benchmark.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="build a graph from a conversation JSONL file")
    p_ingest.add_argument("--input", required=True, help="conversation JSONL path")
    p_ingest.add_argument("--graph", required=True, help="graph JSON output path")
    _add_config_flags(p_ingest)
    p_ingest.set_defaults(func=cmd_ingest)

    p_query = sub.add_parser("query", help="print the injected context for a question")
    p_query.add_argument("question")
    p_query.add_argument("--graph", required=True, help="graph JSON path")
    p_query.add_argument("--answer", action="store_true", help="run the answer backend too")
    p_query.add_argument("--preset", choices=list(RETRIEVAL_PRESETS), default=None)
    _add_config_flags(p_query)
    p_query.set_defaults(func=cmd_query)

    p_export = sub.add_parser("export", help="dump a graph as TSV node and edge lines")
    p_export.add_argument("--graph", required=True, help="graph JSON path")
    p_export.add_argument("--output", help="TSV output path, stdout when omitted")
    p_export.set_defaults(func=cmd_export)

    p_bench = sub.add_parser("bench", help="planted-fact benchmark")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    p_run = bench_sub.add_parser("run", help="evaluate memory conditions")
    p_run.add_argument(
        "--conditions", default=None,
        help=f"comma-separated subset of {','.join(CONDITIONS)}",
    )
    p_run.add_argument("--jobs", type=int, default=1, help="thread pool size")
    _add_bench_flags(p_run)
    _add_config_flags(p_run)
    p_run.set_defaults(func=cmd_bench_run)

    p_sweep = bench_sub.add_parser("sweep", help="threshold, rag, or alpha sweeps")
    p_sweep.add_argument("--kind", choices=["threshold", "rag", "alpha"], required=True)
    p_sweep.add_argument(
        "--grid", action="store_true",
        help="threshold sweep only: use the bare reference grid instead of presets",
    )
    _add_bench_flags(p_sweep)
    _add_config_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_bench_sweep)

    p_recall = bench_sub.add_parser("recall", help="retrieval-only keyword recall per hop budget")
    p_recall.add_argument("--hops", default="0,1", help="comma-separated hop budgets")
    _add_bench_flags(p_recall)
    _add_config_flags(p_recall)
    p_recall.set_defaults(func=cmd_bench_recall)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    # An embedding whose dot product with itself overflows is refused with
    # one error line; numpy's overflow warning would print two lines more.
    try:
        with np.errstate(over="ignore"):
            return args.func(args)
    except (CanvasError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
