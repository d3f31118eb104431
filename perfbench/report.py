"""Turns measurements into the printed report and the result object."""

from __future__ import annotations

import json

from .harness import (
    Measurement,
    Workload,
    end_to_end,
    graph_shape,
    measure,
    named,
)
from .trace import LAYERS, MEASURED, SETUP, Breakdown, Tracer, breakdown


def _metrics(values: dict[str, tuple[float, str]]) -> dict[str, dict]:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _print_metrics(title: str, values: dict[str, tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in values.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")


def describe(m: Measurement) -> dict:
    """Generator parameters, graph shape, digests and counts of one run."""
    w = m.run.workload
    rec = m.run.rec
    return {
        "workload": w.name,
        "why": w.why,
        "generator": m.run.conv.describe(),
        "graph": graph_shape(m.graph),
        "measured_s": m.measured_s,
        "setup_s": m.setup_s,
        "samples": {kind: len(values) for kind, values in sorted(m.samples.items())},
        "graph_sha256": m.graph_sha256,
        "blocks_sha256": m.blocks_sha256,
        "attempted": rec.attempted,
        "failed": rec.failed,
    }


def _print_header(info: dict) -> None:
    print(f"workload {info['workload']}: {info['why']}")
    print(f"  generator: {json.dumps(info['generator'])}")
    print(f"  graph: {json.dumps(info['graph'])}")
    print(f"  measured {info['measured_s']:.3f} s, "
          f"samples {json.dumps(info['samples'])}")
    print(f"  set-ups {json.dumps([round(v, 4) for v in info['setup_s']])} s")
    print(f"  graph_sha256 {info['graph_sha256']}")
    print(f"  blocks_sha256 {info['blocks_sha256']}")
    print(f"  attempted {info['attempted']}, failed {info['failed']}")


def run_timed(workload: Workload, seed: int, workdir) -> dict:
    m = measure(workload, seed, workdir)
    info = describe(m)
    e2e = end_to_end(m)
    by_name = named(m)
    _print_header(info)
    _print_metrics("end-to-end:", e2e)
    _print_metrics("by operation:", by_name)
    print("report " + json.dumps({**info, "end_to_end": _metrics(e2e), "by_operation": _metrics(by_name)}))
    rec = m.run.rec
    return {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": _metrics(e2e),
    }


def _ms(ns: float) -> float:
    return ns / 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(b: Breakdown, counts: dict[str, float], graph_bytes: int,
                  edge_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one breakdown and the result tallies."""
    pairs = b.leaf_calls["scoring.cosine"]
    edges = counts.get("edges_added", 0)
    expanded = counts.get("expanded_candidates", 0)
    out: dict[str, tuple[float, str]] = {
        "graph_build.link_self_ms": (_ms(b.self_by_name["graph_build.link_object"]), "ms"),
        "graph_build.pairs_compared": (pairs, "count"),
        "graph_build.edges_added": (edges, "count"),
        "graph_build.edge_yield": (_ratio(edges, pairs), "ratio"),
    }
    for origin in ("SIMILARITY", "KEYWORD", "TEMPORAL_HEURISTIC"):
        out[f"graph_build.edges.{origin}"] = (counts.get(f"edges.{origin}", 0), "count")
    for short, leaf in (("cosine", "scoring.cosine"), ("jaccard", "scoring.jaccard"),
                        ("hybrid", "scoring.hybrid")):
        out[f"scoring.{short}_calls"] = (b.leaf_calls[leaf], "count")
        out[f"scoring.{short}_ms"] = (_ms(b.leaf_ns[leaf]), "ms")
    out["scoring.embed_calls"] = (b.span_calls["scoring.embed"], "count")
    out["scoring.embed_ms"] = (_ms(b.span_ns["scoring.embed"]), "ms")
    out["extraction.backend_calls"] = (b.span_calls["extraction.backend"], "count")
    out["extraction.backend_ms"] = (_ms(b.span_ns["extraction.backend"]), "ms")
    out["extraction.prior_digest_ms"] = (_ms(b.span_ns["extraction.prior_digest"]), "ms")
    out["extraction.candidates"] = (counts.get("candidates", 0), "count")
    out["engine.ingest_self_ms"] = (_ms(b.self_by_name["engine.ingest_turn"]), "ms")
    for stage in ("plan", "coarse", "expand", "rerank", "pack", "render"):
        out[f"retrieval.{stage}_ms"] = (_ms(b.span_ns[f"retrieval.{stage}"]), "ms")
    out["retrieval.objects_scored"] = (b.leaf_calls["scoring.hybrid"], "count")
    out["retrieval.expanded_candidates"] = (expanded, "count")
    out["retrieval.block_tokens"] = (
        _ratio(counts.get("block_tokens", 0), counts.get("queries", 0)), "count")
    out["retrieval.expanded_packed_ratio"] = (
        _ratio(counts.get("selected_expanded", 0), expanded), "ratio")
    out["retrieval.packed_ratio"] = (
        _ratio(counts.get("selected", 0), counts.get("ranked", 0)), "ratio")
    out["core.snapshot_ms"] = (_ms(b.span_ns["core.snapshot"]), "ms")
    out["core.serialize_ms"] = (_ms(b.span_ns["core.serialize"]), "ms")
    out["core.deserialize_ms"] = (_ms(b.span_ns["core.deserialize"]), "ms")
    out["core.graph_bytes"] = (graph_bytes, "B")
    out["core.edge_bytes_share"] = (_ratio(edge_bytes, graph_bytes), "ratio")
    out["core.add_object_ms"] = (_ms(b.leaf_ns["core.add_object"]), "ms")
    out["core.add_edge_calls"] = (b.leaf_calls["core.add_edge"], "count")
    out["core.add_edge_ms"] = (_ms(b.leaf_ns["core.add_edge"]), "ms")
    for layer in LAYERS:
        out[f"self_ms.{layer}"] = (_ms(b.self_ns[layer]), "ms")
    return out


def _edge_bytes(data: bytes) -> int:
    """Bytes the edge records take in a serialized graph, in its compact form."""
    edges = json.loads(data.decode("utf-8"))["edges"]
    return len(json.dumps(edges, ensure_ascii=False, separators=(",", ":")).encode("utf-8"))


def run_traced(workload: Workload, seed: int, workdir) -> dict:
    """One set-up and pass untraced, then the same set-up and pass traced."""
    from canvasmem.core import serialize_graph

    plain = measure(workload, seed, workdir, repeats=1)
    tracer = Tracer()
    with tracer.hooks() as absent:
        traced = measure(workload, seed, workdir, tracer=tracer, repeats=1)
    same = (plain.graph_sha256, plain.blocks_sha256) == (traced.graph_sha256, traced.blocks_sha256)
    traced.run.rec.tally(1, [] if same else ["traced output differs"], "traced vs untraced")

    counts: dict[str, float] = {}
    for (phase, key), value in tracer.counts.items():
        if phase in (SETUP, MEASURED):
            counts[key] = counts.get(key, 0) + value
    data = serialize_graph(traced.graph)
    whole = breakdown(tracer.spans, tracer.orphans, (SETUP, MEASURED))
    per_layer = layer_metrics(whole, counts, len(data), _edge_bytes(data))
    measured = breakdown(tracer.spans, tracer.orphans, (MEASURED,))
    layer_sum = sum(measured.self_ns[layer] for layer in LAYERS)
    per_layer["trace.overhead"] = (
        _ratio(traced.measured_ms, plain.measured_ms), "ratio")
    per_layer["trace.coverage"] = (_ratio(layer_sum, traced.measured_busy_ns), "ratio")
    per_layer["trace.hooks_absent"] = (len(absent), "count")

    info = describe(traced)
    _print_header(info)
    if absent:
        print(f"  hooks absent: {', '.join(absent)}")
    phases = {}
    for phase in (SETUP, MEASURED):
        part = breakdown(tracer.spans, tracer.orphans, (phase,))
        total = sum(part.self_ns[layer] for layer in LAYERS)
        phases[phase] = {layer: _ms(part.self_ns[layer]) for layer in LAYERS}
        shares = ", ".join(
            f"{layer} {_ratio(part.self_ns[layer], total):.1%}" for layer in LAYERS)
        print(f"  {phase} self time {_ms(total):.1f} ms: {shares}")
    _print_separation(measured, traced.measured_busy_ns, sum(traced.wall_samples.get("read", [])))
    _print_metrics("per layer (set-up and measured phase):", per_layer)
    print("report " + json.dumps({**info, "self_ms_by_phase": phases, "per_layer": _metrics(per_layer)}))
    failed = plain.run.rec.failed + traced.run.rec.failed
    return {
        "correct": failed == 0,
        "attempted": plain.run.rec.attempted + traced.run.rec.attempted,
        "failed": failed,
        "metrics": _metrics(per_layer),
    }


def _print_separation(b: Breakdown, busy_ns: int, read_ms: float) -> None:
    """Shares of the measured phase that show which layers a workload loads."""
    pairwise = b.self_ns["graph_build"] + b.leaf_ns["scoring.cosine"] + b.leaf_ns["scoring.jaccard"]
    query = b.self_ns["retrieval"] + b.leaf_ns["scoring.hybrid"]
    snapshot = b.span_ns["core.snapshot"]
    print(f"  measured phase, share of traced op time: graph_build+pairwise scoring "
          f"{_ratio(pairwise, busy_ns):.1%}, retrieval+hybrid {_ratio(query, busy_ns):.1%}, "
          f"core.snapshot {_ratio(snapshot, busy_ns):.1%}"
          + (f" ({_ratio(_ms(snapshot), read_ms):.1%} of read time)" if read_ms else ""))
