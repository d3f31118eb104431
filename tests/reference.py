"""A naive reference engine: the one spec of what the pipeline computes.

Everything here scores one pair at a time, with no screen, no index and no
pruning, in the order the pipeline is defined:

- the scalar kernels cosine_sim, token_jaccard, token_coverage,
  document_text and hybrid_score, and the keyword helpers built on them;
- link_object: the three edge rules against every stored object in turn;
- coarse_retrieve: hybrid_score every object, then sort;
- expand_graph: a breadth-first walk over adjacency lists built from
  graph.edges;
- retrieve: coarse, then the full expansion, then rank (a stable sort by
  hybrid score cut to k, each with its hybrid score as its rerank score)
  and pack: render_line for every candidate, a budget that skips a line
  that does not fit and goes on, and the block grouped in KIND_ORDER with
  the class instruction;
- ingest: a CanvasEngine run whose link step is link_object below;
- rag_context: the RAG baseline, every chunk embedded for each question;
- mock_embed: MockEmbedder's vector, built and normalised over every bucket.

The library must match these bit for bit: the same objects and edges (each
weight to the last bit), the same ranks and scores, and byte-equal blocks
(tests/test_reference.py runs the whole pipeline against them). A change
that alters linking or retrieval on purpose edits this file in the same
diff, so the intended change is one readable diff here and every other
output must stay equal.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace
from typing import Sequence
from unittest import mock

import numpy as np

import canvasmem.engine
from canvasmem.benchmark import RAGPreset, chunk_text, render_transcript
from canvasmem.core import CanvasEdge, CanvasGraph, CanvasObject, EdgeKind, EdgeOrigin, ObjectKind
from canvasmem.engine import CanvasEngine
from canvasmem.errors import DimensionMismatchError, MissingEmbeddingError, ZeroVectorError
from canvasmem.extraction import ConversationTurn, MockExtractor
from canvasmem.graph_build import TEMPORAL_SOURCE_KINDS, LinkThresholds
from canvasmem.retrieval import (
    EXPANSION_DECAY,
    INJECTION_HEADER,
    KIND_ORDER,
    REASONING_INSTRUCTION,
    TEMPORAL_INSTRUCTION,
    Provenance,
    QueryClass,
    QueryPlan,
    RetrievalConfig,
    RetrievalResult,
    ScoredObject,
    plan_query,
)
from canvasmem.scoring import DEFAULT_ALPHA, EmbedderBackend, token_set, tokenize


# ---------------------------------------------------------------------------
# Scalar kernels
# ---------------------------------------------------------------------------

def cosine_sim(a: Sequence[float], b: Sequence[float]) -> float:
    """Cosine similarity of two equal-length vectors.

    Raises DimensionMismatchError on length disagreement and ZeroVectorError
    when either vector has zero magnitude.
    """
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.shape != vb.shape or va.ndim != 1:
        raise DimensionMismatchError(f"vector shapes differ: {va.shape} vs {vb.shape}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise ZeroVectorError("cosine similarity is undefined for zero vectors")
    return float(np.dot(va, vb) / (na * nb))


def document_text(obj: CanvasObject) -> str:
    """What keyword coverage reads of an object: its content and its quote."""
    return obj.content + " " + obj.quote


def token_coverage(query: frozenset[str], target: frozenset[str]) -> float:
    """Fraction of the query tokens found in target; 0.0 for an empty query."""
    if not query:
        return 0.0
    return len(query & target) / len(query)


def token_jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    """Jaccard overlap of two token sets; 0.0 when either is empty."""
    if not a or not b:
        return 0.0
    shared = len(a & b)
    return shared / (len(a) + len(b) - shared)


def hybrid_score(
    query_embedding: Sequence[float],
    query_text: str,
    obj: CanvasObject,
    alpha: float = DEFAULT_ALPHA,
) -> float:
    """Blend of clamped cosine similarity and keyword coverage, in [0, 1];
    alpha in [0, 1] weights the cosine."""
    if obj.embedding is None:
        raise MissingEmbeddingError(f"object {obj.id} has no embedding")
    semantic = cosine_sim(query_embedding, obj.embedding)
    semantic = min(1.0, max(0.0, semantic))
    lexical = token_coverage(token_set(query_text), token_set(document_text(obj)))
    return alpha * semantic + (1.0 - alpha) * lexical


def keyword_score(query_text: str, obj: CanvasObject) -> float:
    """The keyword half of hybrid_score: query coverage of content and quote."""
    return token_coverage(token_set(query_text), token_set(document_text(obj)))


def keyword_jaccard(text_a: str, text_b: str) -> float:
    """What a KEYWORD edge weighs: Jaccard of the two contents' token sets."""
    return token_jaccard(token_set(text_a), token_set(text_b))


# ---------------------------------------------------------------------------
# Ingest: the three edge rules, one stored object at a time
# ---------------------------------------------------------------------------

def _clamp01(value: float) -> float:
    return min(1.0, max(0.0, value))


def link_object(
    graph: CanvasGraph, new_obj: CanvasObject, thresholds: LinkThresholds | None = None
) -> list[CanvasEdge]:
    """R1, R2 and R3 between the stored new_obj and every other stored
    object, in insertion order; returns the edges added."""
    if thresholds is None:
        thresholds = LinkThresholds()
    if new_obj.embedding is None:
        raise MissingEmbeddingError(f"object {new_obj.id} has no embedding")
    if new_obj.id not in graph.objects:
        raise ValueError(f"object {new_obj.id} is not stored in the graph")
    added = []
    for other in list(graph.objects.values()):
        if other.id == new_obj.id:
            continue
        if other.embedding is None:
            raise MissingEmbeddingError(f"stored object {other.id} has no embedding")
        sim = cosine_sim(other.embedding, new_obj.embedding)

        reference = None
        if sim >= thresholds.theta_ref:
            reference = CanvasEdge(other.id, new_obj.id, EdgeKind.REFERENCE,
                                   _clamp01(sim), EdgeOrigin.SIMILARITY)
        else:
            overlap = keyword_jaccard(other.content, new_obj.content)
            if overlap >= thresholds.keyword_edge_min:
                reference = CanvasEdge(other.id, new_obj.id, EdgeKind.REFERENCE,
                                       _clamp01(overlap), EdgeOrigin.KEYWORD)

        causal = None
        if (
            (other.kind, new_obj.kind) in thresholds.causal_pairs
            and sim >= thresholds.theta_causal
            and other.turn <= new_obj.turn
        ):
            causal = CanvasEdge(other.id, new_obj.id, EdgeKind.CAUSAL,
                                _clamp01(sim), EdgeOrigin.SIMILARITY)
        if (
            other.kind in TEMPORAL_SOURCE_KINDS
            and new_obj.kind is ObjectKind.DECISION
            and 0 <= new_obj.turn - other.turn <= thresholds.temporal_window
        ):
            if causal is None or causal.weight < 1.0:
                causal = CanvasEdge(other.id, new_obj.id, EdgeKind.CAUSAL,
                                    1.0, EdgeOrigin.TEMPORAL_HEURISTIC)

        for edge in (reference, causal):
            if edge is not None and graph.add_edge(edge):
                added.append(edge)
    return added


def ingest(turns: Sequence[ConversationTurn], embedder: EmbedderBackend) -> CanvasGraph:
    """The graph a CanvasEngine on the mock extractor builds from turns, with
    link_object above as its link step."""
    engine = CanvasEngine(MockExtractor(), embedder)
    with mock.patch.object(canvasmem.engine, "link_object", link_object):
        for turn in turns:
            engine.ingest_turn(turn)
    return engine.graph


# ---------------------------------------------------------------------------
# Query: score everything, walk everything, sort, pack, render
# ---------------------------------------------------------------------------

def coarse_retrieve(
    graph: CanvasGraph, plan: QueryPlan, alpha: float = DEFAULT_ALPHA
) -> list[ScoredObject]:
    """hybrid_score every object; the top coarse_k by score, then higher
    confidence, then lower turn, then id."""
    scored = [
        (hybrid_score(plan.query_embedding, plan.query_text, obj, alpha), obj)
        for obj in graph.objects.values()
    ]
    scored.sort(key=lambda pair: (-pair[0], -pair[1].confidence, pair[1].turn, pair[1].id))
    return [ScoredObject(object_id=obj.id, hybrid=score) for score, obj in scored[: plan.coarse_k]]


def adjacency(graph: CanvasGraph) -> dict[str, list[str]]:
    """Each object's neighbours through graph.edges, both directions, in
    insertion order with repeats."""
    adjacent: dict[str, list[str]] = {}
    for edge in graph.edges:
        adjacent.setdefault(edge.src, []).append(edge.dst)
        adjacent.setdefault(edge.dst, []).append(edge.src)
    return adjacent


def expand_graph(
    graph: CanvasGraph, seeds: Sequence[ScoredObject], hops: int
) -> list[ScoredObject]:
    """The seeds, then every object first reached at hop d = 1..hops with the
    best adjacent score decayed by EXPANSION_DECAY, each hop in (-score, id)
    order."""
    adjacent = adjacency(graph)
    result = list(seeds)
    if hops <= 0 or not seeds:
        return result
    best_score = {s.object_id: s.hybrid for s in seeds}
    frontier = [s.object_id for s in seeds]
    seen = set(frontier)
    for hop in range(1, hops + 1):
        reached: dict[str, float] = {}
        for oid in frontier:
            for neighbor in adjacent.get(oid, ()):
                if neighbor in seen:
                    continue
                inherited = best_score[oid] * EXPANSION_DECAY
                if inherited > reached.get(neighbor, float("-inf")):
                    reached[neighbor] = inherited
        if not reached:
            break
        ordered = sorted(reached.items(), key=lambda item: (-item[1], item[0]))
        for oid, score in ordered:
            seen.add(oid)
            best_score[oid] = score
            result.append(ScoredObject(object_id=oid, hybrid=score,
                                       provenance=Provenance.EXPANDED, hop=hop))
        frontier = [oid for oid, _ in ordered]
    return result


def retrieve(
    graph: CanvasGraph,
    query_text: str,
    embedder: EmbedderBackend,
    config: RetrievalConfig | None = None,
) -> RetrievalResult:
    """The pipeline without a reranker backend: coarse, the full expansion,
    then rank and pack."""
    if config is None:
        config = RetrievalConfig()
    plan = plan_query(query_text, embedder, config)
    return pack(graph, plan, expand_graph(graph, coarse_retrieve(graph, plan, config.alpha),
                                          plan.hops))


def rank(expanded: Sequence[ScoredObject], k: int) -> list[ScoredObject]:
    """Without a reranker the hybrid score is the rerank score: the
    candidates stably sorted by it, descending, and cut to k."""
    return [replace(c, rerank=c.hybrid) for c in sorted(expanded, key=lambda c: -c.hybrid)[:k]]


def render_line(obj: CanvasObject) -> str:
    """One block line: kind tag, turn, verbatim quote, content."""
    return f'- [{obj.kind.value}] (turn {obj.turn}) "{obj.quote}" :: {obj.content}\n'


def pack(graph: CanvasGraph, plan: QueryPlan, expanded: Sequence[ScoredObject]) -> RetrievalResult:
    """rank, then take each ranked candidate whose line's tokens (one per
    four characters, rounded up) fit what is left of the budget, and render
    the taken lines grouped by kind in KIND_ORDER under the header, with
    the class's instruction after them."""
    ranked = rank(expanded, plan.k)
    selected, remaining = [], plan.budget_tokens
    for cand in ranked:
        cost = math.ceil(len(render_line(graph.objects[cand.object_id])) / 4)
        if cost <= remaining:
            selected.append(cand)
            remaining -= cost
    lines = [render_line(graph.objects[c.object_id]) for kind in KIND_ORDER
             for c in selected if graph.objects[c.object_id].kind is kind]
    block = INJECTION_HEADER + "\n" + "".join(lines)
    if plan.klass is QueryClass.MULTI_HOP:
        block += "\n" + REASONING_INSTRUCTION + "\n"
    elif plan.klass is QueryClass.TEMPORAL:
        block += "\n" + TEMPORAL_INSTRUCTION + "\n"
    return RetrievalResult(plan=plan, ranked=ranked, selected=selected, injection=block)


def rag_context(
    turns: Sequence[ConversationTurn], question: str, preset: RAGPreset, embedder: EmbedderBackend
) -> str:
    """The RAG baseline's context for one question: the transcript chunked,
    each chunk embedded for this question, and the top_k chunks by
    cosine_sim (ties by position) joined by blank lines."""
    chunks = chunk_text(render_transcript(turns), preset.chunk_size, preset.overlap)
    query_vec = embedder.embed(question)
    scored = sorted(((cosine_sim(query_vec, embedder.embed(chunk)), idx)
                     for idx, chunk in enumerate(chunks)), key=lambda p: (-p[0], p[1]))
    return "\n\n".join(chunks[idx] for _, idx in scored[: preset.top_k])


# ---------------------------------------------------------------------------
# Mock embedder
# ---------------------------------------------------------------------------

def mock_embed(text: str, dimension: int) -> list[float]:
    """MockEmbedder's vector: each token's md5 picks a bucket, counted; the
    counts are divided by the norm of the whole vector. A tokenless text is
    the first axis."""
    vec = [0.0] * dimension
    for token in tokenize(text):
        digest = hashlib.md5(token.encode("utf-8")).digest()
        vec[int.from_bytes(digest[:4], "big") % dimension] += 1.0
    norm = math.sqrt(sum(v * v for v in vec))
    if norm == 0.0:
        vec[0] = 1.0
        return vec
    return [v / norm for v in vec]
