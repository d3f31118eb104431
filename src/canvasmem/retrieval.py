"""Query-time pipeline: classify, retrieve, expand, rerank, pack, render.

Stages, in order:

1. plan_query makes the read's QueryPlan, which carries the config. Its
   classify_query picks a query class and an adaptive top-k (multi-hop 15,
   temporal 12, simple 10: the config's k_multi_hop, k_temporal and
   k_simple). Each indicator list is matched by one compiled alternation
   of whole phrases, cached per list.
2. coarse_retrieve keeps the top coarse_k objects by hybrid score (alpha
   weights the cosine, 1 - alpha the keyword coverage), in one call of
   the graph's scoring index: top_hybrids screens every stored
   object at once (one float32 matrix-vector product for the cosine half,
   and the keyword coverage from the index's posting lists of the query's
   tokens, which is exact and computed once per query), then verifies only
   the band that could reach the top coarse_k with exact_hybrids: one
   batched call of numpy's vector dot kernel for the band's cosines, and
   the same coverage, bit-identical to the scalar hybrid_score of
   tests/reference.py, so ranks and scores are exact. Every stored vector
   can be scored; a query vector that the scalar cosine_sim cannot score
   makes the index raise cosine_sim's typed error.
3. expand_graph walks edges breadth-first from those hits, both directions
   and both edge kinds, with a 0.8 score decay per hop. Each hop reads the
   scoring index's adjacency list of each frontier row, so it costs the
   frontier's degree, not the graph's edge count; the walk keeps the seen
   rows' scores in a dict and the k best scores so far in a heap. It
   returns the read's hybrid ranking: the stable sort of seeds then hops by
   descending hybrid score (ties in seeds-then-hops order), each with its
   hybrid score as its rerank score. Without a reranker backend it is given
   k, cuts the ranking to k, and walks only what can enter that top k: it
   stops before a hop whose best inherited score cannot beat the k-th best
   so far, and on the last hop that can change the top k it walks only the
   frontier objects whose decayed score beats it. With a backend it is
   given no k and ranks the whole unpruned pool.
4. rerank_candidates runs only with a reranker backend. It reorders that
   ranking by the backend's scores, ties in hybrid order, then cuts to k.
   A candidate the backend gives no score, a NaN, or a score float()
   rejects (None, a word) ranks last, and so does one whose reply entry is
   not an (id, score) pair. A reply that is not iterable, or a backend that
   raises, leaves the hybrid ranking, cut to k, with a warning.
5. greedy_select packs rendered lines into the token budget, skipping lines
   that do not fit and continuing down the list.
6. build_injection renders the block: a header, one line per object grouped
   by kind in KIND_ORDER (one pass over the selection, which keeps the
   selection order inside a kind), and a class-specific instruction
   paragraph when needed.

Stages 5 and 6 read each object's line from the graph's line_cache, which
render_object_line fills the first time an object is rendered; snapshots
share the cache, so across a session's reads each line renders once. A
line's "- [KIND] (turn " prefix comes from a table built once per kind.

At a live session's graph sizes a query's fixed cost is Python records
more than numpy work. So the candidates (ScoredObject) have slots and are
built with positional fields, the read ranks once (in expand_graph),
the block takes each line from the cache and groups it in one pass, and
the coarse band's exact scores take the weighted keyword half the screen
computed.

RetrievalConfig holds the settings of every stage, one field per key of
the config file's retrieval section; its __post_init__ checks each range,
and that each indicator phrase begins and ends with a word character.
Each stage reads them from the plan's config, so a read setting is one field.

The token budget governs the object lines (the payload); the constant
header and instruction text sit outside it, which keeps a zero budget and
the mandatory header-only empty block consistent with each other.
"""

from __future__ import annotations

import heapq
import logging
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import chain
from operator import attrgetter
from typing import Optional, Protocol, Sequence, runtime_checkable

from .core import CanvasGraph, CanvasObject, ObjectKind
from .scoring import DEFAULT_ALPHA, EmbedderBackend, ScoringIndex, read_asset

logger = logging.getLogger(__name__)

EXPANSION_DECAY = 0.8
DEFAULT_COARSE_K = 20
DEFAULT_HOPS = 1
DEFAULT_BUDGET_TOKENS = 2000

INJECTION_HEADER = "=== conversation memory (format v1) ==="
KIND_ORDER = (
    ObjectKind.DECISION,
    ObjectKind.KEY_FACT,
    ObjectKind.REMINDER,
    ObjectKind.INSIGHT,
    ObjectKind.TODO,
)
REASONING_INSTRUCTION = (
    "Reasoning: analyze the items above, infer cause and effect between facts, "
    "reminders, insights, and decisions even when no explicit link is recorded, "
    "and lay out the causal chain in your answer."
)
TEMPORAL_INSTRUCTION = (
    "Dates: when an item above carries an explicit date or time expression, "
    "cite it verbatim in your answer."
)


class QueryClass(str, Enum):
    SIMPLE = "SIMPLE"
    TEMPORAL = "TEMPORAL"
    MULTI_HOP = "MULTI_HOP"


class Provenance(str, Enum):
    COARSE = "COARSE"
    EXPANDED = "EXPANDED"


@runtime_checkable
class RerankerBackend(Protocol):
    """Scores (id, text) candidates for a query; higher means more relevant."""

    def rerank(
        self, query_text: str, candidates: Sequence[tuple[str, str]]
    ) -> list[tuple[str, float]]:
        ...


def _read_lines(name: str) -> tuple[str, ...]:
    return tuple(line.strip() for line in read_asset(name).splitlines() if line.strip())


@lru_cache(maxsize=1)
def default_causal_indicators() -> tuple[str, ...]:
    return _read_lines("causal_indicators.txt")


@lru_cache(maxsize=1)
def default_temporal_indicators() -> tuple[str, ...]:
    return _read_lines("temporal_indicators.txt")


def default_token_counter(text: str) -> int:
    """Crude token estimate: one token per four characters, rounded up."""
    return math.ceil(len(text) / 4)


_WORD_EDGES = re.compile(r"\w(?:.*\w)?", re.DOTALL)


@dataclass
class RetrievalConfig:
    """Knobs for the retrieval pipeline, one field per key of the config
    file's retrieval section; presets bundle common settings."""

    alpha: float = DEFAULT_ALPHA
    coarse_k: int = DEFAULT_COARSE_K
    hops: int = DEFAULT_HOPS
    budget_tokens: int = DEFAULT_BUDGET_TOKENS
    k_simple: int = 10
    k_temporal: int = 12
    k_multi_hop: int = 15
    causal_indicators: tuple[str, ...] = field(default_factory=default_causal_indicators)
    temporal_indicators: tuple[str, ...] = field(default_factory=default_temporal_indicators)

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        if self.coarse_k < 1:
            raise ValueError(f"coarse_k must be at least 1, got {self.coarse_k!r}")
        if self.hops < 0:
            raise ValueError(f"hops must be non-negative, got {self.hops!r}")
        if self.budget_tokens < 0:
            raise ValueError(f"budget_tokens must be non-negative, got {self.budget_tokens!r}")
        for name in ("k_simple", "k_temporal", "k_multi_hop"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        # A phrase is matched between word boundaries, so one that does not
        # begin and end with a word character matches everywhere ("") or
        # nowhere it should ("why?" at the end of a query).
        for name in ("causal_indicators", "temporal_indicators"):
            for phrase in getattr(self, name):
                if not (isinstance(phrase, str) and _WORD_EDGES.fullmatch(phrase.lower())):
                    raise ValueError(f"{name} phrase {phrase!r} must be a string that begins "
                                     "and ends with a word character")

    @property
    def k_map(self) -> dict[QueryClass, int]:
        """The adaptive top-k of each query class."""
        return {QueryClass.MULTI_HOP: self.k_multi_hop, QueryClass.TEMPORAL: self.k_temporal,
                QueryClass.SIMPLE: self.k_simple}

    @classmethod
    def preset(cls, name: str) -> "RetrievalConfig":
        """The defaults with the settings RETRIEVAL_PRESETS names under name."""
        if not isinstance(name, str) or name not in RETRIEVAL_PRESETS:
            raise ValueError(
                f"unknown retrieval preset {name!r}; choose from {', '.join(RETRIEVAL_PRESETS)}"
            )
        return cls(**RETRIEVAL_PRESETS[name])


# Named parameter bundles over the RetrievalConfig defaults.
RETRIEVAL_PRESETS: dict[str, dict] = {
    "standard": {},
    "locomo": {"hops": 4},
}


@dataclass
class QueryPlan:
    """Everything the pipeline needs to know about one query: its class and
    top-k, and the config the read runs under."""

    query_text: str
    query_embedding: list[float]
    klass: QueryClass
    k: int
    config: RetrievalConfig


@dataclass(slots=True)
class ScoredObject:
    """A candidate with its scores and the hop that reached it (0 for a
    coarse hit)."""

    object_id: str
    hybrid: float
    rerank: Optional[float] = None
    hop: int = 0

    @property
    def provenance(self) -> Provenance:
        """COARSE for a coarse hit, EXPANDED for one the walk reached."""
        return Provenance.EXPANDED if self.hop >= 1 else Provenance.COARSE


@lru_cache(maxsize=64)
def _indicator_pattern(phrases: tuple[str, ...]) -> Optional[re.Pattern[str]]:
    """One compiled alternation that finds any of the lowercased phrases as a
    whole phrase (between word boundaries), or None for no phrases.

    Alternation backtracks through every phrase at every position, so it
    matches exactly where one of the per-phrase \\b...\\b searches would.
    """
    if not phrases:
        return None
    alternatives = "|".join(re.escape(phrase.lower()) for phrase in phrases)
    return re.compile(rf"\b(?:{alternatives})\b")


def _any_phrase(phrases: Sequence[str], lowered: str) -> bool:
    pattern = _indicator_pattern(tuple(phrases))
    return pattern is not None and pattern.search(lowered) is not None


def classify_query(
    query_text: str, config: RetrievalConfig | None = None
) -> tuple[QueryClass, int]:
    """The query's class and its top-k under config (the defaults without
    one): case-insensitive phrase matching of the config's indicator lists,
    causal indicators taking precedence."""
    if not query_text.strip():
        raise ValueError("query text must be non-empty")
    if config is None:
        config = RetrievalConfig()
    lowered = query_text.lower()
    if _any_phrase(config.causal_indicators, lowered):
        klass = QueryClass.MULTI_HOP
    elif _any_phrase(config.temporal_indicators, lowered):
        klass = QueryClass.TEMPORAL
    else:
        klass = QueryClass.SIMPLE
    return klass, config.k_map[klass]


def plan_query(
    query_text: str,
    embedder: EmbedderBackend,
    config: RetrievalConfig | None = None,
) -> QueryPlan:
    """Classify the query and embed it into a plan that carries config (the
    defaults without one)."""
    if config is None:
        config = RetrievalConfig()
    klass, k = classify_query(query_text, config)
    return QueryPlan(query_text, embedder.embed(query_text), klass, k, config)


def coarse_retrieve(graph: CanvasGraph, plan: QueryPlan) -> list[ScoredObject]:
    """Hybrid-score every object under the plan's alpha and keep the top
    coarse_k, each with its hybrid score as its rerank score.

    Ties break on higher confidence, then lower turn, then id order, so the
    result is deterministic for any insertion order.
    """
    if not graph.rows:
        return []
    index = graph.scoring_index()
    query = index.prepare(plan.query_embedding, plan.query_text)
    coarse_k = plan.config.coarse_k
    band, exact = index.top_hybrids(query, plan.config.alpha, coarse_k)
    rows = graph.rows
    # Ids are unique, so the sort never compares past the id.
    keyed = sorted(
        (-score, -obj.confidence, obj.turn, obj.id, score)
        for score, obj in zip(exact.tolist(), [rows[row] for row in band.tolist()])
    )
    return [ScoredObject(key[3], key[4], key[4]) for key in keyed[:coarse_k]]


def expand_graph(
    graph: CanvasGraph,
    seeds: Sequence[ScoredObject],
    hops: int,
    k: Optional[int] = None,
) -> list[ScoredObject]:
    """Breadth-first neighborhood expansion from the coarse hits, returned
    as the read's hybrid ranking.

    Both edge kinds count and edges are walked in both directions. An object
    first reached at hop distance d inherits the best adjacent score decayed
    by 0.8 per hop; each hop's objects come in (-score, id) order, and each
    has its hybrid score as its rerank score. The result is the stable sort
    of seeds then hops by descending score (ties keep that order), cut to k
    when k is given. The seeds come back as the objects given.

    The walk reads the scoring index's adjacency lists. Each hop (_walk_hop)
    reads the lists of the frontier rows alone and keeps, for each row not
    yet seen, the best score among its frontier neighbours; the row inherits
    that score times 0.8 (exact, since max(a) * 0.8 == max(a * 0.8)). The
    seen rows' scores are one dict, so a query allocates nothing the size
    of the graph, and a hop costs its frontier's degree.

    With k the walk visits only what can enter the top k. In the stable
    sort a later candidate enters the top k only with a score above the
    k-th best so far (kth, the least of a heap of the k best; -inf without
    k), and every later hop inherits at most 0.8 of the best frontier score
    (top), or stays below zero when top is negative. So before each hop the
    walk stops when 0.8 * top cannot beat kth. When 0.64 * top cannot, or
    no hop is asked for after this one, this is the last hop that can
    change the top k: it walks only the frontier rows whose 0.8 * score
    beats kth (a row reached only from the others would score at most kth)
    and then stops. Each hop pools only the rows whose inherited score beats
    kth: kth only rises, so no other row can enter the top k. Every hop but
    the last marks each row it reaches seen; nothing reads that after the
    last.
    """
    pooled = [seed.hybrid for seed in seeds]  # every candidate's score, seeds then hops
    expanded: list[tuple[str, int]] = []  # (id, hop) of each score in pooled past the seeds
    if hops > 0 and seeds and (k is None or k >= 1):
        _walk(graph, seeds, hops, k, pooled, expanded)
    n = len(seeds)
    ranked = []
    # reverse=True keeps the sort stable: ties keep seeds-then-hops order.
    for i in sorted(range(len(pooled)), key=pooled.__getitem__, reverse=True)[:k]:
        if i < n:
            ranked.append(seeds[i])
        else:
            oid, hop = expanded[i - n]
            ranked.append(ScoredObject(oid, pooled[i], pooled[i], hop))
    return ranked


def _walk(
    graph: CanvasGraph,
    seeds: Sequence[ScoredObject],
    hops: int,
    k: Optional[int],
    pooled: list[float],
    expanded: list[tuple[str, int]],
) -> None:
    """expand_graph's walk: appends each pooled expansion's score to pooled
    and its (id, hop) to expanded, each hop in (-score, id) order."""
    index = graph.scoring_index()
    score: dict[int, float] = {}  # the best score of each seen row
    for seed, row in zip(seeds, index.rows_of([seed.object_id for seed in seeds])):
        if row is not None:
            score[row] = seed.hybrid
    if not score:
        return
    frontier = list(score)
    top = max(score.values())
    # The k best scores so far, least first (a sorted list is a heap).
    best = sorted(pooled)[-k:] if k is not None else []
    kth = -math.inf
    rows = graph.rows
    for hop in range(1, hops + 1):
        last = hop == hops
        if k is not None:
            kth = best[0] if len(best) == k else -math.inf
            if kth >= max(top * EXPANSION_DECAY, 0.0):
                return
            last = last or kth >= max(top * EXPANSION_DECAY * EXPANSION_DECAY, 0.0)
            if last:
                frontier = [row for row in frontier if score[row] * EXPANSION_DECAY > kth]
        parents = _walk_hop(index, frontier, score)
        if not parents:
            return
        # A row scoring no more than kth now never enters the top k: kth
        # only rises, and k earlier candidates score at least kth.
        ordered = sorted([(-decayed, rows[row].id) for row, value in parents.items()
                          if (decayed := value * EXPANSION_DECAY) > kth])
        for negated, oid in ordered:
            pooled.append(-negated)
            expanded.append((oid, hop))
        if last:
            return  # nothing reads the scores, the frontier or the heap again
        frontier = list(parents)
        for row, value in parents.items():
            score[row] = value * EXPANSION_DECAY
        top = max(parents.values()) * EXPANSION_DECAY
        if k is not None:
            for negated, _ in ordered:
                if len(best) < k:
                    heapq.heappush(best, -negated)
                elif -negated > best[0]:
                    heapq.heapreplace(best, -negated)
                else:
                    break  # the rest of the hop scores no higher


def _walk_hop(
    index: ScoringIndex, frontier: list[int], score: dict[int, float]
) -> dict[int, float]:
    """The rows not yet seen (not in score) that an edge joins to a frontier
    row, each with the best score among its frontier neighbours."""
    parents: dict[int, float] = {}
    unseen = -math.inf
    for row in frontier:
        value = score[row]
        for neighbour in index.adjacent(row):
            if neighbour not in score and value > parents.get(neighbour, unseen):
                parents[neighbour] = value
    return parents


def rerank_candidates(
    graph: CanvasGraph,
    backend: RerankerBackend,
    query_text: str,
    candidates: Sequence[ScoredObject],
    k: int,
) -> list[ScoredObject]:
    """Reorder candidates, the read's hybrid ranking, by the backend's
    scores and truncate to k.

    The backend sees the candidates in the order given, and ties keep that
    order. A candidate the backend gives no score, a NaN, or a score float()
    rejects ranks last, and so does one whose reply entry does not unpack
    to an (id, score) pair. A backend failure, a raise or a reply that is
    not iterable, logs a warning and leaves the ranking, cut to k.
    """
    if not candidates:
        raise ValueError("rerank_candidates requires at least one candidate")
    objects = graph.objects
    pairs = [(c.object_id, f"{objects[c.object_id].content}\n{objects[c.object_id].quote}")
             for c in candidates]
    try:
        replies = list(backend.rerank(query_text, pairs))
    except Exception as exc:
        logger.warning("reranker backend failed, falling back to hybrid order: %s", exc)
        return list(candidates[:k])
    known = {c.object_id for c in candidates}
    # An entry that is not an (id, score) pair is missing, so is a score
    # float() rejects, and so is a NaN: it compares false with every other
    # score, so a single one would scramble the whole sort.
    scores = {}
    for reply in replies:
        try:
            cid, score = reply
            value = float(score)
            ours = cid in known  # TypeError for an unhashable id
        except (TypeError, ValueError, OverflowError):
            continue
        if ours and not math.isnan(value):
            scores[cid] = value
    missing = float("-inf")
    rescored = [
        ScoredObject(c.object_id, c.hybrid, scores.get(c.object_id, missing), c.hop)
        for c in candidates
    ]
    # reverse=True keeps the sort stable: ties keep the hybrid order.
    rescored.sort(key=attrgetter("rerank"), reverse=True)
    return rescored[:k]


# Each kind's line prefix: reading Enum.value is a property call per line.
_LINE_PREFIX = {kind: f"- [{kind.value}] (turn " for kind in ObjectKind}


def render_object_line(obj: CanvasObject) -> str:
    """One injection line: kind tag, turn, verbatim quote, content."""
    return f'{_LINE_PREFIX[obj.kind]}{obj.turn}) "{obj.quote}" :: {obj.content}\n'


def _block_lines(graph: CanvasGraph, candidates: Sequence[ScoredObject]) -> list[str]:
    """Each candidate's render_object_line, rendered once per object into
    the graph's line_cache (which its snapshots share)."""
    cache = graph.line_cache
    objects = graph.objects
    lines = []
    for cand in candidates:
        oid = cand.object_id
        line = cache.get(oid)
        if line is None:
            line = cache[oid] = render_object_line(objects[oid])
        lines.append(line)
    return lines


def greedy_select(
    graph: CanvasGraph,
    candidates: Sequence[ScoredObject],
    budget_tokens: int,
) -> list[ScoredObject]:
    """Pack candidates into the budget in order, skipping lines that do not fit.

    The cost of a candidate is default_token_counter of its rendered line.
    A skip is not a stop: later, cheaper candidates still get their chance.
    """
    remaining = budget_tokens
    selected: list[ScoredObject] = []
    for cand, line in zip(candidates, _block_lines(graph, candidates)):
        cost = default_token_counter(line)
        if cost <= remaining:
            selected.append(cand)
            remaining -= cost
    return selected


def build_injection(
    graph: CanvasGraph,
    selected: Sequence[ScoredObject],
    plan: QueryPlan,
) -> str:
    """Render the final context block.

    Lines are grouped by kind in a fixed order (decisions first, todos last)
    and keep their selection order within a group. Multi-hop plans append a
    reasoning instruction, temporal plans a date-citation instruction. An
    empty selection still renders the header so consumers can tell an empty
    memory apart from a missing one.
    """
    groups: dict[ObjectKind, list[str]] = {kind: [] for kind in KIND_ORDER}
    objects = graph.objects
    for cand, line in zip(selected, _block_lines(graph, selected)):
        group = groups.get(objects[cand.object_id].kind)
        if group is not None:  # a kind outside KIND_ORDER is left out
            group.append(line)
    block = INJECTION_HEADER + "\n" + "".join(chain.from_iterable(groups.values()))
    if plan.klass is QueryClass.MULTI_HOP:
        block += "\n" + REASONING_INSTRUCTION + "\n"
    elif plan.klass is QueryClass.TEMPORAL:
        block += "\n" + TEMPORAL_INSTRUCTION + "\n"
    return block


@dataclass
class RetrievalResult:
    """Intermediate and final products of one retrieve call."""

    plan: QueryPlan
    ranked: list[ScoredObject]
    selected: list[ScoredObject]
    injection: str


def retrieve_detailed(
    graph: CanvasGraph,
    query_text: str,
    embedder: EmbedderBackend,
    config: RetrievalConfig | None = None,
    reranker: RerankerBackend | None = None,
) -> RetrievalResult:
    """Run the full pipeline under config (the defaults without one) and keep
    the intermediate stages for inspection."""
    plan = plan_query(query_text, embedder, config)
    coarse = coarse_retrieve(graph, plan)
    # Without a backend the walk's top-k cut is the read's ranking; a
    # backend reorders the whole hybrid ranking.
    ranked = expand_graph(graph, coarse, plan.config.hops,
                          None if reranker is not None else plan.k)
    if reranker is not None and ranked:
        ranked = rerank_candidates(graph, reranker, plan.query_text, ranked, plan.k)
    selected = greedy_select(graph, ranked, plan.config.budget_tokens)
    injection = build_injection(graph, selected, plan)
    return RetrievalResult(plan=plan, ranked=ranked, selected=selected, injection=injection)


def retrieve(
    graph: CanvasGraph,
    query_text: str,
    embedder: EmbedderBackend,
    config: RetrievalConfig | None = None,
    reranker: RerankerBackend | None = None,
) -> str:
    """Full pipeline; returns just the injection block."""
    return retrieve_detailed(graph, query_text, embedder, config, reranker).injection
