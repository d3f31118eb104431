"""Planted-fact benchmark: synthetic conversations, metrics, and conditions.

A case is a 50-turn conversation with facts planted verbatim across the
early turns (1 through 35) and a compression point at turn 40. Questions are
evaluated right after compression, so every memory strategy only sees turns
up to the compression point. Each planted fact renders two ways: a tagged
form ("KEY_FACT: ...") that the offline mock extractor recognizes, and a
natural untagged phrasing for live-extractor runs. Both contain the fact
text verbatim.

Conditions:

  native         raw transcript, oldest turns dropped to fit a token limit
  truncation     only the most recent turns before compression
  summarization  a lossy summary of old turns plus recent turns verbatim
  rag            character-chunked transcript, cosine top-k chunks
  canvas         the full engine: extract, link, retrieve, inject

The answering backend defaults to an echo mock that returns its context, so
metrics measure what each strategy preserved rather than model skill.

Sweeps: run_sweep takes a list of settings, each the label fields of one
table row plus the EngineConfig it runs under, runs the condition of every
setting over every case and pools each setting's records into its row. The
threshold, rag and alpha sweeps and the per-hop retrieval recall are such
lists. A case is ingested once per distinct link setting (thresholds and
gleaning); settings that change only retrieval reuse that graph.
"""

from __future__ import annotations

import random
from dataclasses import asdict, astuple, dataclass, replace
from enum import Enum
from statistics import fmean
from typing import Callable, Optional, Sequence

import numpy as np

from .backends import BackendBundle, EchoAnswerer
from .config import EngineConfig
from .core import CanvasGraph, ObjectKind, normalize_text
from .engine import CanvasEngine
from .errors import CanvasError, EmptyKeywordsError
from .extraction import ConversationTurn
from .retrieval import default_token_counter, retrieve
from .scoring import ScoringIndex, tokenize

FUZZY_RECALL_THRESHOLD = 80.0
KEYWORD_PASS_THRESHOLD = 0.8

CONDITIONS = ("native", "truncation", "summarization", "rag", "canvas")

THRESHOLD_GRID_DEFAULT = (0.3, 0.5, 0.7)
THRESHOLD_GRID_CAUSAL_OFFSET = 0.05
THRESHOLD_PRESETS = (
    ("low", 0.3, 0.25),
    ("default", 0.5, 0.45),
    ("high", 0.7, 0.6),
    ("very-high", 0.8, 0.7),
)
ALPHA_GRID = (0.0, 0.3, 0.5, 0.7, 1.0)


class Variant(str, Enum):
    STANDARD = "standard"
    MULTI_HOP = "multi_hop"


# ---------------------------------------------------------------------------
# Case generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactSpec:
    """A plantable fact with its recall question and grading data."""

    category: ObjectKind
    text: str
    question: str
    answer_key: str
    keywords: tuple[str, ...]


@dataclass(frozen=True)
class Story:
    """A cause fact and the decision it motivated, with multi-hop questions."""

    cause: FactSpec
    decision: FactSpec
    causal_question: str
    impact_question: str


_F_GATEWAY = FactSpec(
    ObjectKind.KEY_FACT,
    "the api gateway times out after 30 seconds",
    "What is the api gateway timeout?",
    "times out after 30 seconds",
    ("gateway", "30", "seconds"),
)
_F_REDIS = FactSpec(
    ObjectKind.DECISION,
    "we will cache responses in redis",
    "What did we decide about caching responses?",
    "cache responses in redis",
    ("cache", "responses", "redis"),
)
_F_HINTS = FactSpec(
    ObjectKind.REMINDER,
    "please use type hints everywhere",
    "What did I say about type hints?",
    "use type hints everywhere",
    ("type", "hints", "everywhere"),
)
_F_APIKEY = FactSpec(
    ObjectKind.KEY_FACT,
    "the api key rotates monthly",
    "How often does the api key rotate?",
    "rotates monthly",
    ("api", "rotates", "monthly"),
)
_F_RETENTION = FactSpec(
    ObjectKind.KEY_FACT,
    "the ledger must keep seven years of records",
    "How long must the ledger keep records?",
    "seven years of records",
    ("seven", "years", "records"),
)
_F_POSTGRES = FactSpec(
    ObjectKind.DECISION,
    "we chose postgres for the ledger database",
    "What database did we choose for the ledger?",
    "postgres for the ledger database",
    ("postgres", "ledger", "database"),
)
_F_UPLOADS = FactSpec(
    ObjectKind.INSIGHT,
    "batching uploads cuts bandwidth costs in half",
    "What insight came up about uploads?",
    "cuts bandwidth costs in half",
    ("batching", "uploads", "bandwidth", "half"),
)
_F_RELEASES = FactSpec(
    ObjectKind.REMINDER,
    "remember to tag releases before deploying",
    "What should we remember before deploying?",
    "tag releases before deploying",
    ("tag", "releases", "deploying"),
)
_F_BATTERY = FactSpec(
    ObjectKind.INSIGHT,
    "the mobile app drains battery when polling",
    "What did we learn about the mobile app?",
    "drains battery when polling",
    ("battery", "polling"),
)
_F_PUSH = FactSpec(
    ObjectKind.DECISION,
    "we will switch the mobile app to push updates",
    "What did we decide about mobile app updates?",
    "switch the mobile app to push updates",
    ("switch", "push", "updates"),
)
_F_AUDIT = FactSpec(
    ObjectKind.KEY_FACT,
    "the security audit is scheduled for May 7, 2023",
    "When is the security audit scheduled?",
    "May 7, 2023",
    ("audit", "scheduled", "2023"),
)
_F_STYLECI = FactSpec(
    ObjectKind.DECISION,
    "we will enforce the style checks in the build",
    "What did we decide about style checks?",
    "enforce the style checks",
    ("enforce", "style", "checks"),
)

SINGLE_FACTS: tuple[FactSpec, ...] = (
    _F_GATEWAY, _F_REDIS, _F_HINTS, _F_APIKEY, _F_RETENTION, _F_POSTGRES,
    _F_UPLOADS, _F_RELEASES, _F_BATTERY, _F_PUSH, _F_AUDIT,
)

STORIES: tuple[Story, ...] = (
    Story(_F_GATEWAY, _F_REDIS,
          "Why was the redis cache decided?",
          "What did the api gateway timeout affect?"),
    Story(_F_RETENTION, _F_POSTGRES,
          "Why was postgres decided for the ledger?",
          "What did the retention rule affect?"),
    Story(_F_BATTERY, _F_PUSH,
          "Why was the switch to push updates decided?",
          "What did the battery drain affect?"),
    Story(_F_HINTS, _F_STYLECI,
          "Why was enforcing style checks decided?",
          "What did the type hints reminder affect?"),
)

# Filler vocabulary deliberately shares no tokens with fact keywords or keys,
# so a context that lost a fact cannot score on it by accident.
FILLER_USER: tuple[str, ...] = (
    "I went over the board again this morning.",
    "Quick note from my side, nothing urgent today.",
    "I reread the meeting summary on the shared drive.",
    "The team seemed happy with the direction last week.",
    "Let me walk through the open items one more time.",
    "I had a thought during lunch about the planning doc.",
    "The workshop ran long but it felt worthwhile.",
    "Still waiting on the design group for their feedback.",
    "I tidied the backlog so the next sprint reads clearer.",
    "Could we revisit the milestones at some point?",
    "The onboarding session went smoothly overall.",
    "I moved our sync earlier so the agenda fits.",
)
FILLER_ASSISTANT: tuple[str, ...] = (
    "Sounds good, I have noted that down.",
    "Understood, happy to pick this up whenever you are ready.",
    "Great, the plan is coming along nicely.",
    "Noted, I will keep an eye on that thread.",
    "Thanks for the update, that all makes sense.",
    "Sure, we can come back to this in a later session.",
    "Good point, I added it to the running list.",
    "That matches my understanding as well.",
    "Alright, let us keep the momentum going.",
    "I will fold that into the session notes.",
)


@dataclass
class PlantedFact:
    """One planted fact and the question that checks whether it survived."""

    category: ObjectKind
    text: str
    plant_turn: int
    question: str
    answer_key: str
    keywords: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.category, ObjectKind):
            raise ValueError("category must be an ObjectKind")
        if not self.text.strip() or not self.question.strip() or not self.answer_key.strip():
            raise ValueError("text, question, and answer_key must be non-empty")
        if not self.keywords:
            raise ValueError("keywords must be non-empty")
        if self.plant_turn < 1:
            raise ValueError("plant_turn must be at least 1")


@dataclass
class BenchmarkCase:
    """One synthetic conversation plus its planted facts."""

    seed: int
    variant: Variant
    compression_turn: int
    turns: list[ConversationTurn]
    planted: list[PlantedFact]

    def __post_init__(self):
        for fact in self.planted:
            if fact.plant_turn >= self.compression_turn:
                raise ValueError(
                    f"fact planted at turn {fact.plant_turn} would postdate compression"
                )


def render_fact(fact: FactSpec | PlantedFact, tagged: bool) -> str:
    """Tagged marker form for mock runs, natural phrasing otherwise."""
    if tagged:
        return f"{fact.category.value}: {fact.text}"
    return f"By the way, {fact.text}."


def generate_case(
    seed: int,
    variant: Variant = Variant.STANDARD,
    tagged: bool = True,
    n_turns: int = 50,
    compression_turn: int = 40,
    facts_per_case: int = 6,
    stories_per_case: int = 4,
) -> BenchmarkCase:
    """Deterministically build one case from a seed.

    Facts go into user messages, always after a filler sentence, so a
    first-sentence summarizer loses them by construction. Plant turns are
    sampled without replacement from turns 1 through 35.
    """
    if not 1 <= compression_turn <= n_turns:
        raise ValueError("compression_turn must fall inside the conversation")
    plant_span = min(35, compression_turn - 1)
    rng = random.Random(f"{variant.value}-{seed}")
    user_off = rng.randrange(len(FILLER_USER))
    asst_off = rng.randrange(len(FILLER_ASSISTANT))

    planted: list[PlantedFact] = []
    if variant is Variant.STANDARD:
        if not 1 <= facts_per_case <= len(SINGLE_FACTS):
            raise ValueError(f"facts_per_case must be in [1, {len(SINGLE_FACTS)}]")
        facts = rng.sample(SINGLE_FACTS, facts_per_case)
        turns_for_facts = sorted(rng.sample(range(1, plant_span + 1), facts_per_case))
        by_turn: dict[int, FactSpec] = {}
        for turn_idx, fact in zip(turns_for_facts, facts):
            by_turn[turn_idx] = fact
            planted.append(
                PlantedFact(fact.category, fact.text, turn_idx,
                            fact.question, fact.answer_key, fact.keywords)
            )
    else:
        if not 1 <= stories_per_case <= len(STORIES):
            raise ValueError(f"stories_per_case must be in [1, {len(STORIES)}]")
        stories = rng.sample(STORIES, stories_per_case)
        turn_pool = sorted(rng.sample(range(1, plant_span + 1), 2 * stories_per_case))
        by_turn = {}
        for pos, story in enumerate(stories):
            t_cause, t_decision = turn_pool[2 * pos], turn_pool[2 * pos + 1]
            by_turn[t_cause] = story.cause
            by_turn[t_decision] = story.decision
            # The causal question asks about the decision and is graded on the
            # cause; the impact question is the mirror image.
            planted.append(
                PlantedFact(story.decision.category, story.decision.text, t_decision,
                            story.causal_question, story.cause.answer_key,
                            story.cause.keywords)
            )
            planted.append(
                PlantedFact(story.cause.category, story.cause.text, t_cause,
                            story.impact_question, story.decision.answer_key,
                            story.decision.keywords)
            )

    turns: list[ConversationTurn] = []
    for index in range(1, n_turns + 1):
        user = FILLER_USER[(user_off + index) % len(FILLER_USER)]
        assistant = FILLER_ASSISTANT[(asst_off + index) % len(FILLER_ASSISTANT)]
        fact = by_turn.get(index)
        if fact is not None:
            user = f"{user} {render_fact(fact, tagged)}"
        turns.append(ConversationTurn(index=index, user_text=user, assistant_text=assistant))
    return BenchmarkCase(
        seed=seed,
        variant=variant,
        compression_turn=compression_turn,
        turns=turns,
        planted=planted,
    )


def generate_cases(
    count: int,
    variant: Variant = Variant.STANDARD,
    base_seed: int = 0,
    **kwargs,
) -> list[BenchmarkCase]:
    return [generate_case(base_seed + i, variant, **kwargs) for i in range(count)]


def question_label(question: str) -> str:
    """Recall, causal, or impact, judged from the question template."""
    lowered = question.strip().lower()
    if lowered.startswith("why was"):
        return "causal"
    if lowered.startswith("what did") and "affect" in lowered:
        return "impact"
    return "recall"


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def exact_match(answer: str, key: str) -> bool:
    """Case-insensitive, whitespace-normalized substring containment."""
    needle = normalize_text(key)
    if not needle:
        raise ValueError("answer key must be non-empty")
    return needle in normalize_text(answer)


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for tok_a in a:
        current = [0]
        for j, tok_b in enumerate(b):
            if tok_a == tok_b:
                current.append(previous[j] + 1)
            else:
                current.append(max(previous[j + 1], current[-1]))
        previous = current
    return previous[-1]


def fuzzy_match_score(answer: str, key: str) -> float:
    """Windowed token similarity in [0, 100].

    Scans contiguous answer windows up to the key's token length and scores
    each as 100 * 2 * LCS(window, key) / (len(window) + len(key)); the best
    window wins. A verbatim appearance of the key scores exactly 100.
    """
    key_tokens = tokenize(key)
    if not key_tokens:
        return 0.0
    if exact_match(answer, key):
        return 100.0
    answer_tokens = tokenize(answer)
    if not answer_tokens:
        return 0.0
    key_set = set(key_tokens)
    member = [1 if tok in key_set else 0 for tok in answer_tokens]
    prefix = [0]
    for flag in member:
        prefix.append(prefix[-1] + flag)
    klen = len(key_tokens)
    best = 0.0
    for width in range(1, min(len(answer_tokens), klen) + 1):
        for start in range(len(answer_tokens) - width + 1):
            shared = prefix[start + width] - prefix[start]
            if shared == 0:
                continue
            # LCS cannot exceed the number of key-set tokens in the window.
            if 2.0 * shared / (width + klen) <= best:
                continue
            window = answer_tokens[start:start + width]
            overlap = _lcs_length(window, key_tokens)
            score = 2.0 * overlap / (width + klen)
            if score > best:
                best = score
    return 100.0 * best


def keyword_coverage(answer: str, keywords: Sequence[str]) -> float:
    """Fraction of keywords present in the answer as normalized substrings."""
    if not keywords:
        raise EmptyKeywordsError("keyword list must be non-empty")
    haystack = normalize_text(answer)
    hits = 0
    for keyword in keywords:
        needle = normalize_text(keyword)
        if not needle:
            raise EmptyKeywordsError("keywords must be non-empty strings")
        if needle in haystack:
            hits += 1
    return hits / len(keywords)


# ---------------------------------------------------------------------------
# Context builders
# ---------------------------------------------------------------------------

def render_turn(turn: ConversationTurn) -> str:
    parts = []
    if turn.user_text.strip():
        parts.append(f"User: {turn.user_text}")
    if turn.assistant_text.strip():
        parts.append(f"Assistant: {turn.assistant_text}")
    return "\n".join(parts)


def render_transcript(turns: Sequence[ConversationTurn]) -> str:
    return "\n".join(render_turn(t) for t in turns)


def build_native_context(
    turns: Sequence[ConversationTurn],
    token_limit: int,
) -> str:
    """Keep as many recent turns as fit the limit; older turns fall off."""
    kept: list[ConversationTurn] = []
    used = 0
    for turn in reversed(turns):
        cost = default_token_counter(render_turn(turn) + "\n")
        if used + cost > token_limit:
            break
        kept.append(turn)
        used += cost
    kept.reverse()
    return render_transcript(kept)


def build_truncation_context(turns: Sequence[ConversationTurn], recent_turns: int) -> str:
    return render_transcript(turns[-recent_turns:])


def build_summarization_context(
    turns: Sequence[ConversationTurn],
    summarizer,
    recent_turns: int,
) -> str:
    old, recent = turns[:-recent_turns], turns[-recent_turns:]
    summary = summarizer.summarize(render_transcript(old)) if old else ""
    recent_text = render_transcript(recent)
    return (summary + "\n" + recent_text) if summary else recent_text


@dataclass(frozen=True)
class RAGPreset:
    """Chunking and retrieval settings for the RAG baseline."""

    name: str
    chunk_size: int
    top_k: int
    overlap: int

    def __post_init__(self):
        if self.chunk_size < 1 or self.top_k < 1:
            raise ValueError("chunk_size and top_k must be positive")
        if not 0 <= self.overlap < self.chunk_size:
            raise ValueError("overlap must satisfy 0 <= overlap < chunk_size")


RAG_PRESETS: dict[str, RAGPreset] = {
    "rag-small": RAGPreset("rag-small", 256, 5, 50),
    "rag-default": RAGPreset("rag-default", 512, 5, 100),
    "rag-large": RAGPreset("rag-large", 1024, 5, 200),
    "rag-topk10": RAGPreset("rag-topk10", 512, 10, 100),
}


def chunk_text(text: str, chunk_size: int, overlap: int) -> list[str]:
    """Fixed-size character chunks with the given overlap; last may be short."""
    if chunk_size < 1 or not 0 <= overlap < chunk_size:
        raise ValueError("need chunk_size >= 1 and 0 <= overlap < chunk_size")
    step = chunk_size - overlap
    return [text[i:i + chunk_size] for i in range(0, len(text), step)]


def rag_retriever(
    turns: Sequence[ConversationTurn],
    embedder,
    preset: RAGPreset,
) -> Callable[[str], str]:
    """Chunk the transcript once; the returned function builds one question's context.

    The context is the top-k chunks by cosine against the question. Chunks
    are embedded on the first call and stacked into a scoring index reused
    by every later one, so each chunk is embedded once per transcript, not
    once per question. Chunks are ranked by one call of the index's
    exact_cosines over every chunk, bit-identical to rag_context in
    tests/reference.py, which embeds and scores every chunk per question
    with the scalar cosine_sim. A chunk or question vector the index cannot
    score (a norm outside [1e-150, 1e150], zero included, or another
    dimension) raises its typed error:
    one append_vectors call converts every chunk's vector once, and before
    it appends any, so a failed embedding or conversion caches nothing, and
    the next call tries again.
    """
    chunks = chunk_text(render_transcript(turns), preset.chunk_size, preset.overlap)
    index = ScoringIndex()

    def context_for(question: str) -> str:
        if not chunks:
            return ""
        query_vec = embedder.embed(question)
        if not len(index):
            index.append_vectors([embedder.embed(chunk) for chunk in chunks])
        exact = index.exact_cosines(index.prepare(query_vec), np.arange(len(index)))
        scored = list(zip(exact.tolist(), range(len(index))))
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        return "\n\n".join(chunks[idx] for _, idx in scored[:preset.top_k])

    return context_for


# ---------------------------------------------------------------------------
# Condition runner
# ---------------------------------------------------------------------------

@dataclass
class QuestionRecord:
    """Per-question scoring outcome."""

    question: str
    label: str
    answer: str
    fuzzy: float
    exact: bool
    keyword_coverage: float
    answered: bool = True


@dataclass
class Aggregates:
    """Condition-level metrics; all recomputable from the records."""

    questions: int
    recall_rate: float
    exact_rate: float
    keyword_coverage: float
    pass_rate: float
    causal_coverage: Optional[float]
    impact_coverage: Optional[float]


def aggregate_records(records: Sequence[QuestionRecord]) -> Aggregates:
    if not records:
        return Aggregates(0, 0.0, 0.0, 0.0, 0.0, None, None)
    causal = [r.keyword_coverage for r in records if r.label == "causal"]
    impact = [r.keyword_coverage for r in records if r.label == "impact"]
    return Aggregates(
        questions=len(records),
        recall_rate=fmean(1.0 if r.fuzzy >= FUZZY_RECALL_THRESHOLD else 0.0 for r in records),
        exact_rate=fmean(1.0 if r.exact else 0.0 for r in records),
        keyword_coverage=fmean(r.keyword_coverage for r in records),
        pass_rate=fmean(
            1.0 if r.keyword_coverage >= KEYWORD_PASS_THRESHOLD else 0.0 for r in records
        ),
        causal_coverage=fmean(causal) if causal else None,
        impact_coverage=fmean(impact) if impact else None,
    )


@dataclass
class ConditionResult:
    """Everything one condition produced on one case."""

    condition: str
    variant: Variant
    seed: int
    records: list[QuestionRecord]
    aggregates: Aggregates


def ingest_case(case: BenchmarkCase, bundle: BackendBundle, config: EngineConfig) -> CanvasEngine:
    """Run the ingestion pipeline over the turns before compression."""
    engine = CanvasEngine(
        extractor=bundle.extractor,
        embedder=bundle.embedder,
        thresholds=config.thresholds,
        gleaning=config.gleaning,
    )
    engine.ingest([t for t in case.turns if t.index <= case.compression_turn])
    return engine


def run_condition(
    case: BenchmarkCase,
    condition: str,
    bundle: BackendBundle,
    config: EngineConfig | None = None,
    graph: CanvasGraph | None = None,
) -> ConditionResult:
    """Evaluate one memory strategy on one case.

    The canvas condition retrieves from graph when one is given, which must
    be the case ingested under config's link settings, and ingests the case
    otherwise. A backend failure on a single question marks it unanswered
    with zero scores and evaluation moves on.
    """
    if config is None:
        config = EngineConfig()
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}; choose from {CONDITIONS}")
    turns = [t for t in case.turns if t.index <= case.compression_turn]
    bench = config.bench

    context_for: Callable[[str], str]
    if condition == "native":
        fixed = build_native_context(turns, bench.native_token_limit)
        context_for = lambda question: fixed
    elif condition == "truncation":
        fixed = build_truncation_context(turns, bench.recent_turns)
        context_for = lambda question: fixed
    elif condition == "summarization":
        fixed = build_summarization_context(turns, bundle.summarizer, bench.recent_turns)
        context_for = lambda question: fixed
    elif condition == "rag":
        if bench.rag_preset not in RAG_PRESETS:
            raise ValueError(
                f"unknown rag preset {bench.rag_preset!r}; choose from {', '.join(RAG_PRESETS)}"
            )
        context_for = rag_retriever(turns, bundle.embedder, RAG_PRESETS[bench.rag_preset])
    else:
        if graph is None:
            graph = ingest_case(case, bundle, config).graph
        context_for = lambda question: retrieve(
            graph, question, bundle.embedder, config.retrieval, bundle.reranker
        )

    records: list[QuestionRecord] = []
    for fact in case.planted:
        label = question_label(fact.question)
        try:
            context = context_for(fact.question)
            answer = bundle.answerer.answer(fact.question, context)
            answered = True
        except CanvasError:
            answer = ""
            answered = False
        records.append(
            QuestionRecord(
                question=fact.question,
                label=label,
                answer=answer,
                fuzzy=fuzzy_match_score(answer, fact.answer_key),
                exact=exact_match(answer, fact.answer_key),
                keyword_coverage=keyword_coverage(answer, fact.keywords),
                answered=answered,
            )
        )
    return ConditionResult(
        condition=condition,
        variant=case.variant,
        seed=case.seed,
        records=records,
        aggregates=aggregate_records(records),
    )


# ---------------------------------------------------------------------------
# Sweeps and retrieval-only evaluation
# ---------------------------------------------------------------------------

# A sweep setting: the label fields of its row and the config it runs under.
Setting = tuple[dict, EngineConfig]


def pooled_row(results: Sequence[ConditionResult]) -> dict:
    """The aggregates of every record in results, as one table row."""
    pooled: list[QuestionRecord] = []
    for result in results:
        pooled.extend(result.records)
    return asdict(aggregate_records(pooled))


def run_sweep(
    cases: Sequence[BenchmarkCase],
    bundle: BackendBundle,
    settings: Sequence[Setting],
    condition: str = "canvas",
) -> list[dict]:
    """One row per setting: its label fields, then the condition's metrics
    pooled over every case run under the setting's config.

    For the canvas condition each case is ingested once per distinct link
    setting (thresholds and gleaning, all that ingest reads from the
    config), and that graph serves every setting that differs from it only
    in retrieval.
    """
    results: list[list[ConditionResult]] = [[] for _ in settings]
    for case in cases:
        graphs: dict[tuple, CanvasGraph] = {}
        for (_, config), pooled in zip(settings, results):
            graph = None
            if condition == "canvas":
                link = (astuple(config.thresholds), config.gleaning)
                if link not in graphs:
                    graphs[link] = ingest_case(case, bundle, config).graph
                graph = graphs[link]
            pooled.append(run_condition(case, condition, bundle, config, graph))
    return [{**fields, **pooled_row(pooled)} for (fields, _), pooled in zip(settings, results)]


def ref_grid(values: Sequence[float] = THRESHOLD_GRID_DEFAULT) -> list[tuple[str, float, float]]:
    """Turn bare theta_ref values into sweep entries; theta_causal trails by 0.05."""
    return [
        (f"ref-{value:g}", value, round(value - THRESHOLD_GRID_CAUSAL_OFFSET, 10))
        for value in values
    ]


def threshold_settings(
    config: EngineConfig,
    grid: Sequence[tuple[str, float, float]] = THRESHOLD_PRESETS,
) -> list[Setting]:
    """One canvas setting per (label, theta_ref, theta_causal) grid entry."""
    return [
        (
            {"config": label, "theta_ref": theta_ref, "theta_causal": theta_causal},
            replace(config, thresholds=replace(
                config.thresholds, theta_ref=theta_ref, theta_causal=theta_causal,
            )),
        )
        for label, theta_ref, theta_causal in grid
    ]


def rag_settings(config: EngineConfig) -> list[Setting]:
    """One rag setting per chunking preset."""
    return [
        (
            {"config": name, "chunk_size": preset.chunk_size, "top_k": preset.top_k,
             "overlap": preset.overlap},
            replace(config, bench=replace(config.bench, rag_preset=name)),
        )
        for name, preset in RAG_PRESETS.items()
    ]


def alpha_settings(config: EngineConfig) -> list[Setting]:
    """One canvas setting per hybrid blend weight; all share one ingest per case."""
    return [
        (
            {"config": f"alpha-{alpha:g}", "alpha": alpha},
            replace(config, retrieval=replace(config.retrieval, alpha=alpha)),
        )
        for alpha in ALPHA_GRID
    ]


def threshold_sweep(
    cases: Sequence[BenchmarkCase],
    bundle: BackendBundle,
    config: EngineConfig | None = None,
    grid: Sequence[tuple[str, float, float]] = THRESHOLD_PRESETS,
) -> list[dict]:
    """Canvas-condition metrics per (theta_ref, theta_causal) configuration."""
    return run_sweep(cases, bundle, threshold_settings(config or EngineConfig(), grid))


def retrieval_recall_eval(
    cases: Sequence[BenchmarkCase],
    bundle: BackendBundle,
    config: EngineConfig | None = None,
    hops_list: Sequence[int] = (0, 1),
) -> list[dict]:
    """Keyword recall of the injected block itself, per hop budget.

    No answerer in the loop: the canvas condition runs with an echo
    answerer, so per question recall is the keyword coverage of the
    injection block. Hops only affect retrieval, so each case is ingested
    once and shared across hop settings.
    """
    config = config or EngineConfig()
    settings = [
        ({"hops": hops}, replace(config, retrieval=replace(config.retrieval, hops=hops)))
        for hops in hops_list
    ]
    rows = run_sweep(cases, replace(bundle, answerer=EchoAnswerer()), settings)
    return [
        {"hops": row["hops"], "recall": row["keyword_coverage"], "questions": row["questions"]}
        for row in rows
    ]
