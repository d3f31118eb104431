"""Acceptance gate: ten binding criteria for the memory engine.

Each test checks one criterion end to end and prints a single PASS or FAIL
line (visible with pytest -s, and on any failure). Tolerances are pinned as
module constants next to the criterion that uses them.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import replace
from statistics import fmean

import pytest

from canvasmem.backends import mock_bundle
from canvasmem.benchmark import (
    RAG_PRESETS,
    Variant,
    aggregate_records,
    chunk_text,
    exact_match,
    fuzzy_match_score,
    generate_case,
    generate_cases,
    ingest_case,
    keyword_coverage,
    ref_grid,
    render_transcript,
    run_condition,
    threshold_sweep,
)
from canvasmem.config import EngineConfig
from canvasmem.core import (
    CanvasEdge,
    CanvasGraph,
    CanvasObject,
    EdgeKind,
    EdgeOrigin,
    ObjectKind,
    Source,
    serialize_graph,
)
from canvasmem.engine import CanvasEngine
from canvasmem.errors import EmptyKeywordsError
from canvasmem.extraction import quote_matches
from canvasmem.graph_build import LinkThresholds, link_object
from canvasmem.retrieval import (
    QueryClass,
    RetrievalConfig,
    coarse_retrieve,
    default_token_counter,
    expand_graph,
    plan_query,
    render_object_line,
    retrieve,
    retrieve_detailed,
)
from canvasmem.scoring import MockEmbedder

# Criterion 1
RUNTIME_LIMIT_S = 5.0
# Criterion 2
GROUNDING_SEEDS = 20
GROUNDING_MIN_OBJECTS = 100
# Criterion 3
MECHANISM_CASES = 20
TRUNCATION_SAFE_TURN = 36
SUMMARIZATION_EXACT_MAX = 0.5
# Criterion 4
CLASSIFICATION_MIN_FIXTURES = 30
# Criterion 5
EXPANSION_FIXTURES = 10
EXPANSION_GAIN_MIN_PP = 30.0
# Criterion 6
BUDGET_TRIALS = 1000
BRUTE_FORCE_MAX_CANDIDATES = 12
BRUTE_FORCE_MIN_TRIALS = 200
# Criterion 7
SWEEP_REF_VALUES = (0.3, 0.5, 0.7)
STABILITY_BAND = 0.15
# Criterion 10
FUZZY_RECALL_BOUNDARY = 80.0
COVERAGE_PASS_BOUNDARY = 0.8


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion:02d} {status}: {detail}")
    assert ok, f"criterion {criterion:02d} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. Offline determinism
# ---------------------------------------------------------------------------

def _full_pipeline_artifacts(case) -> tuple[bytes, str]:
    """Fresh ingest plus one answered query per planted fact."""
    bundle = mock_bundle()
    config = EngineConfig()
    engine = ingest_case(case, bundle, config)
    answers = []
    for fact in case.planted:
        block = retrieve(
            engine.graph, fact.question, bundle.embedder, config.retrieval, bundle.reranker
        )
        answers.append(bundle.answerer.answer(fact.question, block))
    return serialize_graph(engine.graph), "\x1e".join(answers)


def test_criterion_01_offline_determinism():
    case = generate_case(0, Variant.STANDARD, tagged=True)
    start = time.perf_counter()
    first = _full_pipeline_artifacts(case)
    elapsed_a = time.perf_counter() - start
    start = time.perf_counter()
    second = _full_pipeline_artifacts(case)
    elapsed_b = time.perf_counter() - start
    identical = first == second
    fast = elapsed_a < RUNTIME_LIMIT_S and elapsed_b < RUNTIME_LIMIT_S
    _verdict(
        1,
        identical and fast,
        f"two mock runs byte-identical={identical}, "
        f"runtimes {elapsed_a:.2f}s/{elapsed_b:.2f}s < {RUNTIME_LIMIT_S:.0f}s",
    )


# ---------------------------------------------------------------------------
# 2. Verbatim grounding holds for every stored object
# ---------------------------------------------------------------------------

def test_criterion_02_verbatim_grounding_property():
    bundle = mock_bundle()
    checked = 0
    grounded = 0
    for seed in range(GROUNDING_SEEDS):
        variant = Variant.MULTI_HOP if seed % 2 else Variant.STANDARD
        case = generate_case(seed, variant, tagged=True)
        engine = CanvasEngine(bundle.extractor, bundle.embedder)
        engine.ingest(case.turns)
        by_index = {t.index: t for t in case.turns}
        for obj in engine.graph.objects.values():
            checked += 1
            if quote_matches(obj.quote, by_index[obj.turn].text_for(obj.source)):
                grounded += 1
    enough = checked >= GROUNDING_MIN_OBJECTS
    _verdict(
        2,
        grounded == checked and enough,
        f"{grounded}/{checked} objects quote-grounded over {GROUNDING_SEEDS} seeds",
    )


# ---------------------------------------------------------------------------
# 3. Benchmark mechanism: engine recalls, compression baselines lose
# ---------------------------------------------------------------------------

def test_criterion_03_benchmark_mechanism():
    bundle = mock_bundle()
    cases = generate_cases(MECHANISM_CASES, Variant.STANDARD, tagged=True)
    pooled = {"canvas": [], "truncation": [], "summarization": []}
    early_truncation_records = []
    for case in cases:
        for condition in pooled:
            result = run_condition(case, condition, bundle)
            pooled[condition].extend(result.records)
            if condition == "truncation":
                early = [
                    rec
                    for rec, fact in zip(result.records, case.planted)
                    if fact.plant_turn < TRUNCATION_SAFE_TURN
                ]
                early_truncation_records.extend(early)
    canvas = aggregate_records(pooled["canvas"])
    truncation_early = aggregate_records(early_truncation_records)
    summarization = aggregate_records(pooled["summarization"])
    ok = (
        canvas.recall_rate == 1.0
        and canvas.exact_rate == 1.0
        and truncation_early.recall_rate == 0.0
        and summarization.exact_rate < SUMMARIZATION_EXACT_MAX
    )
    _verdict(
        3,
        ok,
        f"canvas recall={canvas.recall_rate:.3f} exact={canvas.exact_rate:.3f}, "
        f"truncation recall(before turn {TRUNCATION_SAFE_TURN})="
        f"{truncation_early.recall_rate:.3f}, "
        f"summarization exact={summarization.exact_rate:.3f} < {SUMMARIZATION_EXACT_MAX}",
    )


# ---------------------------------------------------------------------------
# 4. Query classification maps to adaptive candidate counts
# ---------------------------------------------------------------------------

CLASSIFICATION_FIXTURES = [
    # Causal phrasing: k = 15.
    ("why did the deploy fail?", QueryClass.MULTI_HOP, 15),
    ("Why did we switch databases?", QueryClass.MULTI_HOP, 15),
    ("why was the cache added?", QueryClass.MULTI_HOP, 15),
    ("what broke because of the outage?", QueryClass.MULTI_HOP, 15),
    ("the missing index led to what?", QueryClass.MULTI_HOP, 15),
    ("what caused the slowdown?", QueryClass.MULTI_HOP, 15),
    ("the migration resulted in what state?", QueryClass.MULTI_HOP, 15),
    ("what happened after the launch?", QueryClass.MULTI_HOP, 15),
    ("When it crashed, why did the retry loop spin?", QueryClass.MULTI_HOP, 15),
    ("Because of the freeze, what moved?", QueryClass.MULTI_HOP, 15),
    # Temporal phrasing: k = 12.
    ("when does the deploy freeze start?", QueryClass.TEMPORAL, 12),
    ("when is the security audit?", QueryClass.TEMPORAL, 12),
    ("how long does the build take?", QueryClass.TEMPORAL, 12),
    ("how long until the certificate expires?", QueryClass.TEMPORAL, 12),
    ("what date is the release?", QueryClass.TEMPORAL, 12),
    ("what date did we sign the contract?", QueryClass.TEMPORAL, 12),
    ("before the launch, what must land?", QueryClass.TEMPORAL, 12),
    ("what was the state before the migration?", QueryClass.TEMPORAL, 12),
    ("When will the beta open?", QueryClass.TEMPORAL, 12),
    ("how long is the retention window?", QueryClass.TEMPORAL, 12),
    # Plain lookups: k = 10.
    ("what is the gateway timeout?", QueryClass.SIMPLE, 10),
    ("which queue handles email?", QueryClass.SIMPLE, 10),
    ("who owns the billing service?", QueryClass.SIMPLE, 10),
    ("what is the api rate limit?", QueryClass.SIMPLE, 10),
    ("where do uploads go?", QueryClass.SIMPLE, 10),
    ("what size is the thumbnail?", QueryClass.SIMPLE, 10),
    ("whenever convenient, list the owners", QueryClass.SIMPLE, 10),
    ("the aftermath was noisy, what broke?", QueryClass.SIMPLE, 10),
    ("what is the password policy?", QueryClass.SIMPLE, 10),
    ("what port does redis listen on?", QueryClass.SIMPLE, 10),
    ("how many replicas run in production?", QueryClass.SIMPLE, 10),
]


def test_criterion_04_adaptive_k_conformance():
    assert len(CLASSIFICATION_FIXTURES) >= CLASSIFICATION_MIN_FIXTURES
    embedder = MockEmbedder()
    config = RetrievalConfig()
    mismatches = []
    for query, expected_class, expected_k in CLASSIFICATION_FIXTURES:
        plan = plan_query(query, embedder, config)
        if plan.klass is not expected_class or plan.k != expected_k:
            mismatches.append((query, plan.klass.value, plan.k))
        assert plan.k in (15, 12, 10)
    lowered = " ".join(q.lower() for q, _, _ in CLASSIFICATION_FIXTURES)
    boundary_covered = all(p in lowered for p in ("why did", "when", "how long"))
    _verdict(
        4,
        not mismatches and boundary_covered,
        f"{len(CLASSIFICATION_FIXTURES)} fixtures map to k in {{15,12,10}} exactly, "
        f"mismatches={mismatches or 'none'}",
    )


# ---------------------------------------------------------------------------
# 5. One-hop expansion finds answers the coarse stage cannot
# ---------------------------------------------------------------------------

def _expansion_fixture(i: int, embedder: MockEmbedder):
    """A graph where the answer is only reachable through one edge.

    The seed object carries every query token, so it is always a coarse hit.
    The answer object shares no vocabulary with the query and is linked to
    the seed by a single reference edge. Twenty-five distractors each carry
    three of the four query tokens, so the coarse top-20 fills up without
    ever containing the answer.
    """
    rng = random.Random(1000 + i)
    graph = CanvasGraph()
    query_tokens = [f"q{i}alpha", f"q{i}bravo", f"q{i}carol", f"q{i}delta"]
    query = "what about " + " ".join(query_tokens) + "?"

    def put(kind, content, turn):
        obj = CanvasObject(
            kind=kind,
            content=content,
            quote=content,
            source=Source.USER,
            turn=turn,
            confidence=1.0,
            embedding=embedder.embed(content),
        )
        graph.add_object(obj)
        return obj

    seed = put(ObjectKind.KEY_FACT, " ".join(query_tokens), 0)
    answer_content = f"hidden payload zeta{i}x stored in vault nu{i}y"
    answer = put(ObjectKind.KEY_FACT, answer_content, 1)
    graph.add_edge(
        CanvasEdge(
            src=seed.id,
            dst=answer.id,
            kind=EdgeKind.REFERENCE,
            weight=1.0,
            origin=EdgeOrigin.KEYWORD,
        )
    )
    for d in range(25):
        shared = rng.sample(query_tokens, 3)
        put(ObjectKind.KEY_FACT, f"filler item{i}n{d} mentions " + " ".join(shared), 2 + d)
    keywords = (f"zeta{i}x", f"nu{i}y")
    return graph, query, keywords


def test_criterion_05_graph_expansion_recall_gain():
    embedder = MockEmbedder()
    fixtures = [_expansion_fixture(i, embedder) for i in range(EXPANSION_FIXTURES)]
    recall_by_hops = {}
    for hops in (0, 1):
        config = replace(RetrievalConfig(), hops=hops)
        scores = []
        for graph, query, keywords in fixtures:
            block = retrieve(graph, query, embedder, config)
            scores.append(keyword_coverage(block, keywords))
        recall_by_hops[hops] = fmean(scores)
    gain_pp = (recall_by_hops[1] - recall_by_hops[0]) * 100.0
    _verdict(
        5,
        gain_pp >= EXPANSION_GAIN_MIN_PP,
        f"retrieval-only keyword recall hops=0 {recall_by_hops[0]:.3f} vs "
        f"hops=1 {recall_by_hops[1]:.3f}, gain {gain_pp:+.1f}pp >= "
        f"{EXPANSION_GAIN_MIN_PP:.0f}pp over {EXPANSION_FIXTURES} fixtures",
    )


# ---------------------------------------------------------------------------
# 6. Token budget is never exceeded and packing is exactly greedy
# ---------------------------------------------------------------------------

_NEUTRAL_WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima "
    "mike november oscar papa quebec romeo sierra tango uniform victor whiskey "
    "yankee zulu"
).split()


def _greedy_reference_mask(costs, budget):
    """First feasible inclusion vector in descending lexicographic order."""
    for mask in itertools.product((1, 0), repeat=len(costs)):
        total = sum(c for c, bit in zip(costs, mask) if bit)
        if total <= budget:
            return mask
    raise AssertionError("the empty packing is always feasible")


def test_criterion_06_budget_safety_and_greedy_equivalence():
    rng = random.Random(2026)
    embedder = MockEmbedder()
    wide_k = {"k_simple": 30, "k_temporal": 30, "k_multi_hop": 30}
    over_budget = 0
    greedy_mismatches = 0
    brute_checked = 0
    for trial in range(BUDGET_TRIALS):
        n_objects = rng.randint(1, 12) if trial % 2 == 0 else rng.randint(13, 30)
        graph = CanvasGraph()
        for j in range(n_objects):
            content = " ".join(rng.choices(_NEUTRAL_WORDS, k=rng.randint(2, 12)))
            graph.add_object(
                CanvasObject(
                    kind=rng.choice(list(ObjectKind)),
                    content=content,
                    quote=content,
                    source=Source.USER,
                    turn=j,
                    confidence=round(rng.uniform(0.1, 1.0), 3),
                    embedding=embedder.embed(content),
                )
            )
        query = " ".join(rng.choices(_NEUTRAL_WORDS, k=3)) + "?"
        budget = rng.randint(0, 400)
        config = replace(
            RetrievalConfig(),
            budget_tokens=budget,
            **({} if trial % 2 == 0 else wide_k),
        )
        result = retrieve_detailed(graph, query, embedder, config)
        costs = [
            default_token_counter(render_object_line(graph.objects[c.object_id]))
            for c in result.ranked
        ]
        selected_ids = {c.object_id for c in result.selected}
        payload_cost = sum(
            cost
            for cost, cand in zip(costs, result.ranked)
            if cand.object_id in selected_ids
        )
        if payload_cost > budget:
            over_budget += 1
        if len(result.ranked) <= BRUTE_FORCE_MAX_CANDIDATES:
            brute_checked += 1
            got = tuple(
                1 if cand.object_id in selected_ids else 0 for cand in result.ranked
            )
            if got != _greedy_reference_mask(costs, budget):
                greedy_mismatches += 1
    ok = (
        over_budget == 0
        and greedy_mismatches == 0
        and brute_checked >= BRUTE_FORCE_MIN_TRIALS
    )
    _verdict(
        6,
        ok,
        f"{BUDGET_TRIALS} randomized triples, budget violations={over_budget}, "
        f"greedy vs brute-force mismatches={greedy_mismatches} "
        f"on {brute_checked} candidate lists of length <= {BRUTE_FORCE_MAX_CANDIDATES}",
    )


# ---------------------------------------------------------------------------
# 7. Edge thresholds are monotone and the sweep harness is stable
# ---------------------------------------------------------------------------

def _edge_count_at(theta_ref: float, cosines) -> int:
    """Link a fixed star of controlled-cosine objects under one threshold."""
    thresholds = LinkThresholds(
        theta_ref=theta_ref, theta_causal=round(theta_ref - 0.05, 10)
    )
    graph = CanvasGraph()
    anchor = CanvasObject(
        kind=ObjectKind.KEY_FACT,
        content="anchor subject zero",
        quote="anchor subject zero",
        source=Source.USER,
        turn=0,
        confidence=1.0,
        embedding=[1.0] + [0.0] * 7,
    )
    graph.add_object(anchor)
    link_object(graph, anchor, thresholds)
    for idx, cos in enumerate(cosines):
        content = f"probe subject {_NEUTRAL_WORDS[idx]}"
        probe = CanvasObject(
            kind=ObjectKind.KEY_FACT,
            content=content,
            quote=content,
            source=Source.USER,
            turn=idx + 1,
            confidence=1.0,
            embedding=[cos, (1.0 - cos * cos) ** 0.5] + [0.0] * 6,
        )
        graph.add_object(probe)
        link_object(graph, probe, thresholds)
    return len(graph.edges)


def test_criterion_07_threshold_monotonicity_and_sweep_shape():
    rng = random.Random(7)
    monotone = True
    strict = True
    for _ in range(3):
        cosines = sorted(rng.uniform(0.05, 0.95) for _ in range(8))
        # Guarantee pairs inside every band between the swept thresholds.
        cosines += [0.35, 0.55, 0.75]
        counts = [_edge_count_at(theta, cosines) for theta in SWEEP_REF_VALUES]
        monotone &= all(a >= b for a, b in zip(counts, counts[1:]))
        strict &= counts[0] > counts[-1]

    cases = generate_cases(6, Variant.STANDARD, tagged=True)
    bundle = mock_bundle()
    preset_rows = threshold_sweep(cases, bundle)
    grid_rows = threshold_sweep(cases, bundle, grid=ref_grid(SWEEP_REF_VALUES))
    four_row_shape = [r["config"] for r in preset_rows] == [
        "low", "default", "high", "very-high"
    ]
    grid_shape = [r["config"] for r in grid_rows] == ["ref-0.3", "ref-0.5", "ref-0.7"]
    rates = [r["pass_rate"] for r in preset_rows + grid_rows]
    rates += [r["recall_rate"] for r in preset_rows + grid_rows]
    stable = max(rates) - min(rates) <= STABILITY_BAND
    ok = monotone and strict and four_row_shape and grid_shape and stable
    _verdict(
        7,
        ok,
        f"edge counts non-increasing in theta_ref={monotone} (strict overall={strict}), "
        f"sweep shapes 4-preset={four_row_shape} 3-grid={grid_shape}, "
        f"pass-rate spread {max(rates) - min(rates):.3f} <= {STABILITY_BAND}",
    )


# ---------------------------------------------------------------------------
# 8. Ablation arms: passthrough rerank, no expansion, no gleaning
# ---------------------------------------------------------------------------

def test_criterion_08_ablation_arm_equivalence():
    bundle = mock_bundle()
    config = EngineConfig()
    case = generate_case(0, Variant.MULTI_HOP, tagged=True)
    engine = ingest_case(case, bundle, config)
    graph = engine.graph

    # Passthrough reranker is the no-rerank arm: identical ordering, scores
    # equal to the hybrid stage.
    ordering_identity = True
    for fact in case.planted:
        plan = plan_query(fact.question, bundle.embedder, config.retrieval)
        coarse = coarse_retrieve(graph, plan)
        expanded = expand_graph(graph, coarse, plan.config.hops, len(graph.rows))
        no_rerank_order = [
            c.object_id for c in sorted(expanded, key=lambda c: -c.hybrid)
        ][: plan.k]
        result = retrieve_detailed(
            graph, fact.question, bundle.embedder, config.retrieval, reranker=None
        )
        same_order = [c.object_id for c in result.ranked] == no_rerank_order
        same_scores = all(c.rerank == c.hybrid for c in result.ranked)
        ordering_identity = ordering_identity and same_order and same_scores

    # hops=0 is the no-expansion arm: the expansion stage is the identity.
    plan = plan_query(case.planted[0].question, bundle.embedder, config.retrieval)
    coarse = coarse_retrieve(graph, plan)
    no_expansion_identity = expand_graph(graph, coarse, 0, len(coarse)) == coarse

    # gleaning off is the no-gleaning arm: second-pass objects disappear and
    # nothing new is invented.
    probe_turns = generate_case(3, Variant.STANDARD, tagged=True).turns
    with_glean = CanvasEngine(bundle.extractor, bundle.embedder, gleaning=True)
    with_glean.ingest(probe_turns)
    without_glean = CanvasEngine(bundle.extractor, bundle.embedder, gleaning=False)
    without_glean.ingest(probe_turns)
    gleaning_subset = set(without_glean.graph.objects) <= set(with_glean.graph.objects)

    # Every arm runs end to end on mock cases.
    arms = {
        "full": config,
        "no-rerank": config,  # passthrough is already the default bundle
        "no-expansion": replace(config, retrieval=replace(config.retrieval, hops=0)),
        "no-gleaning": replace(config, gleaning=False),
    }
    arm_rates = {}
    cases = generate_cases(3, Variant.STANDARD, tagged=True)
    for name, arm_config in arms.items():
        records = []
        for arm_case in cases:
            records.extend(run_condition(arm_case, "canvas", bundle, arm_config).records)
        agg = aggregate_records(records)
        arm_rates[name] = agg.recall_rate
        assert agg.questions == sum(len(c.planted) for c in cases)
    ok = ordering_identity and no_expansion_identity and gleaning_subset
    _verdict(
        8,
        ok,
        f"passthrough==no-rerank ordering identity={ordering_identity}, "
        f"hops=0 expansion identity={no_expansion_identity}, "
        f"gleaning-off subset={gleaning_subset}, "
        f"arm recall rates={ {k: round(v, 3) for k, v in arm_rates.items()} }",
    )


# ---------------------------------------------------------------------------
# 9. RAG baseline presets run and chunking is character-exact
# ---------------------------------------------------------------------------

def test_criterion_09_rag_presets_and_chunking():
    bundle = mock_bundle()
    case = generate_case(0, Variant.STANDARD, tagged=True)
    text = render_transcript([t for t in case.turns if t.index <= case.compression_turn])
    chunk_exact = True
    completed = []
    for name, preset in RAG_PRESETS.items():
        chunks = chunk_text(text, preset.chunk_size, preset.overlap)
        step = preset.chunk_size - preset.overlap
        for idx, chunk in enumerate(chunks):
            if chunk != text[idx * step: idx * step + preset.chunk_size]:
                chunk_exact = False
        covered = (len(chunks) - 1) * step + len(chunks[-1]) if chunks else 0
        chunk_exact = chunk_exact and covered == len(text)

        base = EngineConfig()
        config = replace(base, bench=replace(base.bench, rag_preset=name))
        result = run_condition(case, "rag", bundle, config)
        if len(result.records) == len(case.planted):
            completed.append(name)
    ok = chunk_exact and len(completed) == len(RAG_PRESETS)
    _verdict(
        9,
        ok,
        f"presets completed={completed}, chunk slices character-exact={chunk_exact}",
    )


# ---------------------------------------------------------------------------
# 10. Metric boundaries are inclusive where promised
# ---------------------------------------------------------------------------

def test_criterion_10_metric_boundary_conformance():
    checks = []
    checks.append(exact_match("we set it to May 7, 2023 then", "May 7, 2023"))
    checks.append(not exact_match("May 8, 2023", "May 7, 2023"))
    with pytest.raises(ValueError):
        exact_match("anything", " ")
    checks.append(fuzzy_match_score("use type hints everywhere", "use type hints everywhere") == 100.0)
    partial = fuzzy_match_score(
        "the user prefers type hints in the code", "use type hints everywhere"
    )
    checks.append(abs(partial - 200.0 / 3.0) < 1e-9)
    checks.append(keyword_coverage("gateway takes 30 seconds to fail",
                                   ["gateway", "30", "seconds", "fail", "minutes"]) == 0.8)
    with pytest.raises(EmptyKeywordsError):
        keyword_coverage("anything", [])

    def record(fuzzy, coverage):
        from canvasmem.benchmark import QuestionRecord

        return QuestionRecord(
            question="q", label="recall", answer="a",
            fuzzy=fuzzy, exact=False, keyword_coverage=coverage,
        )

    at_fuzzy = aggregate_records([record(FUZZY_RECALL_BOUNDARY, 0.0)])
    below_fuzzy = aggregate_records([record(FUZZY_RECALL_BOUNDARY - 0.01, 0.0)])
    checks.append(at_fuzzy.recall_rate == 1.0)
    checks.append(below_fuzzy.recall_rate == 0.0)
    at_cov = aggregate_records([record(0.0, COVERAGE_PASS_BOUNDARY)])
    below_cov = aggregate_records([record(0.0, COVERAGE_PASS_BOUNDARY - 0.01)])
    checks.append(at_cov.pass_rate == 1.0)
    checks.append(below_cov.pass_rate == 0.0)
    _verdict(
        10,
        all(checks),
        f"{len(checks)} boundary checks passed; fuzzy>={FUZZY_RECALL_BOUNDARY:.0f} and "
        f"coverage>={COVERAGE_PASS_BOUNDARY} are inclusive",
    )
