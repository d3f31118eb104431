from __future__ import annotations

import dataclasses
import random
from dataclasses import replace
from functools import lru_cache
from statistics import fmean

import pytest

import canvasmem.benchmark
import canvasmem.scoring
from canvasmem.backends import FirstSentenceSummarizer, mock_bundle
from canvasmem.benchmark import (
    FUZZY_RECALL_THRESHOLD,
    KEYWORD_PASS_THRESHOLD,
    RAG_PRESETS,
    SINGLE_FACTS,
    STORIES,
    THRESHOLD_PRESETS,
    Aggregates,
    QuestionRecord,
    Variant,
    aggregate_records,
    alpha_settings,
    build_native_context,
    build_summarization_context,
    build_truncation_context,
    chunk_text,
    exact_match,
    fuzzy_match_score,
    generate_case,
    generate_cases,
    ingest_case,
    keyword_coverage,
    question_label,
    rag_retriever,
    rag_settings,
    ref_grid,
    render_transcript,
    render_turn,
    retrieval_recall_eval,
    run_condition,
    run_sweep,
    threshold_sweep,
)
from canvasmem.config import EngineConfig
from canvasmem.errors import (BackendFailureError, DimensionMismatchError, EmptyKeywordsError,
                              ZeroVectorError)
from canvasmem.extraction import ConversationTurn
from canvasmem.retrieval import retrieve
from canvasmem.scoring import MOCK_EMBEDDING_DIM, MockEmbedder

import reference
from conftest import CountingEmbedder


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_exact_match_is_normalized_containment():
    assert exact_match("We said May 7, 2023 I believe", "May 7, 2023")
    assert exact_match("MAY  7,   2023", "may 7, 2023")
    assert not exact_match("May 8, 2023", "May 7, 2023")


def test_exact_match_empty_key_rejected():
    with pytest.raises(ValueError):
        exact_match("anything", "")
    with pytest.raises(ValueError):
        exact_match("anything", "   ")


def test_fuzzy_partial_overlap_frozen_value():
    # Best window is [type, hints]: 100 * 2*2 / (2 + 4) = 66.666...
    score = fuzzy_match_score(
        "the user prefers type hints in the code",
        "use type hints everywhere",
    )
    assert score == pytest.approx(66.6667, abs=1e-3)
    assert score < FUZZY_RECALL_THRESHOLD


def test_fuzzy_exact_presence_scores_100():
    assert fuzzy_match_score("note: use type hints everywhere, ok?",
                             "use type hints everywhere") == 100.0


def test_fuzzy_no_overlap_scores_0():
    assert fuzzy_match_score("completely unrelated words", "use type hints everywhere") == 0.0
    assert fuzzy_match_score("", "use type hints everywhere") == 0.0


def test_fuzzy_empty_key_scores_0():
    assert fuzzy_match_score("whatever", "") == 0.0


def _fuzzy_reference(answer_tokens, key_tokens):
    """Unpruned reference: every window, plain recursive LCS."""

    @lru_cache(maxsize=None)
    def lcs(i, j):
        if i == len(window) or j == len(key_tokens):
            return 0
        if window[i] == key_tokens[j]:
            return 1 + lcs(i + 1, j + 1)
        return max(lcs(i + 1, j), lcs(i, j + 1))

    if not key_tokens or not answer_tokens:
        return 0.0
    best = 0.0
    for width in range(1, min(len(answer_tokens), len(key_tokens)) + 1):
        for start in range(len(answer_tokens) - width + 1):
            window = tuple(answer_tokens[start:start + width])
            lcs.cache_clear()
            score = 2.0 * lcs(0, 0) / (width + len(key_tokens))
            best = max(best, score)
    return 100.0 * best


def test_fuzzy_agrees_with_unpruned_reference_on_random_inputs():
    rng = random.Random(11)
    alphabet = ["red", "green", "blue", "cyan", "teal", "plum"]
    for _ in range(60):
        answer_tokens = [rng.choice(alphabet) for _ in range(rng.randint(0, 9))]
        key_tokens = [rng.choice(alphabet) for _ in range(rng.randint(1, 5))]
        answer = " ".join(answer_tokens)
        key = " ".join(key_tokens)
        got = fuzzy_match_score(answer, key)
        want = 100.0 if exact_match(answer, key) else _fuzzy_reference(answer_tokens, key_tokens)
        assert got == pytest.approx(want, abs=1e-9), (answer, key)


def test_keyword_coverage_counts_substring_hits():
    answer = "the gateway times out after 30 seconds"
    assert keyword_coverage(answer, ["gateway", "30", "seconds"]) == 1.0
    assert keyword_coverage(answer, ["gateway", "30", "seconds", "minutes", "retry"]) == 0.6
    got = keyword_coverage(answer, ["gateway", "30", "seconds", "after", "minutes"])
    assert got == pytest.approx(0.8)
    assert got >= KEYWORD_PASS_THRESHOLD  # the boundary itself counts as a pass


def test_keyword_coverage_rejects_empty_inputs():
    with pytest.raises(EmptyKeywordsError):
        keyword_coverage("anything", [])
    with pytest.raises(EmptyKeywordsError):
        keyword_coverage("anything", ["fine", "  "])


# ---------------------------------------------------------------------------
# Case generation
# ---------------------------------------------------------------------------

def test_generate_case_is_deterministic():
    a = generate_case(7, Variant.STANDARD)
    b = generate_case(7, Variant.STANDARD)
    assert a == b
    c = generate_case(8, Variant.STANDARD)
    assert a != c


def test_generate_case_shape_and_plant_window():
    case = generate_case(3, Variant.STANDARD)
    assert len(case.turns) == 50
    assert [t.index for t in case.turns] == list(range(1, 51))
    assert case.compression_turn == 40
    assert len(case.planted) == 6
    plant_turns = [p.plant_turn for p in case.planted]
    assert plant_turns == sorted(plant_turns)
    assert all(1 <= t <= 35 for t in plant_turns)
    assert len(set(plant_turns)) == len(plant_turns)


def test_planted_fact_sits_after_a_filler_sentence():
    case = generate_case(1, Variant.STANDARD, tagged=True)
    by_index = {t.index: t for t in case.turns}
    for fact in case.planted:
        user = by_index[fact.plant_turn].user_text
        marker = f"{fact.category.value}: {fact.text}"
        assert marker in user
        assert not user.startswith(marker)
        # The filler sentence in front ends before the marker begins.
        assert user.index(marker) > 0


def test_untagged_variant_uses_natural_phrasing():
    case = generate_case(1, Variant.STANDARD, tagged=False)
    by_index = {t.index: t for t in case.turns}
    fact = case.planted[0]
    user = by_index[fact.plant_turn].user_text
    assert f"By the way, {fact.text}." in user
    assert f"{fact.category.value}:" not in user


def test_multi_hop_case_plants_story_pairs():
    case = generate_case(5, Variant.MULTI_HOP)
    assert len(case.planted) == 8
    labels = sorted(question_label(p.question) for p in case.planted)
    assert labels == ["causal"] * 4 + ["impact"] * 4


def test_generate_case_validation():
    with pytest.raises(ValueError):
        generate_case(0, compression_turn=0)
    with pytest.raises(ValueError):
        generate_case(0, compression_turn=99)
    with pytest.raises(ValueError):
        generate_case(0, facts_per_case=len(SINGLE_FACTS) + 1)
    with pytest.raises(ValueError):
        generate_case(0, Variant.MULTI_HOP, stories_per_case=len(STORIES) + 1)


def test_generate_cases_advances_seed():
    cases = generate_cases(3, Variant.STANDARD, base_seed=10)
    assert [c.seed for c in cases] == [10, 11, 12]


def test_question_label_templates():
    assert question_label("Why was the redis cache decided?") == "causal"
    assert question_label("What did the api gateway timeout affect?") == "impact"
    assert question_label("When is the security audit scheduled?") == "recall"
    assert question_label("What did we eat?") == "recall"  # no "affect"


# ---------------------------------------------------------------------------
# Context builders
# ---------------------------------------------------------------------------

def _tiny_turns():
    return [
        ConversationTurn(index=1, user_text="alpha fact one.", assistant_text="noted one."),
        ConversationTurn(index=2, user_text="beta fact two.", assistant_text="noted two."),
        ConversationTurn(index=3, user_text="gamma fact three.", assistant_text="noted three."),
    ]


def test_render_turn_and_transcript_format():
    turns = _tiny_turns()
    assert render_turn(turns[0]) == "User: alpha fact one.\nAssistant: noted one."
    text = render_transcript(turns)
    assert text.count("User: ") == 3
    assert text.splitlines()[0] == "User: alpha fact one."


def test_native_context_packs_recent_turns_first():
    turns = _tiny_turns()
    assert build_native_context(turns, 10_000) == render_transcript(turns)
    small = build_native_context(turns, 14)
    assert "gamma" in small
    assert "alpha" not in small
    assert build_native_context(turns, 0) == ""


def test_truncation_context_keeps_only_the_tail():
    turns = _tiny_turns()
    context = build_truncation_context(turns, 2)
    assert "alpha" not in context
    assert "beta" in context and "gamma" in context


def test_summarization_context_loses_late_sentences_by_construction():
    case = generate_case(2, Variant.STANDARD)
    turns = [t for t in case.turns if t.index <= case.compression_turn]
    context = build_summarization_context(turns, FirstSentenceSummarizer(), 5)
    for fact in case.planted:
        assert fact.answer_key.lower() not in context.lower()
    # Recent turns ride along verbatim.
    assert render_transcript(turns[-5:]) in context


def test_chunk_text_frozen_example():
    assert chunk_text("abcdefghij", 4, 1) == ["abcd", "defg", "ghij", "j"]
    assert chunk_text("", 4, 1) == []
    with pytest.raises(ValueError):
        chunk_text("abc", 0, 0)
    with pytest.raises(ValueError):
        chunk_text("abc", 4, 4)


def test_rag_presets_frozen_parameters():
    assert set(RAG_PRESETS) == {"rag-small", "rag-default", "rag-large", "rag-topk10"}
    small = RAG_PRESETS["rag-small"]
    assert (small.chunk_size, small.top_k, small.overlap) == (256, 5, 50)
    default = RAG_PRESETS["rag-default"]
    assert (default.chunk_size, default.top_k, default.overlap) == (512, 5, 100)
    large = RAG_PRESETS["rag-large"]
    assert (large.chunk_size, large.top_k, large.overlap) == (1024, 5, 200)
    topk = RAG_PRESETS["rag-topk10"]
    assert (topk.chunk_size, topk.top_k, topk.overlap) == (512, 10, 100)


def test_rag_preset_validation():
    from canvasmem.benchmark import RAGPreset

    with pytest.raises(ValueError):
        RAGPreset("bad", 0, 5, 0)
    with pytest.raises(ValueError):
        RAGPreset("bad", 128, 5, 128)


def test_rag_context_returns_top_chunks():
    bundle = mock_bundle()
    turns = _tiny_turns()
    context = rag_retriever(turns, bundle.embedder, RAG_PRESETS["rag-small"])("beta fact")
    # The whole transcript fits one chunk here, so it comes back intact.
    assert "beta fact two." in context
    preset = dataclasses.replace(RAG_PRESETS["rag-small"], name="t", chunk_size=24, overlap=0)
    context = rag_retriever(turns, bundle.embedder, preset)("beta fact two")
    assert "beta" in context
    assert "\n\n" in context  # several chunks joined


def _rag_run(fail_on_call=None):
    case = generate_case(0)
    embedder = CountingEmbedder(fail_on_call)
    bundle = dataclasses.replace(mock_bundle(), embedder=embedder)
    result = run_condition(case, "rag", bundle)
    turns = [t for t in case.turns if t.index <= case.compression_turn]
    preset = RAG_PRESETS[EngineConfig().bench.rag_preset]
    expected = [reference.rag_context(turns, fact.question, preset, MockEmbedder())
                for fact in case.planted]
    return result, embedder, expected


def test_rag_embeds_each_chunk_once_per_case():
    result, embedder, expected = _rag_run()
    # 6 questions over 12 chunks: 6 + 12 calls, where chunking per question made 6 * 13.
    assert (len(result.records), embedder.calls) == (6, 18)
    assert [r.answer for r in result.records] == expected


def test_rag_first_question_converts_each_chunk_vector_once(monkeypatch):
    turns = generate_case(0).turns[:40]
    preset = RAG_PRESETS["rag-default"]
    chunks = chunk_text(render_transcript(turns), preset.chunk_size, preset.overlap)
    assert len(chunks) == 12
    question = "why do we use redis?"
    expected = reference.rag_context(turns, question, preset, MockEmbedder())
    calls = []
    vector = canvasmem.scoring._vector
    monkeypatch.setattr(canvasmem.scoring, "_vector",
                        lambda embedding, dim: calls.append(embedding) or vector(embedding, dim))
    assert rag_retriever(turns, MockEmbedder(), preset)(question) == expected
    # Each chunk's vector once, then the question's.
    assert len(calls) == 1 + len(chunks)


def test_rag_chunk_embedding_failure_loses_one_question_and_is_retried():
    # Call 1 embeds the first question; call 2 is its first chunk.
    result, embedder, expected = _rag_run(fail_on_call=2)
    assert [r.answered for r in result.records] == [False] + [True] * 5
    assert [r.answer for r in result.records[1:]] == expected[1:]
    assert embedder.calls == 2 + 5 + 12


# ---------------------------------------------------------------------------
# Aggregation and the condition runner
# ---------------------------------------------------------------------------

def _record(label="recall", fuzzy=100.0, exact=True, coverage=1.0):
    return QuestionRecord(
        question="q", label=label, answer="a",
        fuzzy=fuzzy, exact=exact, keyword_coverage=coverage,
    )


def test_aggregate_records_empty():
    agg = aggregate_records([])
    assert agg == Aggregates(0, 0.0, 0.0, 0.0, 0.0, None, None)


def test_aggregate_records_rates():
    records = [
        _record(fuzzy=100.0, exact=True, coverage=1.0),
        _record(fuzzy=79.9, exact=False, coverage=0.5),
        _record(label="causal", fuzzy=80.0, exact=False, coverage=0.8),
        _record(label="impact", fuzzy=0.0, exact=False, coverage=0.0),
    ]
    agg = aggregate_records(records)
    assert agg.questions == 4
    # 80.0 >= threshold, 79.9 is not: the cut is inclusive.
    assert agg.recall_rate == pytest.approx(0.5)
    assert agg.exact_rate == pytest.approx(0.25)
    assert agg.keyword_coverage == pytest.approx((1.0 + 0.5 + 0.8 + 0.0) / 4)
    assert agg.pass_rate == pytest.approx(0.5)  # coverage 1.0 and 0.8 both pass
    assert agg.causal_coverage == pytest.approx(0.8)
    assert agg.impact_coverage == pytest.approx(0.0)


def test_aggregate_records_without_causal_questions():
    agg = aggregate_records([_record(), _record()])
    assert agg.causal_coverage is None
    assert agg.impact_coverage is None


def test_run_condition_rejects_unknown_condition():
    case = generate_case(0)
    with pytest.raises(ValueError):
        run_condition(case, "telepathy", mock_bundle())


def test_canvas_condition_recalls_everything_on_a_tagged_case():
    case = generate_case(0, Variant.STANDARD)
    result = run_condition(case, "canvas", mock_bundle())
    assert result.aggregates.exact_rate == 1.0
    assert result.aggregates.recall_rate == 1.0
    assert all(r.answered for r in result.records)


def test_truncation_condition_loses_early_facts():
    case = generate_case(0, Variant.STANDARD)
    result = run_condition(case, "truncation", mock_bundle())
    assert result.aggregates.recall_rate == 0.0
    assert result.aggregates.keyword_coverage == 0.0


class _BrokenAnswerer:
    def answer(self, question, context):
        raise BackendFailureError("answer backend unavailable", role="answerer")


def test_backend_failure_marks_questions_unanswered():
    case = generate_case(0, Variant.STANDARD)
    bundle = dataclasses.replace(mock_bundle(), answerer=_BrokenAnswerer())
    result = run_condition(case, "truncation", bundle)
    assert all(not r.answered for r in result.records)
    assert all(r.answer == "" for r in result.records)
    assert result.aggregates.keyword_coverage == 0.0


def test_ingest_case_stops_at_the_compression_turn():
    case = generate_case(0, Variant.STANDARD)
    engine = ingest_case(case, mock_bundle(), EngineConfig())
    assert engine.graph.next_turn == case.compression_turn + 1
    assert all(obj.turn <= case.compression_turn for obj in engine.graph.objects.values())


def test_ref_grid_pairs_causal_below_reference():
    grid = ref_grid()
    assert [name for name, _, _ in grid] == ["ref-0.3", "ref-0.5", "ref-0.7"]
    for _, ref, causal in grid:
        assert causal == pytest.approx(ref - 0.05)


def test_rag_zero_chunk_vector_still_raises_the_scalar_error():
    class ZeroForChunks:
        def embed(self, text):
            return MockEmbedder().embed(text) if text == "question" else [0.0] * MOCK_EMBEDDING_DIM

    context_for = rag_retriever(_tiny_turns(), ZeroForChunks(), RAG_PRESETS["rag-small"])
    with pytest.raises(ZeroVectorError):
        context_for("question")


@pytest.mark.parametrize("spoil, error", [
    (lambda vector: [0.0] * len(vector), ZeroVectorError),
    (lambda vector: vector[:-1], DimensionMismatchError),
], ids=["zero", "short"])
def test_an_unscorable_chunk_vector_caches_nothing_and_the_next_question_retries(spoil, error):
    turns = _tiny_turns()
    preset = dataclasses.replace(RAG_PRESETS["rag-small"], name="t", chunk_size=24, overlap=0)
    chunks = chunk_text(render_transcript(turns), preset.chunk_size, preset.overlap)
    assert len(chunks) > 2

    class SpoilsOneChunkOnce:
        """MockEmbedder, except that the first embedding of the last chunk
        is spoiled: every other chunk's vector is fine."""

        def __init__(self):
            self.calls, self.spoiled = 0, False

        def embed(self, text):
            self.calls += 1
            vector = MockEmbedder().embed(text)
            if text == chunks[-1] and not self.spoiled:
                self.spoiled = True
                return spoil(vector)
            return vector

    embedder = SpoilsOneChunkOnce()
    context_for = rag_retriever(turns, embedder, preset)
    with pytest.raises(error):
        context_for("beta fact two")
    calls = embedder.calls
    for question in ("beta fact two", "gamma fact three"):
        assert context_for(question) == reference.rag_context(turns, question, preset,
                                                              MockEmbedder())
    # The second question embeds every chunk again, the third none.
    assert embedder.calls == calls + 2 + len(chunks)


def test_unknown_rag_preset_is_a_value_error_naming_the_known_ones():
    config = EngineConfig()
    config = replace(config, bench=replace(config.bench, rag_preset="nope"))
    with pytest.raises(ValueError, match="'nope'.*rag-small, rag-default"):
        run_condition(generate_case(0), "rag", mock_bundle(), config)


# ---------------------------------------------------------------------------
# Sweep driver against the per-sweep loops it replaced
# ---------------------------------------------------------------------------

def _pooled(results) -> dict:
    return dataclasses.asdict(aggregate_records([r for result in results for r in result.records]))


def oracle_threshold_sweep(cases, bundle, config, grid):
    rows = []
    for label, theta_ref, theta_causal in grid:
        swept = replace(
            config,
            thresholds=replace(config.thresholds, theta_ref=theta_ref, theta_causal=theta_causal),
        )
        results = [run_condition(case, "canvas", bundle, swept) for case in cases]
        rows.append({"config": label, "theta_ref": theta_ref, "theta_causal": theta_causal,
                     **_pooled(results)})
    return rows


def oracle_rag_sweep(cases, bundle, config):
    rows = []
    for name in ("rag-small", "rag-default", "rag-large", "rag-topk10"):
        preset = RAG_PRESETS[name]
        swept = replace(config, bench=replace(config.bench, rag_preset=name))
        results = [run_condition(case, "rag", bundle, swept) for case in cases]
        rows.append({"config": name, "chunk_size": preset.chunk_size, "top_k": preset.top_k,
                     "overlap": preset.overlap, **_pooled(results)})
    return rows


def oracle_alpha_sweep(cases, bundle, config):
    rows = []
    for alpha in (0.0, 0.3, 0.5, 0.7, 1.0):
        swept = replace(config, retrieval=replace(config.retrieval, alpha=alpha))
        results = [run_condition(case, "canvas", bundle, swept) for case in cases]
        rows.append({"config": f"alpha-{alpha:g}", "alpha": alpha, **_pooled(results)})
    return rows


def oracle_recall_eval(cases, bundle, config, hops_list):
    graphs = [ingest_case(case, bundle, config).graph for case in cases]
    rows = []
    for hops in hops_list:
        swept = replace(config.retrieval, hops=hops)
        scores = []
        for case, graph in zip(cases, graphs):
            for fact in case.planted:
                block = retrieve(graph, fact.question, bundle.embedder, swept, bundle.reranker)
                scores.append(keyword_coverage(block, fact.keywords))
        rows.append({"hops": hops, "recall": fmean(scores) if scores else 0.0,
                     "questions": len(scores)})
    return rows


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("tagged", [True, False])
def test_sweep_driver_rows_equal_the_per_sweep_loops(variant, tagged):
    cases = generate_cases(3, variant, tagged=tagged)
    bundle, config = mock_bundle(), EngineConfig()
    for grid in (THRESHOLD_PRESETS, ref_grid()):
        assert threshold_sweep(cases, bundle, config, grid) == \
            oracle_threshold_sweep(cases, bundle, config, grid)
    assert run_sweep(cases, bundle, rag_settings(config), "rag") == \
        oracle_rag_sweep(cases, bundle, config)
    assert run_sweep(cases, bundle, alpha_settings(config)) == \
        oracle_alpha_sweep(cases, bundle, config)
    assert retrieval_recall_eval(cases, bundle, config, [0, 1, 2, 4]) == \
        oracle_recall_eval(cases, bundle, config, [0, 1, 2, 4])


def test_sweep_driver_ingests_each_case_once_per_link_setting(monkeypatch):
    calls = []
    real_ingest = canvasmem.benchmark.ingest_case

    def counting(case, bundle, config):
        calls.append(case.seed)
        return real_ingest(case, bundle, config)

    monkeypatch.setattr(canvasmem.benchmark, "ingest_case", counting)
    cases, bundle, config = generate_cases(3), mock_bundle(), EngineConfig()
    expected = {
        "alpha": (lambda: run_sweep(cases, bundle, alpha_settings(config)), len(cases)),
        "threshold": (lambda: threshold_sweep(cases, bundle, config),
                      len(THRESHOLD_PRESETS) * len(cases)),
        "recall": (lambda: retrieval_recall_eval(cases, bundle, config, [0, 1, 2, 4]),
                   len(cases)),
        "rag": (lambda: run_sweep(cases, bundle, rag_settings(config), "rag"), 0),
    }
    for name, (run, count) in expected.items():
        calls.clear()
        run()
        assert len(calls) == count, name
