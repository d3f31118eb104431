from __future__ import annotations

import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import canvasmem.retrieval
from canvasmem.backends import BackendConfig, RemoteReranker
from canvasmem.core import CanvasEdge, CanvasGraph, EdgeKind, EdgeOrigin, ObjectKind
from canvasmem.engine import CanvasEngine
from canvasmem.extraction import MockExtractor
from canvasmem.retrieval import (
    DEFAULT_BUDGET_TOKENS,
    DEFAULT_COARSE_K,
    EXPANSION_DECAY,
    INJECTION_HEADER,
    KIND_ORDER,
    REASONING_INSTRUCTION,
    TEMPORAL_INSTRUCTION,
    Provenance,
    QueryClass,
    QueryPlan,
    RetrievalConfig,
    ScoredObject,
    build_injection,
    classify_query,
    coarse_retrieve,
    default_causal_indicators,
    default_temporal_indicators,
    default_token_counter,
    expand_graph,
    greedy_select,
    plan_query,
    render_object_line,
    rerank_candidates,
    retrieve,
    retrieve_detailed,
)
from canvasmem.scoring import MockEmbedder

import reference
from conftest import QUESTIONS, axis, graph_of, make_obj, seeded_turns


def test_default_token_counter_rounds_up():
    assert default_token_counter("") == 0
    assert default_token_counter("abcd") == 1
    assert default_token_counter("abcde") == 2
    assert default_token_counter("x" * 8) == 2


@pytest.mark.parametrize(
    "query,expected_class,expected_k",
    [
        ("Why did we choose Redis?", QueryClass.MULTI_HOP, 15),
        ("What led to the outage?", QueryClass.MULTI_HOP, 15),
        ("When did Caroline attend the support group?", QueryClass.TEMPORAL, 12),
        ("How long does the build take?", QueryClass.TEMPORAL, 12),
        ("What is the cache TTL?", QueryClass.SIMPLE, 10),
        ("List the open reminders.", QueryClass.SIMPLE, 10),
    ],
)
def test_classify_query_fixtures(query, expected_class, expected_k):
    assert classify_query(query) == (expected_class, expected_k)


def test_classify_query_causal_precedence_over_temporal():
    # "why did" and "when" both appear; causal indicators win.
    klass, k = classify_query("When it broke, why did the cache misbehave?")
    assert klass is QueryClass.MULTI_HOP and k == 15


def test_classify_query_respects_word_boundaries():
    # "whenever" must not trigger the "when" indicator.
    assert classify_query("Whenever convenient, share the doc")[0] is QueryClass.SIMPLE
    # "aftermath" must not trigger "after".
    assert classify_query("Describe the aftermath in the report")[0] is QueryClass.SIMPLE


def test_classify_query_is_case_insensitive():
    assert classify_query("WHY DID the tests fail?")[0] is QueryClass.MULTI_HOP


def test_classify_query_rejects_empty():
    with pytest.raises(ValueError):
        classify_query("   ")


def test_classify_query_accepts_custom_indicators_and_k_map():
    config = RetrievalConfig(causal_indicators=("changed",), temporal_indicators=(),
                             k_simple=1, k_temporal=2, k_multi_hop=3)
    assert classify_query("what changed upstream?", config) == (QueryClass.MULTI_HOP, 3)
    assert classify_query("when did it move?", config) == (QueryClass.SIMPLE, 1)


def _oracle_classify(query_text, causal, temporal):
    """The per-phrase search classify_query replaced: one re.search per phrase."""
    lowered = query_text.lower()

    def found(phrase):
        return re.search(rf"\b{re.escape(phrase.lower())}\b", lowered) is not None

    if any(found(p) for p in causal):
        return QueryClass.MULTI_HOP
    if any(found(p) for p in temporal):
        return QueryClass.TEMPORAL
    return QueryClass.SIMPLE


# Phrases with regex metacharacters inside, upper case, spaces, digits and
# underscores at the edges, and "after", which the default lists share.
_PHRASES = ("after", "why did", "When", "how long", "c++d", "a.b", "x(y)z", "s[y]t", "5$5",
            "up^up", "a|b", "end.it", "x*y", "_x_", "led to", "Before", "back\\slash")
_phrase_lists = st.lists(st.sampled_from(_PHRASES), max_size=5)
# Phrases that do not begin and end with a word character, which the
# config refuses; a query may still hold them as words.
_EDGE_PHRASES = ("", " ", "why?", "c++", "(x)", "[y]", "$5", "^up", "end.", ".net", "x*", " why")


@settings(max_examples=400, deadline=None)
@given(
    causal=_phrase_lists,
    temporal=_phrase_lists,
    as_list=st.booleans(),
    words=st.lists(st.sampled_from(_PHRASES + _EDGE_PHRASES[2:] + (
                       "AFTER", "afterwards", "c+++d", "axb", "x", "y", "$", "5", "net", "what",
                       "b", "ab", "c++")),
                   min_size=1, max_size=6),
    separator=st.sampled_from([" ", "", ", ", "-", "_"]),
)
def test_classify_query_matches_the_per_phrase_search(causal, temporal, as_list, words, separator):
    text = separator.join(words)
    assume(text.strip())
    if not as_list:
        causal, temporal = tuple(causal), tuple(temporal)
    want = _oracle_classify(text, causal, temporal)
    config = RetrievalConfig(causal_indicators=causal, temporal_indicators=temporal)
    assert classify_query(text, config) == (want, config.k_map[want])


@pytest.mark.parametrize("phrase", _EDGE_PHRASES + ("İ", 3, None))
@pytest.mark.parametrize("name", ["causal_indicators", "temporal_indicators"])
def test_retrieval_config_refuses_a_phrase_without_word_edges(name, phrase):
    with pytest.raises(ValueError, match=rf"^{name} phrase {re.escape(repr(phrase))} must be"):
        RetrievalConfig(**{name: ("when", phrase)})


def test_classify_query_with_default_lists_matches_the_per_phrase_search():
    causal, temporal = default_causal_indicators(), default_temporal_indicators()
    assert "after" in causal and "after" in temporal
    for text in ("What happened after the deploy?", "AFTERWARDS we left", "how long, after all?",
                 "When did it break", "before lunch", "plain question", "what date was it",
                 "it resulted in", "whence", "why didn't it"):
        assert classify_query(text)[0] is _oracle_classify(text, causal, temporal)


def test_retrieval_config_presets():
    standard = RetrievalConfig.preset("standard")
    locomo = RetrievalConfig.preset("locomo")
    assert standard.hops == 1
    assert locomo.hops == 4
    assert standard.coarse_k == locomo.coarse_k == DEFAULT_COARSE_K
    assert standard.budget_tokens == DEFAULT_BUDGET_TOKENS
    with pytest.raises(ValueError, match="'turbo'.*standard, locomo"):
        RetrievalConfig.preset("turbo")
    with pytest.raises(ValueError):
        RetrievalConfig.preset(["locomo"])


def test_retrieval_config_validation():
    with pytest.raises(ValueError):
        RetrievalConfig(coarse_k=0)
    with pytest.raises(ValueError):
        RetrievalConfig(hops=-1)
    with pytest.raises(ValueError):
        RetrievalConfig(budget_tokens=-5)
    with pytest.raises(ValueError):
        RetrievalConfig(k_simple=0)


def _plan(query="the probe query", klass=QueryClass.SIMPLE, **settings):
    """A plan for query on the first axis, under a config of settings."""
    return QueryPlan(query, axis(0), klass, 10, RetrievalConfig(**settings))


def test_coarse_retrieve_orders_by_hybrid_then_ties():
    graph = CanvasGraph()
    # Same embedding and no lexical overlap: scores tie exactly.
    strong = make_obj(content="orange", turn=5, embedding=axis(0), confidence=1.0)
    weaker = make_obj(content="violet", turn=2, embedding=axis(0), confidence=0.4)
    later = make_obj(content="maroon", turn=9, embedding=axis(0), confidence=1.0)
    offaxis = make_obj(content="indigo", turn=0, embedding=axis(1))
    for obj in (strong, weaker, later, offaxis):
        graph.add_object(obj)
    hits = coarse_retrieve(graph, _plan())
    # Ties: higher confidence first, then lower turn; zero-cosine object last.
    assert [h.object_id for h in hits] == [strong.id, later.id, weaker.id, offaxis.id]
    assert hits[0].hybrid == pytest.approx(0.7)
    assert all(h.provenance is Provenance.COARSE for h in hits)


def test_coarse_retrieve_caps_at_coarse_k():
    graph = CanvasGraph()
    for turn in range(30):
        graph.add_object(make_obj(content=f"item {turn}", turn=turn, embedding=axis(0)))
    hits = coarse_retrieve(graph, _plan(coarse_k=20))
    assert len(hits) == 20
    assert [graph.objects[h.object_id].turn for h in hits] == list(range(20))


def _reference(graph, a, b, weight=0.9):
    graph.add_edge(CanvasEdge(src=a.id, dst=b.id, kind=EdgeKind.REFERENCE,
                              weight=weight, origin=EdgeOrigin.SIMILARITY))


def test_expand_graph_decays_and_tracks_hops():
    a = make_obj(content="seed item", turn=0, embedding=axis(0))
    b = make_obj(content="one hop out", turn=1, embedding=axis(1))
    c = make_obj(content="two hops out", turn=2, embedding=axis(2))
    graph = graph_of(a, b, c)
    _reference(graph, a, b)
    _reference(graph, b, c)
    seeds = [ScoredObject(object_id=a.id, hybrid=1.0)]
    out = expand_graph(graph, seeds, hops=2, k=3)
    assert [(o.object_id, o.hop) for o in out] == [(a.id, 0), (b.id, 1), (c.id, 2)]
    assert out[1].hybrid == pytest.approx(EXPANSION_DECAY)
    assert out[2].hybrid == pytest.approx(EXPANSION_DECAY ** 2)
    assert out[1].provenance is Provenance.EXPANDED


def test_expand_graph_hop_budget_and_identity():
    a = make_obj(content="seed item", turn=0, embedding=axis(0))
    b = make_obj(content="one hop out", turn=1, embedding=axis(1))
    graph = graph_of(a, b)
    _reference(graph, a, b)
    seeds = [ScoredObject(object_id=a.id, hybrid=1.0)]
    assert expand_graph(graph, seeds, hops=0, k=2) == seeds
    assert [o.object_id for o in expand_graph(graph, seeds, hops=1, k=2)] == [a.id, b.id]


def test_expand_graph_inherits_best_parent_score():
    a = make_obj(content="strong seed", turn=0, embedding=axis(0))
    b = make_obj(content="weak seed", turn=1, embedding=axis(1))
    shared = make_obj(content="shared neighbor", turn=2, embedding=axis(2))
    graph = graph_of(a, b, shared)
    _reference(graph, a, shared)
    _reference(graph, b, shared)
    seeds = [
        ScoredObject(object_id=a.id, hybrid=1.0),
        ScoredObject(object_id=b.id, hybrid=0.5),
    ]
    out = expand_graph(graph, seeds, hops=1, k=3)
    # The shared neighbour inherits the strong seed's score, which ranks it
    # above the weak seed.
    assert [o.object_id for o in out] == [a.id, shared.id, b.id]
    assert out[1].hybrid == pytest.approx(1.0 * EXPANSION_DECAY)


def test_expand_graph_walks_reverse_and_causal_edges():
    early = make_obj(content="cause item", turn=0, embedding=axis(0))
    late = make_obj(content="effect item", turn=3, embedding=axis(1))
    graph = graph_of(early, late)
    graph.add_edge(CanvasEdge(src=early.id, dst=late.id, kind=EdgeKind.CAUSAL,
                              weight=1.0, origin=EdgeOrigin.TEMPORAL_HEURISTIC))
    # Seeding from the edge target still reaches the source.
    seeds = [ScoredObject(object_id=late.id, hybrid=0.9)]
    out = expand_graph(graph, seeds, hops=1, k=2)
    assert [o.object_id for o in out] == [late.id, early.id]


def test_expand_graph_deterministic_sibling_order():
    seed = make_obj(content="seed item", turn=0, embedding=axis(0))
    sib_a = make_obj(content="sibling one", turn=1, embedding=axis(1))
    sib_b = make_obj(content="sibling two", turn=2, embedding=axis(2))
    graph = graph_of(seed, sib_a, sib_b)
    _reference(graph, seed, sib_a)
    _reference(graph, seed, sib_b)
    out = expand_graph(graph, [ScoredObject(object_id=seed.id, hybrid=1.0)], hops=1, k=3)
    # Equal inherited scores; the id breaks the tie.
    expected = sorted([sib_a.id, sib_b.id])
    assert [o.object_id for o in out[1:]] == expected


class _ReversingReranker:
    def rerank(self, query_text, candidates):
        return [(cid, float(rank)) for rank, (cid, _) in enumerate(candidates)]


class _ExplodingReranker:
    def rerank(self, query_text, candidates):
        raise RuntimeError("reranker fell over")


class _ForgetfulReranker:
    def rerank(self, query_text, candidates):
        return [(candidates[0][0], 5.0)]


class _ScriptedReranker:
    """Gives the candidates, in the order it sees them, the listed scores."""

    def __init__(self, scores):
        self.scores = scores

    def rerank(self, query_text, candidates):
        return [(cid, score) for (cid, _), score in zip(candidates, self.scores)]


def _candidates(graph, scores):
    out = []
    for idx, score in enumerate(scores):
        obj = make_obj(content=f"candidate {idx}", turn=idx, embedding=axis(0))
        graph.add_object(obj)
        out.append(ScoredObject(object_id=obj.id, hybrid=score))
    return out


def _ranking(graph, scores):
    """Candidates with these hybrid scores as expand_graph ranks them: in
    stable descending hybrid order, each with its hybrid as its rerank."""
    return reference.rank(_candidates(graph, scores), None)


def test_rerank_without_backend_uses_hybrid_as_rerank():
    # Without a backend no rerank stage runs: the read's ranking is the
    # walk's, in descending hybrid order with the hybrid as its rerank score.
    embedder = MockEmbedder()
    graph = _seeded_graph(6, 60)
    provenances = set()
    for question in QUESTIONS:
        ranked = retrieve_detailed(graph, question, embedder, PRESETS[1]).ranked
        assert all(c.rerank == c.hybrid for c in ranked)
        assert [c.hybrid for c in ranked] == sorted((c.hybrid for c in ranked), reverse=True)
        provenances.update(c.provenance for c in ranked)
        assert all((c.provenance is Provenance.EXPANDED) == (c.hop >= 1) for c in ranked)
    assert provenances == set(Provenance)


def test_rerank_truncates_to_k():
    graph = CanvasGraph()
    cands = _ranking(graph, [0.2, 0.9, 0.5, 0.7])
    ranked = rerank_candidates(graph, _ScriptedReranker([0.1, 0.4, 0.3, 0.2]), "q", cands, k=2)
    assert [r.hybrid for r in ranked] == [0.7, 0.5]
    assert [r.rerank for r in ranked] == [0.4, 0.3]


def test_rerank_backend_reorders():
    graph = CanvasGraph()
    cands = _ranking(graph, [0.9, 0.5, 0.2])
    ranked = rerank_candidates(graph, _ReversingReranker(), "q", cands, k=3)
    # The stub scores candidates by their position, so the order flips.
    assert [r.hybrid for r in ranked] == [0.2, 0.5, 0.9]
    assert [r.rerank for r in ranked] == [2.0, 1.0, 0.0]


def test_rerank_backend_failure_falls_back_to_hybrid():
    graph = CanvasGraph()
    cands = _ranking(graph, [0.2, 0.9])
    ranked = rerank_candidates(graph, _ExplodingReranker(), "q", cands, k=2)
    assert [r.hybrid for r in ranked] == [0.9, 0.2]
    assert [r.rerank for r in ranked] == [0.9, 0.2]
    assert rerank_candidates(graph, _ExplodingReranker(), "q", cands, k=1) == ranked[:1]


def test_rerank_missing_scores_sink_to_bottom():
    graph = CanvasGraph()
    cands = _ranking(graph, [0.9, 0.5, 0.2])
    ranked = rerank_candidates(graph, _ForgetfulReranker(), "q", cands, k=3)
    # Only the top hybrid candidate got a score; the rest keep hybrid order.
    assert ranked[0].rerank == 5.0
    assert [r.hybrid for r in ranked] == [0.9, 0.5, 0.2]


def test_a_nan_rerank_score_ranks_as_missing():
    graph = CanvasGraph()
    cands = _ranking(graph, [0.6, 0.5, 0.4, 0.3, 0.2, 0.1])
    # A NaN, and a score float() rejects with TypeError or ValueError.
    for missing in (math.nan, None, "high"):
        reranker = _ScriptedReranker([0.1, missing, 0.9, 0.3, 0.8, 0.2])
        ranked = rerank_candidates(graph, reranker, "q", cands, k=6)
        assert [r.rerank for r in ranked] == [0.9, 0.8, 0.3, 0.2, 0.1, -math.inf]
        top = rerank_candidates(graph, reranker, "q", cands, k=3)
        assert [r.hybrid for r in top] == [0.4, 0.2, 0.3]


# Each reply is made from the candidates the backend sees, top hybrid first.
MALFORMED_REPLIES = {
    "none": lambda seen: None,
    "number": lambda seen: 5,
    "one-tuple": lambda seen: [(seen[0][0],)] + [(cid, 1.0) for cid, _ in seen[1:]],
    "bare-id": lambda seen: [seen[0][0]] + [(cid, 1.0) for cid, _ in seen[1:]],
}


class _ReplyingReranker:
    def __init__(self, reply):
        self.reply = reply

    def rerank(self, query_text, candidates):
        return self.reply(candidates)


@pytest.mark.parametrize("reply", MALFORMED_REPLIES)
def test_a_malformed_rerank_reply_does_not_crash_the_query(reply, caplog):
    """A reply that is not iterable falls back to the hybrid order with a
    warning; an entry that is not an (id, score) pair ranks last."""
    graph = CanvasGraph()
    cands = _ranking(graph, [0.9, 0.5, 0.2])
    reranker = _ReplyingReranker(MALFORMED_REPLIES[reply])
    with caplog.at_level("WARNING", logger="canvasmem.retrieval"):
        ranked = rerank_candidates(graph, reranker, "q", cands, k=3)
    if reply in ("none", "number"):
        assert [r.rerank for r in ranked] == [0.9, 0.5, 0.2]
        assert "falling back to hybrid order" in caplog.text
    else:
        assert [r.hybrid for r in ranked] == [0.5, 0.2, 0.9]
        assert [r.rerank for r in ranked] == [1.0, 1.0, -math.inf]
        assert caplog.text == ""


def test_coarse_retrieve_breaks_ties_on_turns_past_2_62():
    # Scores and confidences tie, so turn decides, also for turns the index
    # stores capped at 2**62 in its turn column.
    turns = (2**63 - 2, 2**62 + 1, 7, 2**62, 2**63 - 1)
    objects = [make_obj(content=f"equal item {i}", turn=turn, embedding=axis(0))
               for i, turn in enumerate(turns)]
    graph = graph_of(*objects)
    plan = _plan(coarse_k=4)
    hits = coarse_retrieve(graph, plan)
    want = sorted(objects, key=lambda obj: obj.turn)[:4]
    assert [h.object_id for h in hits] == [obj.id for obj in want]
    assert len({h.hybrid for h in hits}) == 1
    assert [(h.object_id, h.hybrid.hex()) for h in hits] == [
        (h.object_id, h.hybrid.hex()) for h in reference.coarse_retrieve(graph, plan)]


def test_rerank_requires_candidates():
    with pytest.raises(ValueError):
        rerank_candidates(CanvasGraph(), _ReversingReranker(), "q", [], k=5)


def test_render_object_line_format():
    obj = make_obj(kind=ObjectKind.DECISION, content="cache in redis",
                   quote="we will cache in Redis", turn=7)
    line = render_object_line(obj)
    assert line == '- [DECISION] (turn 7) "we will cache in Redis" :: cache in redis\n'


@pytest.mark.parametrize("kind,tag", [
    (ObjectKind.DECISION, "DECISION"),
    (ObjectKind.TODO, "TODO"),
    (ObjectKind.KEY_FACT, "KEY_FACT"),
    (ObjectKind.REMINDER, "REMINDER"),
    (ObjectKind.INSIGHT, "INSIGHT"),
])
def test_render_object_line_tags_every_kind(kind, tag):
    obj = make_obj(kind=kind, content="cache in redis", quote="we will cache in Redis", turn=12)
    line = render_object_line(obj)
    assert line == f'- [{tag}] (turn 12) "we will cache in Redis" :: cache in redis\n'


def test_every_kind_has_one_place_in_the_block_order():
    assert set(KIND_ORDER) == set(ObjectKind)
    assert len(KIND_ORDER) == len(ObjectKind)


def test_greedy_select_skip_and_continue_frozen():
    graph = CanvasGraph()
    cands, costs = [], []
    for name, length in (("alpha", 360), ("beta", 320), ("gamma", 200)):
        obj = make_obj(content=name + "x" * length, quote=name, turn=0, embedding=axis(0))
        graph.add_object(obj)
        cands.append(ScoredObject(object_id=obj.id, hybrid=1.0))
        costs.append(default_token_counter(render_object_line(obj)))
    assert costs == [100, 90, 60]
    picked = greedy_select(graph, cands, budget_tokens=160)
    # 100 fits, 90 does not (60 left), 60 does: skip is not a stop.
    assert [graph.objects[c.object_id].quote for c in picked] == ["alpha", "gamma"]


def test_greedy_select_zero_budget_selects_nothing():
    graph = CanvasGraph()
    cands = _candidates(graph, [1.0, 0.9])
    assert greedy_select(graph, cands, budget_tokens=0) == []


def test_greedy_select_respects_exact_fit():
    graph = CanvasGraph()
    obj = make_obj(content="tight fit", turn=0, embedding=axis(0))
    graph.add_object(obj)
    line_cost = default_token_counter(render_object_line(obj))
    picked = greedy_select(graph, [ScoredObject(object_id=obj.id, hybrid=1.0)], line_cost)
    assert len(picked) == 1
    picked = greedy_select(graph, [ScoredObject(object_id=obj.id, hybrid=1.0)], line_cost - 1)
    assert picked == []


def test_build_injection_groups_by_kind_and_keeps_header():
    todo = make_obj(kind=ObjectKind.TODO, content="write the doc", turn=1, embedding=axis(0))
    decision = make_obj(kind=ObjectKind.DECISION, content="cache in redis", turn=2,
                        embedding=axis(1))
    insight = make_obj(kind=ObjectKind.INSIGHT, content="builds are slow", turn=3,
                       embedding=axis(2))
    graph = graph_of(todo, decision, insight)
    selected = [
        ScoredObject(object_id=todo.id, hybrid=0.9),
        ScoredObject(object_id=insight.id, hybrid=0.8),
        ScoredObject(object_id=decision.id, hybrid=0.7),
    ]
    block = build_injection(graph, selected, _plan())
    lines = block.splitlines()
    assert lines[0] == INJECTION_HEADER
    assert lines[1].startswith("- [DECISION]")
    assert lines[2].startswith("- [INSIGHT]")
    assert lines[3].startswith("- [TODO]")
    assert REASONING_INSTRUCTION not in block
    assert TEMPORAL_INSTRUCTION not in block


def test_build_injection_keeps_the_selection_order_inside_a_kind():
    objs = {
        name: make_obj(kind=kind, content=f"{name} content", turn=turn, embedding=axis(turn))
        for turn, (name, kind) in enumerate([
            ("decision one", ObjectKind.DECISION), ("fact one", ObjectKind.KEY_FACT),
            ("decision two", ObjectKind.DECISION), ("fact two", ObjectKind.KEY_FACT),
        ])
    }
    graph = graph_of(*objs.values())
    order = ["fact two", "decision two", "fact one", "decision one"]
    selected = [ScoredObject(object_id=objs[name].id, hybrid=1.0) for name in order]
    lines = build_injection(graph, selected, _plan()).splitlines()[1:]
    assert lines == [render_object_line(objs[name]).rstrip("\n") for name in
                     ["decision two", "decision one", "fact two", "fact one"]]


def test_build_injection_class_instructions():
    block_multi = build_injection(CanvasGraph(), [], _plan(klass=QueryClass.MULTI_HOP))
    assert block_multi.startswith(INJECTION_HEADER)
    assert REASONING_INSTRUCTION in block_multi
    block_temporal = build_injection(CanvasGraph(), [], _plan(klass=QueryClass.TEMPORAL))
    assert TEMPORAL_INSTRUCTION in block_temporal
    assert REASONING_INSTRUCTION not in block_temporal


STAGES = ("plan_query", "coarse_retrieve", "expand_graph", "rerank_candidates",
          "greedy_select", "build_injection")


def test_retrieve_detailed_calls_each_stage_once_through_the_module(monkeypatch):
    # Tracing wraps the stages by their module attribute, so a stage called
    # any other way would run outside its span. Without a reranker backend
    # the walk's top-k cut is the ranking, so no rerank stage runs.
    embedder = MockEmbedder()
    graph = CanvasGraph()
    objs = [make_obj(content=content, turn=turn, embedding=embedder.embed(content))
            for turn, content in enumerate(("cache responses in redis", "redis runs on port 6379"))]
    for obj in objs:
        graph.add_object(obj)
    graph.add_edge(CanvasEdge(src=objs[1].id, dst=objs[0].id, kind=EdgeKind.REFERENCE,
                              weight=0.5, origin=EdgeOrigin.KEYWORD))
    calls = dict.fromkeys(STAGES, 0)

    def counted(name):
        stage = getattr(canvasmem.retrieval, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return stage(*args, **kwargs)
        return wrapper

    for name in STAGES:
        monkeypatch.setattr(canvasmem.retrieval, name, counted(name))
    question = "where is the cache?"
    assert retrieve_detailed(graph, question, embedder, reranker=_ReversingReranker()).selected
    assert calls == dict.fromkeys(STAGES, 1)
    calls.update(dict.fromkeys(STAGES, 0))
    assert retrieve_detailed(graph, question, embedder).selected
    assert calls == {**dict.fromkeys(STAGES, 1), "rerank_candidates": 0}


def _seeded_graph(seed, turns):
    engine = CanvasEngine(MockExtractor(), MockEmbedder())
    engine.ingest(seeded_turns(seed, turns))
    return engine.graph


PRESETS = [RetrievalConfig.preset(name) for name in ("standard", "locomo")]


def _answer(result):
    return ([(c.object_id, c.hybrid.hex(), c.rerank.hex(), c.provenance, c.hop)
             for c in result.ranked], result.injection)


def test_a_read_without_a_reranker_never_enters_rerank_candidates(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("rerank_candidates ran without a reranker backend")

    monkeypatch.setattr(canvasmem.retrieval, "rerank_candidates", refused)
    embedder = MockEmbedder()
    graph = _seeded_graph(6, 60)
    for config in PRESETS:
        for question in QUESTIONS:
            got = retrieve_detailed(graph, question, embedder, config)
            assert _answer(got) == _answer(reference.retrieve(graph, question, embedder, config))


def test_reads_of_a_graph_and_its_snapshots_render_each_line_once(monkeypatch):
    rendered = []

    def recorded(obj):
        rendered.append(obj.id)
        return render_object_line(obj)

    monkeypatch.setattr(canvasmem.retrieval, "render_object_line", recorded)
    embedder = MockEmbedder()
    turns = seeded_turns(7, 80)
    engine = CanvasEngine(MockExtractor(), embedder)
    engine.ingest(turns[:40])
    twin = engine.snapshot()
    engine.ingest(turns[40:])
    graphs = [engine.graph, twin, twin.snapshot(), engine.snapshot()]
    selected = set()
    for _ in range(2):
        for graph in graphs:
            for config in PRESETS:
                for question in QUESTIONS:
                    got = retrieve_detailed(graph, question, embedder, config)
                    assert got.injection == reference.retrieve(
                        graph, question, embedder, config).injection
                    selected.update(c.object_id for c in got.selected)
    assert len(rendered) == len(set(rendered))
    assert selected and selected <= set(rendered)


def test_a_reranker_backend_receives_the_top_of_the_hybrid_ranking_in_order():
    """The pool a backend ranks is the first max(k, coarse_k) of the
    reference's full walk in stable descending hybrid order, each sent as
    its (id, content and quote) pair; the read then ranks by the backend's
    scores and cuts to k. A coarse_k at or above the reachable pool sends
    the whole expansion."""
    class Recording(_ReversingReranker):
        def rerank(self, query_text, candidates):
            pools.append(list(candidates))
            return super().rerank(query_text, candidates)

    pools = []
    embedder = MockEmbedder()
    graph = _seeded_graph(9, 60)
    wide = RetrievalConfig(coarse_k=len(graph.rows), hops=4)
    for config in (*PRESETS, wide):
        for question in QUESTIONS:
            got = retrieve_detailed(graph, question, embedder, config, Recording())
            plan = plan_query(question, embedder, config)
            full = reference.expand_graph(
                graph, reference.coarse_retrieve(graph, plan), config.hops)
            bound = max(plan.k, config.coarse_k)
            pool = reference.rank(full, bound)
            objects = [graph.objects[c.object_id] for c in pool]
            assert pools.pop() == [(obj.id, f"{obj.content}\n{obj.quote}") for obj in objects]
            if config is wide:
                assert pool == reference.rank(full, None)
            else:
                assert len(full) > bound
            # The stub scores by position, so the read's ranking is the
            # pool reversed, cut to k.
            want = [(c.object_id, c.hybrid.hex(), float(i), c.provenance, c.hop)
                    for i, c in reversed(list(enumerate(pool)))][: plan.k]
            assert [(c.object_id, c.hybrid.hex(), c.rerank, c.provenance, c.hop)
                    for c in got.ranked] == want


def test_a_remote_reranker_posts_one_request_of_the_bounded_pool_per_read(monkeypatch):
    """A read through RemoteReranker posts once to /rerank, with the texts
    of the first max(k, coarse_k) of the hybrid ranking as its documents,
    and ranks by the scores the endpoint returns."""
    posted = []

    def transport(url, payload, headers, timeout_s):
        posted.append((url, payload))
        count = len(payload["documents"])
        # The last document scores highest, so the read reverses the pool.
        return 200, {"results": [{"index": i, "relevance_score": float(i)}
                                 for i in range(count)]}

    monkeypatch.setenv("CANVASMEM_TEST_KEY", "sk-unit-test")
    client = RemoteReranker(BackendConfig(endpoint="https://example.invalid/v1",
                                          api_key_env="CANVASMEM_TEST_KEY"), transport)
    embedder = MockEmbedder()
    graph = _seeded_graph(9, 60)
    for config in PRESETS:
        for question in QUESTIONS:
            got = retrieve_detailed(graph, question, embedder, config, client)
            [(url, payload)] = posted
            posted.clear()
            bound = max(got.plan.k, config.coarse_k)
            plan = plan_query(question, embedder, config)
            full = reference.expand_graph(
                graph, reference.coarse_retrieve(graph, plan), config.hops)
            pool = [graph.objects[c.object_id] for c in reference.rank(full, bound)]
            assert url == "https://example.invalid/v1/rerank"
            assert payload["query"] == question
            assert payload["documents"] == [f"{obj.content}\n{obj.quote}" for obj in pool]
            assert len(payload["documents"]) == bound < len(full)
            assert [c.object_id for c in got.ranked] == [obj.id for obj in pool[::-1]][: got.plan.k]
    assert client.stats.calls == 2 * len(QUESTIONS) and client.stats.retries == 0


def test_a_read_without_a_backend_ranks_the_coarse_hits_themselves(monkeypatch):
    hits = []
    coarse = canvasmem.retrieval.coarse_retrieve

    def recorded(*args):
        hits.append(coarse(*args))
        return hits[-1]

    monkeypatch.setattr(canvasmem.retrieval, "coarse_retrieve", recorded)
    embedder = MockEmbedder()
    graph = _seeded_graph(6, 60)
    for config in PRESETS:
        for question in QUESTIONS:
            ranked = retrieve_detailed(graph, question, embedder, config).ranked
            seeds = [c for c in ranked if c.provenance is Provenance.COARSE]
            assert seeds and all(any(c is hit for hit in hits[-1]) for c in seeds)
            assert all(c.rerank == c.hybrid for c in hits[-1])


def test_retrieve_detailed_end_to_end():
    embedder = MockEmbedder()
    graph = CanvasGraph()
    for idx, content in enumerate(
        ("the deploy freeze starts friday", "cache responses in redis", "the office plant needs water")
    ):
        graph.add_object(
            make_obj(content=content, turn=idx, embedding=embedder.embed(content))
        )
    result = retrieve_detailed(graph, "when does the deploy freeze start?", embedder)
    assert result.plan.klass is QueryClass.TEMPORAL
    assert result.ranked
    top = result.ranked[0]
    assert graph.objects[top.object_id].content == "the deploy freeze starts friday"
    assert result.injection.startswith(INJECTION_HEADER)
    assert "deploy freeze" in result.injection
    assert TEMPORAL_INSTRUCTION in result.injection
    payload = [render_object_line(graph.objects[c.object_id]) for c in result.selected]
    assert sum(default_token_counter(line) for line in payload) <= result.plan.config.budget_tokens


def test_a_read_takes_every_setting_from_the_config_its_plan_carries():
    embedder = MockEmbedder()
    graph = _seeded_graph(6, 60)
    config = RetrievalConfig(k_simple=3, coarse_k=2, budget_tokens=40)
    result = retrieve_detailed(graph, "tell me about the redis cache", embedder, config)
    assert result.plan.config is config
    assert result.plan.klass is QueryClass.SIMPLE and result.plan.k == 3
    # The coarse_k seeds and an expansion fill k; the budget takes one line.
    assert [c.hop for c in result.ranked] == [0, 0, 1]
    payload = [render_object_line(graph.objects[c.object_id]) for c in result.selected]
    assert len(payload) == 1
    assert sum(default_token_counter(line) for line in payload) <= config.budget_tokens


def test_retrieve_empty_graph_returns_bare_header():
    out = retrieve(CanvasGraph(), "anything on file?", MockEmbedder())
    assert out.startswith(INJECTION_HEADER)
    assert "- [" not in out


def test_retrieve_budget_zero_keeps_header_only():
    embedder = MockEmbedder()
    graph = CanvasGraph()
    graph.add_object(make_obj(content="cache responses in redis", turn=0,
                              embedding=embedder.embed("cache responses in redis")))
    config = RetrievalConfig(budget_tokens=0)
    out = retrieve(graph, "what about the cache?", embedder, config)
    assert out.startswith(INJECTION_HEADER)
    assert "- [" not in out
