from canvasmem.core import (
    CanvasEdge,
    EdgeKind,
    EdgeOrigin,
    deserialize_graph,
    serialize_graph,
)
from canvasmem.engine import CanvasEngine
from canvasmem.extraction import ConversationTurn, MockExtractor
from canvasmem.retrieval import RetrievalConfig, render_object_line, retrieve_detailed
from canvasmem.scoring import MockEmbedder

from perfbench import checks

TURNS = [
    ConversationTurn(0, "KEY_FACT: the cache ttl is ninety seconds", "Noted."),
    ConversationTurn(1, "DECISION: the cache ttl moves to redis", "Got it."),
    ConversationTurn(2, "Nothing new.", "REMINDER: check the cache ttl tomorrow"),
]


def build():
    engine = CanvasEngine(MockExtractor(), MockEmbedder())
    for turn in TURNS:
        engine.ingest_turn(turn)
    return engine


def test_clean_graph_passes_every_check():
    graph = build().graph
    assert checks.graph_failures(graph, TURNS) == {"quote": [], "id": [], "causal_order": []}


def test_tampered_quote_is_caught():
    graph = build().graph
    obj = next(iter(graph.objects.values()))
    obj.quote = "a sentence nobody said"
    assert checks.graph_failures(graph, TURNS)["quote"] == [obj.id]


def test_tampered_content_breaks_the_id():
    graph = build().graph
    obj = next(iter(graph.objects.values()))
    obj.content = obj.content + " and more"
    assert checks.graph_failures(graph, TURNS)["id"] == [obj.id]


def test_backward_causal_edge_is_caught():
    graph = build().graph
    early, late = sorted(graph.objects.values(), key=lambda o: o.turn)[::2]
    # add_edge refuses this edge, so plant it the way a corrupted graph would hold it.
    graph.edges.append(CanvasEdge(late.id, early.id, EdgeKind.CAUSAL, 1.0, EdgeOrigin.SIMILARITY))
    assert checks.graph_failures(graph, TURNS)["causal_order"] == [(late.id, early.id)]


def test_block_within_budget_passes_and_over_budget_block_is_caught():
    engine = build()
    config = RetrievalConfig()
    block = retrieve_detailed(engine.graph, "What is the cache ttl?", engine.embedder, config).injection
    assert checks.object_lines(block)
    assert not checks.over_budget(block, config.budget_tokens)
    line = render_object_line(next(iter(engine.graph.objects.values())))
    stuffed = block + line * 200
    assert checks.over_budget(stuffed, config.budget_tokens)


def test_round_trip_passes_and_mutated_embedding_after_load_is_caught():
    graph = build().graph
    saved = serialize_graph(graph)
    loaded = deserialize_graph(saved)
    assert not checks.round_trip_broken(graph, loaded, saved)
    victim = next(iter(loaded.objects.values()))
    victim.embedding = [v * 0.5 for v in victim.embedding]
    assert checks.round_trip_broken(graph, loaded, saved)
