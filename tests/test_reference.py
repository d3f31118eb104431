"""The whole pipeline against the naive reference engine (differential testing).

Each seeded conversation is ingested twice, by a CanvasEngine and by
reference.ingest, and both graphs are queried with every question of
conftest.QUESTIONS (plain, temporal and causal wording) under both
retrieval presets. The two sides must store the same objects in the same
order and the same edges, each weight to the last bit, and must rank, pack
and render alike: ranked ids, scores to the last bit, provenance and hops,
and byte-equal blocks. A snapshot taken mid-ingest must answer as the
reference does on that prefix of the conversation, and an object without an
embedding must be refused on both sides, leaving both to answer alike.
"""

from __future__ import annotations

import pytest

import reference
from canvasmem.core import serialize_graph
from canvasmem.engine import CanvasEngine
from canvasmem.errors import CanvasError, MissingEmbeddingError
from canvasmem.extraction import MockExtractor
from canvasmem.graph_build import link_object
from canvasmem.retrieval import QueryClass, RetrievalConfig, retrieve_detailed
from canvasmem.scoring import MockEmbedder

from conftest import QUESTIONS, make_obj, seeded_turns

EMBEDDER = MockEmbedder()
CONFIGS = [RetrievalConfig.preset(name) for name in ("standard", "locomo")]


def _edges(graph):
    return [(e.src, e.dst, e.kind, e.origin, e.weight.hex()) for e in graph.edges]


def _answers(graph, retrieve):
    """Each question under each preset: its class, its ranked candidates
    with their scores spelled bit for bit, and its block."""
    return [
        (result.plan.klass,
         [(s.object_id, s.hybrid.hex(), s.provenance, s.hop) for s in result.ranked],
         result.injection)
        for config in CONFIGS
        for result in (retrieve(graph, question, EMBEDDER, config) for question in QUESTIONS)
    ]


@pytest.mark.parametrize("size", [40, 150])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_engine_builds_and_answers_as_the_reference_does(seed, size):
    turns = seeded_turns(seed, size)
    half = size // 2
    engine = CanvasEngine(MockExtractor(), EMBEDDER)
    engine.ingest(turns[:half])
    snapshot = engine.snapshot()
    engine.ingest(turns[half:])
    want = reference.ingest(turns, EMBEDDER)
    assert [o.id for o in engine.graph.rows] == [o.id for o in want.rows]
    assert _edges(engine.graph) == _edges(want) != []
    answers = _answers(engine.graph, retrieve_detailed)
    assert answers == _answers(want, reference.retrieve)
    assert {klass for klass, _, _ in answers} == set(QueryClass)
    assert _answers(snapshot, retrieve_detailed) == _answers(
        reference.ingest(turns[:half], EMBEDDER), reference.retrieve)


def _error(call, *args):
    with pytest.raises(CanvasError) as caught:
        call(*args)
    return type(caught.value)


def test_an_object_without_an_embedding_is_refused_and_both_sides_still_answer_alike():
    turns = seeded_turns(4, 40)
    engine = CanvasEngine(MockExtractor(), EMBEDDER)
    engine.ingest(turns)
    graphs = {"engine": engine.graph, "reference": reference.ingest(turns, EMBEDDER)}
    broken = make_obj(content="the redis cache lost its vector", turn=40, embedding=None)
    text = "the redis cache runs on node 2"
    newcomer = make_obj(content=text, turn=41, embedding=EMBEDDER.embed(text))
    for graph in graphs.values():
        saved = serialize_graph(graph)
        assert _error(graph.add_object, broken) is MissingEmbeddingError
        assert serialize_graph(graph) == saved
        graph.add_object(newcomer)
    assert link_object(graphs["engine"], newcomer) == reference.link_object(
        graphs["reference"], newcomer)
    assert _edges(graphs["engine"]) == _edges(graphs["reference"])
    assert _answers(graphs["engine"], retrieve_detailed) == _answers(
        graphs["reference"], reference.retrieve)
