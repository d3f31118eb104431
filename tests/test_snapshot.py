"""Snapshots share the stored objects and copy only the containers.

Readers query engine.snapshot() while ingestion goes on. The twin holds the
very CanvasObject instances of the graph, so these tests check both halves
of that contract: identity is shared, and appends on either side stay on
that side. The oracle is an independent copy made by a serialize/load round
trip, which shares nothing with the engine's graph.
"""

from __future__ import annotations

import pytest

from canvasmem.core import (
    CanvasEdge,
    CanvasGraph,
    EdgeKind,
    EdgeOrigin,
    deserialize_graph,
    serialize_graph,
)
from canvasmem.engine import CanvasEngine
from canvasmem.extraction import MockExtractor
from canvasmem.graph_build import link_object
from canvasmem.retrieval import RetrievalConfig, retrieve
from canvasmem.scoring import MockEmbedder

from conftest import QUESTIONS, axis, make_obj, seeded_turns


def _edge(src, dst):
    return CanvasEdge(src=src.id, dst=dst.id, kind=EdgeKind.REFERENCE, weight=1.0,
                      origin=EdgeOrigin.SIMILARITY)


def _pair_graph():
    """Two linked objects, already scored once so the index holds both rows."""
    a = make_obj(content="the cache lives in redis", turn=0, embedding=axis(0))
    b = make_obj(content="redis runs on node 2", turn=1, embedding=axis(1))
    graph = CanvasGraph()
    graph.add_object(a)
    graph.add_object(b)
    graph.add_edge(_edge(a, b))
    graph.scoring_index()
    return graph, a, b


def _state(graph):
    return (dict(graph.objects), list(graph.rows), list(graph.edges),
            {oid: graph.neighbors(oid) for oid in graph.objects}, graph.next_turn)


def test_snapshot_shares_every_stored_object():
    engine = CanvasEngine(MockExtractor(), MockEmbedder())
    for turn in seeded_turns(3, 40):
        engine.ingest_turn(turn)
    twin = engine.snapshot()
    assert len(twin.objects) == len(engine.graph.objects) > 10
    for oid, obj in engine.graph.objects.items():
        assert twin.objects[oid] is obj
    assert all(mine is theirs for mine, theirs in zip(twin.rows, engine.graph.rows, strict=True))


@pytest.mark.parametrize("writer", ["parent", "twin"])
def test_appends_on_one_side_do_not_reach_the_other(writer):
    graph, a, b = _pair_graph()
    twin = graph.snapshot()
    written, untouched = (graph, twin) if writer == "parent" else (twin, graph)
    before = _state(untouched)
    c = make_obj(content="the cache ttl is 90 seconds", turn=2, embedding=axis(0))
    written.add_object(c)
    written.add_edge(_edge(a, c))
    written.add_edge(_edge(c, b))
    link_object(written, c)
    assert c.id in written.objects and c.id in written.neighbors(a.id)
    assert _state(untouched) == before
    assert c.id not in untouched.objects
    assert untouched.neighbors(a.id) == [b.id]
    assert untouched.neighbors(c.id) == []
    assert untouched.scoring_index().cosines(axis(0)).tolist() == [1.0, 0.0]


@pytest.mark.parametrize("seed", [3, 17])
def test_snapshot_reads_equal_reads_of_an_independent_copy(seed):
    engine = CanvasEngine(MockExtractor(), MockEmbedder())
    config = RetrievalConfig(coarse_k=6, hops=2)
    held = []
    for turn in seeded_turns(seed, 90):
        engine.ingest_turn(turn)
        question = QUESTIONS[turn.index % len(QUESTIONS)]
        twin = engine.snapshot()
        copy = deserialize_graph(serialize_graph(engine.graph))
        block = retrieve(twin, question, engine.embedder, config)
        assert block == retrieve(copy, question, engine.embedder, config)
        held.append((twin, question, block))
    # Later ingestion left every earlier snapshot's read as it was.
    for twin, question, block in held:
        assert retrieve(twin, question, engine.embedder, config) == block


def _edge_state(graph):
    src, dst = graph.scoring_index().edge_rows()
    return src.tolist(), dst.tolist(), {oid: graph.neighbors(oid) for oid in graph.objects}


@pytest.mark.parametrize("first", ["parent", "twin"])
def test_edge_columns_stay_isolated_both_ways_after_snapshot(first):
    """Both sides append different edges past the shared columns, one side
    after the other and each read in between; neither sees the other's."""
    graph, a, b = _pair_graph()
    c = make_obj(content="the cache ttl is 90 seconds", turn=2, embedding=axis(0))
    d = make_obj(content="node 2 has 64 gigabytes", turn=3, embedding=axis(1))
    twin = graph.snapshot()
    assert _edge_state(twin) == _edge_state(graph)
    for side in (graph, twin):
        side.add_object(c)
        side.add_object(d)
    writes = {"parent": (graph, [(b, a), (a, c)]), "twin": (twin, [(c, b), (d, b)])}
    order = [first, "twin" if first == "parent" else "parent"]
    for name in order:
        side, pairs = writes[name]
        other = twin if side is graph else graph
        before = _edge_state(other)
        for src, dst in pairs:
            side.add_edge(_edge(src, dst))
            side.scoring_index()
        assert _edge_state(other) == before
    for side in (graph, twin):
        src_rows, dst_rows, _ = _edge_state(side)
        ids = [obj.id for obj in side.rows]
        assert [(ids[s], ids[t]) for s, t in zip(src_rows, dst_rows)] == [
            (edge.src, edge.dst) for edge in side.edges]
    assert graph.neighbors(a.id) == [b.id, b.id, c.id]
    assert graph.neighbors(d.id) == []
    assert twin.neighbors(a.id) == [b.id]
    assert twin.neighbors(b.id) == [a.id, c.id, d.id]


def test_duplicate_edges_are_rejected_on_both_sides_after_snapshot():
    """A snapshot copies no edge keys; each side still rejects a repeated
    (src, dst, kind) triple, its own and those it held before the fork."""
    graph, a, b = _pair_graph()
    c = make_obj(content="the cache ttl is 90 seconds", turn=2, embedding=axis(2))
    twin = graph.snapshot()
    for side in (graph, twin):
        side.add_object(c)
        assert side.add_edge(_edge(a, b)) is False
        assert side.add_edge(_edge(b, c)) is True
        assert side.add_edge(_edge(b, c)) is False
        # Another kind on the same pair is a different triple.
        assert side.add_edge(CanvasEdge(src=b.id, dst=c.id, kind=EdgeKind.CAUSAL, weight=0.5,
                                        origin=EdgeOrigin.SIMILARITY)) is True
    # A fork of a fork, written after its parent wrote.
    grandchild = twin.snapshot()
    assert twin.add_edge(_edge(a, c)) is True
    assert grandchild.add_edge(_edge(b, c)) is False
    assert grandchild.add_edge(_edge(a, c)) is True
    assert [(e.src, e.dst, e.kind) for e in graph.edges] == [
        (a.id, b.id, EdgeKind.REFERENCE), (b.id, c.id, EdgeKind.REFERENCE),
        (b.id, c.id, EdgeKind.CAUSAL)]
    assert twin.edges == grandchild.edges
