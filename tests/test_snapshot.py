"""Snapshots are read-only, share the stored objects and copy only the containers.

Readers query engine.snapshot() while ingestion goes on. The snapshot holds
the very CanvasObject instances of the graph and reads the index columns the
graph keeps appending to in place, so these tests check every half of that
contract: identity is shared, the graph's appends never reach a snapshot,
and every write to a snapshot or its index raises and changes neither side.
The oracle is an independent copy made by a serialize/load round trip,
which shares nothing with the engine's graph.
"""

from __future__ import annotations

import sys
import threading

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
from canvasmem.errors import ReadOnlyGraphError
from canvasmem.extraction import MockExtractor
from canvasmem.graph_build import link_object
from canvasmem.retrieval import RetrievalConfig, ScoredObject, expand_graph, retrieve
from canvasmem.scoring import MockEmbedder

import reference
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


def _adjacency(index):
    return [index.adjacent(row) for row in range(len(index))]


def _index_state(graph):
    index = graph.scoring_index()
    n = len(index)
    row_of = {oid: row for oid, row in index._row_of.items() if row < n}
    return n, row_of, _adjacency(index)


def assert_every_write_raises(twin, owner, obj, edge):
    """Each write to the snapshot or its index raises ReadOnlyGraphError and
    leaves the snapshot and its owner as they were."""
    def both():
        return [(_state(graph), _index_state(graph)) for graph in (twin, owner)]

    before = both()
    index = twin.scoring_index()
    writes = (
        lambda: twin.add_object(obj),
        lambda: twin.add_edge(edge),
        lambda: twin.add_edges([edge]),
        lambda: twin.mark_turn_ingested(twin.next_turn + 5),
        lambda: index.extend([obj]),
        lambda: index.append_vectors([axis(0)]),
        lambda: index.extend_edges([edge]),
    )
    for write in writes:
        with pytest.raises(ReadOnlyGraphError):
            write()
        assert both() == before


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
    """The parent's appends never reach its snapshot; the snapshot's raise."""
    graph, a, b = _pair_graph()
    twin = graph.snapshot()
    c = make_obj(content="the cache ttl is 90 seconds", turn=2, embedding=axis(0))
    if writer == "twin":
        assert_every_write_raises(twin, graph, c, _edge(a, b))
        with pytest.raises(ReadOnlyGraphError):
            link_object(twin, c)
        assert c.id not in graph.objects and c.id not in twin.objects
        return
    before = _state(twin)
    graph.add_object(c)
    graph.add_edge(_edge(a, c))
    graph.add_edge(_edge(c, b))
    link_object(graph, c)
    assert c.id in graph.objects and c.id in graph.neighbors(a.id)
    assert _state(twin) == before
    assert c.id not in twin.objects and twin.scoring_index().row_of(c.id) is None
    assert twin.scoring_index().rows_of([b.id, c.id, a.id]) == [1, None, 0]
    assert twin.neighbors(a.id) == [b.id]
    assert twin.neighbors(c.id) == []
    index = twin.scoring_index()
    assert index.cosines(index.prepare(axis(0))).tolist() == [1.0, 0.0]


def test_every_write_to_an_engine_snapshot_raises_and_changes_nothing():
    engine = CanvasEngine(MockExtractor(), MockEmbedder())
    turns = seeded_turns(5, 40)
    for turn in turns[:20]:
        engine.ingest_turn(turn)
    twin = engine.snapshot()
    rows = engine.graph.rows
    obj = make_obj(content="a fact no turn stated", turn=30, embedding=engine.embedder.embed("fact"))
    assert_every_write_raises(twin, engine.graph, obj, _edge(rows[0], rows[-1]))
    # A snapshot of the snapshot is read-only too, and the owner still ingests.
    assert_every_write_raises(twin.snapshot(), twin, obj, _edge(rows[0], rows[-1]))
    before = _state(twin)
    for turn in turns[20:]:
        engine.ingest_turn(turn)
    assert len(engine.graph) > len(twin) and _state(twin) == before


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
    adjacency = _adjacency(graph.scoring_index())
    return adjacency, {oid: graph.neighbors(oid) for oid in graph.objects}


@pytest.mark.parametrize("first", ["parent", "twin"])
def test_edge_columns_stay_isolated_both_ways_after_snapshot(first):
    """The parent appends edges to the adjacency lists it shares with a
    snapshot, each read in between, before or after the snapshot's edge
    writes raise; neither side sees the other's."""
    graph, a, b = _pair_graph()
    c = make_obj(content="the cache ttl is 90 seconds", turn=2, embedding=axis(0))
    d = make_obj(content="node 2 has 64 gigabytes", turn=3, embedding=axis(1))
    twin = graph.snapshot()
    assert _edge_state(twin) == _edge_state(graph)
    graph.add_object(c)
    graph.add_object(d)

    def parent_writes():
        before = _edge_state(twin)
        for src, dst in [(b, a), (a, c)]:
            graph.add_edge(_edge(src, dst))
            graph.scoring_index()
        assert _edge_state(twin) == before

    def twin_writes():
        assert_every_write_raises(twin, graph, c, _edge(b, a))

    order = (parent_writes, twin_writes)
    for write in order if first == "parent" else order[::-1]:
        write()
    for side in (graph, twin):
        adjacency, _ = _edge_state(side)
        ids = [obj.id for obj in side.rows]
        assert {ids[row]: [ids[n] for n in adjacent]
                for row, adjacent in enumerate(adjacency) if adjacent} == reference.adjacency(side)
    assert graph.neighbors(a.id) == [b.id, b.id, c.id]
    assert graph.neighbors(d.id) == []
    assert twin.neighbors(a.id) == [b.id]
    assert twin.neighbors(b.id) == [a.id]


def test_a_snapshot_never_sees_an_edge_added_later_between_rows_it_holds():
    """The owner appends the later edges in place to adjacency lists the
    snapshot shares; neither the snapshot's walk nor its neighbors() reads
    them, while the owner's do."""
    graph, a, b = _pair_graph()
    c = make_obj(content="the cache ttl is 90 seconds", turn=2, embedding=axis(2))
    graph.add_object(c)
    twin = graph.snapshot()
    graph.add_edge(_edge(a, c))
    graph.add_edge(_edge(c, b))
    grandchild = twin.snapshot()
    graph.scoring_index()
    assert graph.neighbors(a.id) == [b.id, c.id]
    assert graph.neighbors(c.id) == [a.id, b.id]
    seeds = [ScoredObject(object_id=a.id, hybrid=1.0)]
    assert sorted(x.object_id for x in expand_graph(graph, seeds, 3)) == sorted([a.id, b.id, c.id])
    for side in (twin, grandchild):
        assert side.neighbors(a.id) == [b.id]
        assert side.neighbors(b.id) == [a.id]
        assert side.neighbors(c.id) == []
        for k in (None, 1, 2, 3):
            assert [x.object_id for x in expand_graph(side, seeds, 3, k)] == [a.id, b.id][:k]
        assert expand_graph(side, [ScoredObject(object_id=c.id, hybrid=1.0)], 3) == [
            ScoredObject(object_id=c.id, hybrid=1.0)]


def test_duplicate_edges_are_rejected_on_both_sides_after_snapshot():
    """After a snapshot the owner still rejects a repeated (src, dst, kind)
    triple, its own and those it held before; a snapshot rejects every edge,
    repeated or new, as a write."""
    graph, a, b = _pair_graph()
    c = make_obj(content="the cache ttl is 90 seconds", turn=2, embedding=axis(2))
    twin = graph.snapshot()
    graph.add_object(c)
    assert graph.add_edge(_edge(a, b)) is False
    assert graph.add_edge(_edge(b, c)) is True
    assert graph.add_edge(_edge(b, c)) is False
    # Another kind on the same pair is a different triple.
    causal = CanvasEdge(src=b.id, dst=c.id, kind=EdgeKind.CAUSAL, weight=0.5,
                        origin=EdgeOrigin.SIMILARITY)
    assert graph.add_edge(causal) is True
    grandchild, later = twin.snapshot(), graph.snapshot()
    for side in (twin, grandchild, later):
        for edge in (_edge(a, b), _edge(a, c), causal):
            with pytest.raises(ReadOnlyGraphError):
                side.add_edge(edge)
    assert [(e.src, e.dst, e.kind) for e in graph.edges] == [
        (a.id, b.id, EdgeKind.REFERENCE), (b.id, c.id, EdgeKind.REFERENCE),
        (b.id, c.id, EdgeKind.CAUSAL)]
    assert twin.edges == grandchild.edges == [_edge(a, b)]
    assert later.edges == graph.edges


def test_concurrent_readers_see_consistent_snapshots():
    """Readers snapshot and retrieve while the engine ingests, so the owner
    appends in place past the rows, edges and token ids of the index
    columns each snapshot reads. Every block equals the block of an
    independent copy of its snapshot."""
    engine = CanvasEngine(MockExtractor(), MockEmbedder())
    config = RetrievalConfig(coarse_k=6, hops=2)
    done = threading.Event()
    sizes: list[int] = []
    errors: list[BaseException] = []

    def read_repeatedly(reader):
        try:
            for i in range(reader, 10**9, 3):
                if done.is_set():
                    return
                twin = engine.snapshot()
                question = QUESTIONS[i % len(QUESTIONS)]
                block = retrieve(twin, question, engine.embedder, config)
                copy = deserialize_graph(serialize_graph(twin))
                assert block == retrieve(copy, question, engine.embedder, config)
                sizes.append(len(twin))
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    readers = [threading.Thread(target=read_repeatedly, args=(i,)) for i in range(3)]
    try:
        for thread in readers:
            thread.start()
        for turn in seeded_turns(13, 120):
            engine.ingest_turn(turn)
    finally:
        done.set()
        for thread in readers:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not errors, errors
    # Some reads of a nonempty snapshot ran while the graph grew past it.
    assert any(0 < size < len(engine.graph) for size in sizes)
