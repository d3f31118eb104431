"""Incremental serialize_graph against the whole-document oracle.

The oracle, conftest.whole_document, is the serializer that encoded the
whole document on every save. serialize_graph now encodes only the records
added since the graph's last save and reuses the bytes of the rest, so
every save, on a graph or on any of its read-only snapshots, must equal the
oracle byte for byte, with orjson and without it.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canvasmem import core
from canvasmem.core import (
    CanvasEdge,
    CanvasGraph,
    EdgeKind,
    EdgeOrigin,
    deserialize_graph,
    serialize_graph,
)
from canvasmem.engine import CanvasEngine
from canvasmem.errors import (DimensionMismatchError, InvalidObjectError, MalformedInputError,
                              MissingEmbeddingError, ReadOnlyGraphError)
from canvasmem.extraction import MockExtractor
from canvasmem.scoring import MockEmbedder

from conftest import axis, make_obj, seeded_turns, whole_document

# Every save and every load in these tests runs with the orjson path on
# and forced off.
pytestmark = pytest.mark.usefixtures("both_load_paths", "both_save_paths")


def assert_saves_like_oracle(graph: CanvasGraph) -> bytes:
    data = serialize_graph(graph)
    assert data == whole_document(graph)
    return data


def _edge(src, dst, kind=EdgeKind.REFERENCE, weight=0.5):
    return CanvasEdge(src=src.id, dst=dst.id, kind=kind, weight=weight,
                      origin=EdgeOrigin.SIMILARITY)


CONTENTS = (
    "the cache lives in redis",
    "déploiement prévu vendredi",
    "キャッシュは redis にある",
    "ship it 🚀 on friday",
    'quote "marks" and \\ backslashes\n',
    "tab\there and   line separator",
)


# ---------------------------------------------------------------------------
# Interleavings of writes, saves, loads and snapshots on parents and twins
# ---------------------------------------------------------------------------

graph_pick = st.integers(0, 7)
# A component is 0 or of magnitude 1e-100 or more, so an embedding's norm
# is 0 or lies in [1e-150, 1e150], the range the constructor takes.
_component = st.floats(-1e6, 1e6, allow_nan=False).map(lambda x: x if abs(x) >= 1e-100 else 0.0)
operation = st.one_of(
    st.tuples(st.just("object"), graph_pick, st.integers(0, len(CONTENTS) - 1),
              st.integers(0, 12),
              st.one_of(st.none(), st.lists(_component, min_size=1, max_size=3))),
    st.tuples(st.just("edge"), graph_pick, st.integers(0, 40), st.integers(0, 40),
              st.sampled_from(EdgeKind), st.floats(0.0, 1.0)),
    st.tuples(st.just("mark"), graph_pick, st.integers(0, 20)),
    st.tuples(st.just("save"), graph_pick),
    st.tuples(st.just("snapshot"), graph_pick),
    st.tuples(st.just("load"), graph_pick),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(operation, max_size=60))
def test_every_save_of_every_graph_and_twin_equals_the_oracle(ops):
    # Writes go to the graphs that take them: the first and those loaded
    # since. Saves, loads and snapshots go to any graph, snapshots included.
    writable = [CanvasGraph()]
    graphs = list(writable)
    for op in ops:
        pool = writable if op[0] in ("object", "edge", "mark") else graphs
        graph = pool[op[1] % len(pool)]
        if op[0] == "object":
            _, _, content, turn, embedding = op
            if embedding is not None and not any(x * x for x in embedding):
                with pytest.raises(InvalidObjectError, match="zero vector"):
                    make_obj(content=CONTENTS[content], turn=turn, embedding=embedding)
                continue
            obj = make_obj(content=CONTENTS[content], turn=turn, embedding=embedding)
            rows = graph.rows
            # add_object refuses what no scoring index could hold beside the
            # stored rows, and stores nothing.
            refusal = (MissingEmbeddingError if embedding is None
                       else DimensionMismatchError
                       if rows and len(embedding) != len(rows[0].embedding) else None)
            if refusal is None:
                graph.add_object(obj)
                continue
            before = (list(rows), graph.next_turn, len(graph.scoring_index()))
            with pytest.raises(refusal):
                graph.add_object(obj)
            assert (graph.rows, graph.next_turn, len(graph.scoring_index())) == before
        elif op[0] == "edge":
            _, _, a, b, kind, weight = op
            if len(graph.rows) < 2:
                continue
            n = len(graph.rows)
            src, dst = graph.rows[a % n], graph.rows[(a + 1 + b % (n - 1)) % n]
            if src.turn > dst.turn:
                src, dst = dst, src
            graph.add_edge(_edge(src, dst, kind, weight))
        elif op[0] == "mark":
            graph.mark_turn_ingested(op[2])
        elif op[0] == "save":
            assert_saves_like_oracle(graph)
        elif op[0] == "load":
            data = assert_saves_like_oracle(graph)
            writable.append(deserialize_graph(data))
            graphs.append(writable[-1])
        else:
            graphs.append(graph.snapshot())
    for graph in graphs:
        assert_saves_like_oracle(graph)


def test_twin_and_parent_saves_never_show_each_others_records():
    a = make_obj(content="the cache lives in redis", turn=0, embedding=axis(0))
    b = make_obj(content="redis runs on node 2", turn=1, embedding=axis(1))
    c = make_obj(content="node 2 was moved to friday", turn=2, embedding=axis(2))
    d = make_obj(content="friday needs 3 replicas", turn=3, embedding=axis(3))
    parent = CanvasGraph()
    parent.add_object(a)
    assert_saves_like_oracle(parent)
    parent.add_object(b)
    parent.add_edge(_edge(a, b))
    twin = parent.snapshot()
    twin_bytes = assert_saves_like_oracle(twin)
    parent.add_object(c)
    parent.add_edge(_edge(a, c))
    parent_bytes = assert_saves_like_oracle(parent)
    with pytest.raises(ReadOnlyGraphError):
        twin.add_object(d)
    parent.add_object(d)
    assert [o.id for o in deserialize_graph(parent_bytes).rows] == [a.id, b.id, c.id]
    assert [o.id for o in deserialize_graph(twin_bytes).rows] == [a.id, b.id]
    assert serialize_graph(twin) == twin_bytes
    assert_saves_like_oracle(twin)
    assert_saves_like_oracle(parent)


def test_seeded_ingest_saved_every_few_turns_equals_the_oracle():
    engine = CanvasEngine(MockExtractor(), MockEmbedder())
    twins = []
    for turn in seeded_turns(5, 60):
        engine.ingest_turn(turn)
        if turn.index % 7 == 0:
            assert_saves_like_oracle(engine.graph)
        if turn.index % 11 == 0:
            twins.append(engine.snapshot())
    assert len(engine.graph.edges) > 10
    assert_saves_like_oracle(engine.graph)
    for twin in twins:
        assert_saves_like_oracle(twin)


# ---------------------------------------------------------------------------
# Round trip, empty graph, non-ASCII content
# ---------------------------------------------------------------------------

def test_loaded_graph_saves_the_bytes_it_was_loaded_from_and_grows_like_the_oracle():
    engine = CanvasEngine(MockExtractor(), MockEmbedder())
    for turn in seeded_turns(2, 30):
        engine.ingest_turn(turn)
    data = assert_saves_like_oracle(engine.graph)
    loaded = deserialize_graph(data)
    assert serialize_graph(loaded) == data
    text = "a fact added after loading"
    extra = make_obj(content=text, turn=loaded.next_turn, embedding=MockEmbedder().embed(text))
    loaded.add_object(extra)
    loaded.add_edge(_edge(loaded.rows[0], extra))
    assert_saves_like_oracle(loaded)


def test_empty_graph_saves_like_the_oracle():
    graph = CanvasGraph()
    assert serialize_graph(graph) == whole_document(graph)
    assert serialize_graph(graph) == (
        b'{"format":"canvas-graph","version":1,"next_turn":0,"objects":[],"edges":[]}'
    )
    graph.mark_turn_ingested(4)
    assert_saves_like_oracle(graph)
    assert deserialize_graph(serialize_graph(graph)).next_turn == 5


@pytest.mark.parametrize("field, value", [
    ("weight", "0.5"), ("weight", True), ("weight", False), ("next_turn", True),
])
def test_a_load_rejects_a_string_or_boolean_number(field, value):
    graph = CanvasGraph()
    a = make_obj(content="a fact", turn=0, embedding=axis(0))
    b = make_obj(content="another fact", turn=1, embedding=axis(1))
    graph.add_object(a)
    graph.add_object(b)
    graph.add_edge(_edge(a, b))
    doc = json.loads(serialize_graph(graph))
    if field == "next_turn":
        doc["next_turn"] = value
    else:
        doc["edges"][0][field] = value
    with pytest.raises(MalformedInputError):
        deserialize_graph(json.dumps(doc).encode())
    # The untampered document loads and saves back to the same bytes.
    assert serialize_graph(deserialize_graph(serialize_graph(graph))) == serialize_graph(graph)


def test_non_ascii_content_is_written_as_utf8_not_escaped():
    graph = CanvasGraph()
    for turn, content in enumerate(CONTENTS):
        graph.add_object(make_obj(content=content, turn=turn, embedding=[0.1, 1 / 3]))
        data = assert_saves_like_oracle(graph)
    assert "キャッシュ".encode("utf-8") in data and b"\\u" not in data
    assert [o.content for o in deserialize_graph(data).rows] == list(CONTENTS)


# ---------------------------------------------------------------------------
# Failed encodes, shrunken containers, racing savers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_a_graph_file_holding_a_number_json_does_not_allow_is_malformed(token):
    graph = CanvasGraph()
    graph.add_object(make_obj(content="the cache lives in redis", turn=0, embedding=[0.5, 0.25]))
    data = serialize_graph(graph)
    assert data.count(b"0.25") == 1
    with pytest.raises(MalformedInputError, match=f"holds {token}"):
        deserialize_graph(data.replace(b"0.25", token.encode()))


@pytest.mark.parametrize("number", ["1e400", "-1e400"])
def test_a_graph_file_holding_a_number_too_large_for_a_double_is_malformed(number):
    # json reads 1e400 as inf, which no save could write back.
    graph = CanvasGraph()
    graph.add_object(make_obj(content="the cache lives in redis", turn=0, embedding=[0.5, 0.25]))
    data = serialize_graph(graph)
    with pytest.raises(MalformedInputError,
                       match="^invalid object record: embedding components must be finite$"):
        deserialize_graph(data.replace(b"0.25", number.encode()))


@pytest.mark.parametrize("field", ["quote", "content"])
def test_a_graph_file_whose_text_holds_a_lone_surrogate_escape_is_malformed(field):
    # json reads the escape \ud800 as a lone surrogate, which no save could
    # write back; each load path refuses the record.
    graph = CanvasGraph()
    graph.add_object(make_obj(content="the cache lives in redis", quote="the cache lives",
                              turn=0, embedding=[0.5, 0.25]))
    data = serialize_graph(graph)
    key = f'"{field}":"'.encode()
    assert data.count(key) == 1
    with pytest.raises(MalformedInputError,
                       match=f"^invalid object record: {field} must be UTF-8 text"):
        deserialize_graph(data.replace(key, key + b"\\ud800"))


def test_an_embedding_whose_norm_overflows_is_refused_though_no_component_is_infinite():
    # 1e308 * 1e308 overflows, so the norm is inf: the constructor refuses
    # it, and so do both load paths, naming the norm.
    message = r"embedding norm must lie in \[1e-150, 1e\+150\], got 1.4142135623730951e\+308$"
    with pytest.raises(InvalidObjectError, match="^" + message):
        make_obj(content="the cache lives in redis", turn=0, embedding=[1e308, 1e308])
    graph = CanvasGraph()
    graph.add_object(make_obj(content="the cache lives in redis", turn=0, embedding=[0.5, 0.25]))
    data = serialize_graph(graph)
    with pytest.raises(MalformedInputError, match="^invalid object record: " + message):
        deserialize_graph(data.replace(b"[0.5,0.25]", b"[1e308,1e308]"))


def test_a_graph_holding_fewer_records_than_its_cache_encodes_from_scratch():
    parent = CanvasGraph()
    a = make_obj(content="the cache lives in redis", turn=0, embedding=axis(0))
    b = make_obj(content="redis runs on node 2", turn=1, embedding=axis(1))
    parent.add_object(a)
    parent.add_object(b)
    parent.add_edge(_edge(a, b))
    assert_saves_like_oracle(parent)
    # Fresh graphs holding fewer objects, or fewer edges, than the parent's
    # cache claims: each is handed that cache and must not reuse it.
    shrunk = CanvasGraph()
    shrunk.add_object(a)
    no_edges = CanvasGraph()
    no_edges.add_object(a)
    no_edges.add_object(b)
    for graph in (shrunk, no_edges):
        graph._encoded = parent._encoded
        assert_saves_like_oracle(graph)


def _linked_pair() -> CanvasGraph:
    graph = CanvasGraph()
    a = make_obj(content="the cache lives in redis", turn=0, embedding=axis(0))
    b = make_obj(content="redis runs on node 2", turn=1, embedding=axis(1))
    graph.add_object(a)
    graph.add_object(b)
    graph.add_edge(_edge(a, b))
    return graph


def test_a_save_with_nothing_new_returns_the_last_document_itself():
    graph = _linked_pair()
    data = assert_saves_like_oracle(graph)
    assert serialize_graph(graph) is data
    assert core.serialize_graph(graph) is data
    # A snapshot starts from its owner's cache.
    assert core.serialize_graph(graph.snapshot()) is data
    assert core.serialize_graph(CanvasGraph()) is core.serialize_graph(CanvasGraph())


def test_a_save_after_only_next_turn_moved_rewrites_only_the_header(monkeypatch):
    graph = _linked_pair()
    data = assert_saves_like_oracle(graph)
    graph.mark_turn_ingested(40)

    def no_records(*_):
        raise AssertionError("a save that only moved next_turn encoded records")

    monkeypatch.setattr(core, "_record", no_records)
    monkeypatch.setattr(core, "_object_record", no_records)
    moved = assert_saves_like_oracle(graph)
    assert moved[len(core._header(41)):] == data[len(core._header(2)):]
    assert core.serialize_graph(graph) is moved


def test_a_snapshots_bytes_never_change_after_later_saves_of_its_owner():
    engine = CanvasEngine(MockExtractor(), MockEmbedder())
    turns = seeded_turns(9, 40)
    for turn in turns[:20]:
        engine.ingest_turn(turn)
    assert_saves_like_oracle(engine.graph)
    twin = engine.snapshot()
    twin_bytes = assert_saves_like_oracle(twin)
    unsaved = engine.snapshot()
    for turn in turns[20:]:
        engine.ingest_turn(turn)
        assert_saves_like_oracle(engine.graph)
        assert serialize_graph(twin) is twin_bytes
    assert len(engine.graph.rows) > len(twin.rows)
    assert serialize_graph(unsaved) == twin_bytes


def test_racing_savers_all_write_the_oracle_bytes():
    graph = CanvasGraph()
    savers, rounds, saves_each = 6, 8, 5
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_no in range(rounds):
            for i in range(4):
                turn = round_no * 4 + i
                obj = make_obj(content=f"fact {turn} of the run", turn=turn, embedding=axis(i))
                graph.add_object(obj)
                if turn:
                    graph.add_edge(_edge(graph.rows[turn - 1], obj))
            expected = whole_document(graph)
            outputs: list[bytes] = []
            start = threading.Barrier(savers)

            # core.serialize_graph itself: save_both_ways swaps the cache
            # and patches core, which racing threads would undo out of order.
            def save_repeatedly():
                start.wait(timeout=10)
                for _ in range(saves_each):
                    outputs.append(core.serialize_graph(graph))

            threads = [threading.Thread(target=save_repeatedly) for _ in range(savers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert len(outputs) == savers * saves_each
            assert all(data == expected for data in outputs)
    finally:
        sys.setswitchinterval(interval)
    assert_saves_like_oracle(graph)
