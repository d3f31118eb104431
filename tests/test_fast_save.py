"""The orjson save path against the stdlib one.

serialize_graph encodes a save's new records as one whole document, in
one orjson call when orjson is installed, and hands the batch to the
standard library's json encoder wherever the two could write it
differently. A full save, of a graph with nothing cached, is that document
alone. Every graph below must save to the same bytes, or raise the same
exception type and message, both ways; save_both_ways checks that on each
save.
"""

from __future__ import annotations

import enum
import json
import math
import re
import tracemalloc
from array import array
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from canvasmem.errors import InvalidObjectError, MalformedInputError, MissingEmbeddingError
from canvasmem.extraction import MockExtractor
from canvasmem.retrieval import retrieve_detailed
from canvasmem.scoring import MockEmbedder

from conftest import (load_both_ways, make_obj, save_both_ways, seeded_turns,
                      whole_document)

orjson = core._orjson()
needs_orjson = pytest.mark.skipif(orjson is None, reason="orjson is not installed")


def pair(embedding=(0.5, 0.25), confidence=1.0, weight=0.5, content="the cache lives in redis",
         quote=None, turn=0) -> CanvasGraph:
    """A graph of one object with these fields and a plain one after it,
    joined by an edge of this weight."""
    first = make_obj(content=content, quote=quote, turn=turn, confidence=confidence,
                     embedding=list(embedding))
    second = make_obj(content="redis runs on node 2", turn=turn + 1, embedding=[1.0, 0.0])
    graph = CanvasGraph()
    graph.add_object(first)
    graph.add_object(second)
    graph.add_edge(CanvasEdge(src=first.id, dst=second.id, kind=EdgeKind.CAUSAL, weight=weight,
                              origin=EdgeOrigin.TEMPORAL_HEURISTIC))
    return graph


def one_call(graph: CanvasGraph) -> bool:
    """Whether a save of graph with nothing cached writes its records through
    orjson, not through json (which is then handed the document's dict);
    never where orjson is not installed. The graph keeps its cache, and a
    save that raises counts as written through json."""
    json_documents = []

    def spy(value):
        json_documents.append("objects" in value)
        return core._ENCODER.encode(value)

    cached = graph._encoded
    graph._encoded = core._NOTHING_ENCODED
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_json", spy)
            serialize_graph(graph)
    except ValueError:  # a UnicodeEncodeError too
        pass
    finally:
        graph._encoded = cached
    return not any(json_documents)


# ---------------------------------------------------------------------------
# Inputs where the two encoders differ, each its own case
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value, written", [
    (1e-05, b"1e-05"), (3.4e-05, b"3.4e-05"), (1e16, b"1e+16"), (5e-324, b"5e-324"),
    (-0.0, b"-0.0"),
], ids=["1e-05", "3.4e-05", "1e+16", "5e-324", "-0.0"])
def test_a_float_orjson_writes_in_another_form_saves_as_json_writes_it(value, written):
    graphs = [pair(embedding=[value, 0.5])]
    if 0.0 <= value <= 1.0:
        graphs += [pair(confidence=value), pair(weight=value)]
    for graph in graphs:
        data = save_both_ways(graph)
        assert data == whole_document(graph)
        assert written in data


def test_the_last_turn_saves_in_one_call_and_loads_both_ways():
    # A turn lies below 2**63 and next_turn at most at 2**63: 64-bit
    # integers, which orjson writes as json does.
    graph = pair(turn=2**63 - 2)
    assert graph.next_turn == 2**63
    assert one_call(graph) is (orjson is not None)
    data = save_both_ways(graph)
    assert data == whole_document(graph)
    assert b'"next_turn":9223372036854775808,' in data
    assert b'"turn":9223372036854775807,' in data
    assert load_both_ways(data) == graph


class Plain(enum.Enum):
    HALF = 0.5


class Level(enum.IntEnum):
    TWO = 2


def test_a_numpy_float64_saves_as_json_writes_it():
    # orjson writes a numpy float64 confidence or weight, as it writes an
    # embedding's float64 view, in the form json writes a float.
    for graph in (pair(embedding=[0.5, np.float64(0.25)]), pair(confidence=np.float64(0.75)),
                  pair(weight=np.float64(0.125))):
        assert one_call(graph) is (orjson is not None)
        data = save_both_ways(graph)
        assert data == whole_document(graph)


@pytest.mark.parametrize("embeddings", [
    [[0.5, 1e-05], [0.25, 0.5]], [[0.5, 0.25], [1e16, 0.5]], [[0.5, 0.25], [-5e-324, 0.5]],
], ids=["1e-05 first", "1e16 last", "subnormal last"])
def test_a_batch_holding_one_component_outside_the_plain_range_saves_as_json_writes_it(
        embeddings):
    # The one numpy pass over the batch's joined embeddings finds the one
    # component orjson would write in another form, and the whole batch
    # goes to json.
    graph = CanvasGraph()
    for turn, embedding in enumerate(embeddings):
        graph.add_object(make_obj(content=f"fact {turn}", turn=turn, embedding=embedding))
    assert not one_call(graph)
    assert save_both_ways(graph) == whole_document(graph)


def test_control_characters_and_line_separators_save_as_json_writes_them():
    text = "".join(map(chr, range(32))) + '"\\ \x7f \u2028 \u2029 \ufeff \U0001f680 é'
    graph = pair(content="control " + text, quote="quote " + text)
    data = save_both_ways(graph)
    assert data == whole_document(graph)
    assert "\x7f \u2028 \u2029".encode("utf-8") in data
    assert b"\\u001f" in data and b"\\b" in data and b'\\"' in data


def test_an_object_without_an_embedding_is_refused_and_an_empty_graph_saves_as_json_writes_it():
    graph = pair()
    saved = save_both_ways(graph)
    with pytest.raises(MissingEmbeddingError):
        graph.add_object(make_obj(content="no embedding here", turn=5, embedding=None))
    assert len(graph.rows) == 2 and graph.next_turn == 2
    assert save_both_ways(graph) == whole_document(graph) == saved
    empty = CanvasGraph()
    with pytest.raises(MissingEmbeddingError):
        empty.add_object(make_obj(embedding=None))
    assert save_both_ways(empty) == whole_document(empty)
    empty.mark_turn_ingested(3)
    assert save_both_ways(empty) == whole_document(empty)


def test_each_batch_goes_its_own_way():
    # A batch json must write leaves the next batch to orjson, and the
    # document joins both.
    graph = pair()
    save_both_ways(graph)
    graph.add_object(make_obj(content="a tiny component", turn=5, embedding=[1e-05, 0.5]))
    save_both_ways(graph)
    graph.add_object(make_obj(content="a plain component", turn=6, embedding=[0.5, 0.5]))
    assert save_both_ways(graph) == whole_document(graph)


@needs_orjson
def test_a_seeded_ingest_saves_its_records_through_orjson_alone(monkeypatch):
    engine = CanvasEngine(MockExtractor(), MockEmbedder())
    turns = seeded_turns(3, 60)
    engine.ingest(turns[:40])
    assert len(engine.graph.edges) > 10
    expected = whole_document(engine.graph)

    def header_only(value):
        assert "objects" not in value, "a batch of records was encoded by json"
        return core._ENCODER.encode(value)

    monkeypatch.setattr(core, "_json", header_only)
    assert serialize_graph(engine.snapshot()) == expected
    graph = engine.graph
    for turn in turns[40:]:
        engine.ingest_turn(turn)
        serialize_graph(graph)
    monkeypatch.undo()
    assert serialize_graph(graph) == whole_document(graph)


# ---------------------------------------------------------------------------
# Properties over every value a record can hold
# ---------------------------------------------------------------------------

TEXT = st.text(st.characters())  # any code point but a surrogate
# About a quarter of these hold a lone surrogate, at a drawn place.
ANY_TEXT = st.tuples(TEXT, st.sampled_from(("",) * 9 + ("\ud800", "\udbff", "\udfff")),
                     TEXT).map("".join)
NUMBERS = st.one_of(
    st.floats(),  # NaN and the infinities included
    st.integers(-2**100, 2**100), st.booleans(),
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.sampled_from([Plain.HALF, Level.TWO]),
)
COMPONENTS = st.recursive(NUMBERS | st.none() | ANY_TEXT,
                          lambda inner: st.lists(inner, max_size=3), max_leaves=6)
# Lists of numbers alone, as an embedder returns, and lists of anything.
EMBEDDINGS = (st.none() | st.lists(NUMBERS, min_size=1, max_size=4)
              | st.lists(COMPONENTS, min_size=1, max_size=4))
# A component of each kind, each an explicit example of the property below:
# the constructor stores the float of each of the first row, and refuses
# each of the second.
STORED = [3, True, False, 2**70, Fraction(1, 3), Decimal("0.1"), np.float32(0.1),
          np.float64(0.25), Level.TWO, -0.0, 5e-324, 1e-5, 1e16]
REFUSED = [None, "a word", [0.5], math.nan, math.inf, -math.inf, 10**400, Decimal("1e400"),
           Plain.HALF]


def each_component(test):
    """test, with one explicit example per component of STORED and REFUSED,
    each the second component of a plain embedding."""
    for component in STORED + REFUSED:
        test = example(content="c", quote="q", embedding=[0.5, component], confidence=1.0,
                       weight=0.5, incremental=False)(test)
    return test


@pytest.mark.parametrize("component", STORED + REFUSED, ids=repr)
def test_the_constructor_stores_the_float_of_a_number_and_refuses_the_rest(component):
    if any(component is refused for refused in REFUSED):
        with pytest.raises(InvalidObjectError):
            make_obj(embedding=[0.5, component])
    else:
        stored = make_obj(embedding=[0.5, component]).embedding
        assert stored.typecode == "d" and stored[1].hex() == float(component).hex()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(content=ANY_TEXT, quote=ANY_TEXT.filter(str.strip), embedding=EMBEDDINGS,
       confidence=st.floats(0.0, 1.0), weight=st.floats(0.0, 1.0), incremental=st.booleans())
@each_component
@example(content="c", quote="q", embedding=[1e-4, math.nextafter(1e-4, 0)], confidence=1e-4,
         weight=math.nextafter(1e-4, 0), incremental=False)
@example(content="c", quote="q", embedding=[1e16, math.nextafter(1e16, 0)], confidence=1.0,
         weight=1.0, incremental=True)
@example(content="c", quote="lone \ud800", embedding=None, confidence=1.0, weight=0.5,
         incremental=True)
@example(content="c", quote="q", embedding=None, confidence=1.0, weight=0.5, incremental=True)
@example(content="c", quote="q", embedding=[-0.0, 0.0], confidence=1.0, weight=0.5,
         incremental=False)
@example(content="c", quote="q", embedding=[0.5, math.nan], confidence=1.0, weight=0.5,
         incremental=True)
def test_an_object_the_constructor_accepts_saves_and_loads_alike_both_ways(
        content, quote, embedding, confidence, weight, incremental):
    # Either the constructor refuses the object, or add_object refuses an
    # object without an embedding and stores nothing, or the object holds
    # the float64 of each component, and a graph holding it saves to the
    # oracle's bytes both ways, in one save or after an earlier one, and
    # loads back equal through both load paths.
    graph = CanvasGraph()
    dim = 2 if embedding is None else len(embedding)
    plain = make_obj(content="redis runs on node 2", turn=1,
                     embedding=[1.0] + [0.0] * (dim - 1))
    graph.add_object(plain)
    if incremental:
        save_both_ways(graph)
    try:
        obj = make_obj(content=content, quote=quote, turn=0, confidence=confidence,
                       embedding=embedding)
    except InvalidObjectError:
        return
    if embedding is None:
        with pytest.raises(MissingEmbeddingError):
            graph.add_object(obj)
        assert graph.rows == [plain] and save_both_ways(graph) == whole_document(graph)
        return
    assert type(obj.embedding) is array and obj.embedding.typecode == "d"
    assert [x.hex() for x in obj.embedding] == [float(x).hex() for x in embedding]
    graph.add_object(obj)
    graph.add_edge(CanvasEdge(obj.id, plain.id, EdgeKind.CAUSAL, weight,
                              EdgeOrigin.TEMPORAL_HEURISTIC))
    data = save_both_ways(graph)
    assert data == whole_document(graph)
    loaded = load_both_ways(data)
    assert loaded == graph
    assert save_both_ways(loaded) == data


def _three_object_file() -> bytes:
    """A saved graph of three objects with three-component embeddings, each
    joined to the next."""
    graph = CanvasGraph()
    for turn, embedding in enumerate(([0.5, 0.25, 1.0], [1.0, -0.5, 0.5], [0.125, 1.0, 0.25])):
        graph.add_object(make_obj(content=f"the redis cache fact {turn}", turn=turn,
                                  embedding=embedding))
    for a, b in zip(graph.rows, graph.rows[1:]):
        graph.add_edge(CanvasEdge(a.id, b.id, EdgeKind.REFERENCE, 0.5, EdgeOrigin.SIMILARITY))
    return serialize_graph(graph)


THREE_OBJECTS = _three_object_file()
# What a graph file's embedding may be mutated to: one component replaced
# by null, a string, a bool, an integer past 64 bits or a list; every
# component set to one value; every component scaled, to a norm outside
# [1e-150, 1e150] (1e152, 1e-152) or inside it (1e140, 1e-140); cut to its
# first 0-2 components; removed, as a null or with its key.
EMBEDDING_MUTATIONS = st.one_of(
    st.tuples(st.just("replace"), st.integers(0, 2),
              st.none() | st.text(max_size=3) | st.booleans()
              | st.integers(2**64, 10**400) | st.integers(-10**400, -2**64)
              | st.lists(st.floats(-1.0, 1.0), max_size=2)),
    st.tuples(st.just("fill"), st.sampled_from([0.0, -0.0, 1e-170, 1e-160])),
    st.tuples(st.just("scale"), st.sampled_from([1e152, 1e-152, 1e140, 1e-140])),
    st.tuples(st.just("shorten"), st.integers(0, 2)),
    st.tuples(st.just("remove"), st.booleans()),
)


def _with_embedding_mutated(position: int, mutation: tuple) -> bytes:
    doc = json.loads(THREE_OBJECTS)
    record = doc["objects"][position]
    kind, *args = mutation
    if kind == "replace":
        record["embedding"][args[0]] = args[1]
    elif kind == "fill":
        record["embedding"] = [args[0]] * 3
    elif kind == "scale":
        record["embedding"] = [x * args[0] for x in record["embedding"]]
    elif kind == "shorten":
        record["embedding"] = record["embedding"][:args[0]]
    elif args[0]:
        del record["embedding"]
    else:
        record["embedding"] = None
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(position=st.integers(0, 2), mutation=EMBEDDING_MUTATIONS)
@example(position=0, mutation=("replace", 1, True))
@example(position=2, mutation=("replace", 0, 2**64 + 1))
@example(position=1, mutation=("replace", 0, 10**400))
@example(position=0, mutation=("fill", 1e-170))
@example(position=0, mutation=("fill", 1e-160))
@example(position=0, mutation=("shorten", 2))
@example(position=1, mutation=("remove", True))
@example(position=0, mutation=("scale", 1e152))
@example(position=1, mutation=("scale", 1e-152))
@example(position=2, mutation=("scale", 1e140))
@example(position=0, mutation=("scale", 1e-140))
def test_a_file_with_a_mutated_embedding_is_refused_or_loads_a_graph_that_scores(
        position, mutation):
    # Both load paths raise MalformedInputError with the same message, or
    # load the same graph, which then answers a query, saves to the
    # oracle's bytes both ways and loads back equal. A scaling refuses
    # exactly the norms outside [1e-150, 1e150].
    data = _with_embedding_mutated(position, mutation)
    if mutation[0] == "scale" and not 1e-150 <= mutation[1] <= 1e150:
        with pytest.raises(MalformedInputError,
                           match=r"^invalid object record: embedding norm must lie in "):
            load_both_ways(data)
        return
    try:
        loaded = load_both_ways(data)
    except MalformedInputError:
        assert mutation[0] != "scale"
        return
    assert retrieve_detailed(loaded, "the redis cache", MockEmbedder(3)).ranked
    saved = save_both_ways(loaded)
    assert saved == whole_document(loaded)
    assert load_both_ways(saved) == loaded
    if mutation[0] == "scale":  # every float is one a save writes as json does
        assert saved == data


def _differs(value: float) -> bool:
    return orjson.dumps(value) != json.dumps(value).encode()


@needs_orjson
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(1e-4)
@example(math.nextafter(1e-4, 0))
@example(1e16)
@example(math.nextafter(1e16, 0))
@example(5e-324)
@example(1.7976931348623157e308)
@example(-0.0)
def test_orjson_writes_a_plain_float_as_json_and_the_guard_catches_the_rest(value):
    if value == 0 or 1e-4 <= abs(value) < 1e16:
        assert not _differs(value)
        assert core._plain([value])
    elif _differs(value):
        assert not core._plain([value])


@needs_orjson
def test_the_guard_premise_holds_for_4000_ulps_around_both_bounds():
    for bound in (1e-4, 1e16):
        for sign in (1.0, -1.0):
            below = above = sign * bound
            for _ in range(4000):
                below = math.nextafter(below, 0)
                above = math.nextafter(above, sign * math.inf)
                for value in (below, above):
                    plain = 1e-4 <= abs(value) < 1e16
                    assert core._plain([value]) is plain
                    assert _differs(value) is not plain


# ---------------------------------------------------------------------------
# The one-call full save
# ---------------------------------------------------------------------------

def full_save(graph: CanvasGraph) -> bytes:
    """A full save of graph both ways, after which graph keeps the encode
    cache of the default path, the one-call save where orjson is installed
    (save_both_ways leaves it the stdlib save's)."""
    data = save_both_ways(graph)
    graph._encoded = core._NOTHING_ENCODED
    assert core.serialize_graph(graph) == data
    return data


def seeded_graph(seed: int = 5, turns: int = 250) -> CanvasGraph:
    """A mock-stack ingest of a seeded conversation: 290 objects and 10856
    edges for the defaults."""
    engine = CanvasEngine(MockExtractor(), MockEmbedder())
    engine.ingest(seeded_turns(seed, turns))
    return engine.graph


def test_a_full_save_is_one_call_with_the_bytes_of_a_save_in_two_halves():
    graph = seeded_graph(7, 60)
    assert one_call(graph) is (orjson is not None)
    data = save_both_ways(graph)
    assert data == whole_document(graph)
    # The same records, saved once with the first half of the objects and
    # the edges among them, then again with the rest.
    halves = CanvasGraph()
    for obj in graph.rows[:len(graph.rows) // 2]:
        halves.add_object(obj)
    cut = next(n for n, edge in enumerate(graph.edges)
               if edge.src not in halves.objects or edge.dst not in halves.objects)
    assert cut > 0
    halves.add_edges(graph.edges[:cut])
    save_both_ways(halves)
    for obj in graph.rows[len(halves.rows):]:
        halves.add_object(obj)
    halves.add_edges(graph.edges[cut:])
    halves.mark_turn_ingested(graph.next_turn - 1)
    assert save_both_ways(halves) == data
    # A loaded graph's first save is a full save too.
    loaded = deserialize_graph(data)
    assert one_call(loaded) is (orjson is not None)
    assert save_both_ways(loaded) == data


def test_an_incremental_save_after_a_full_save_equals_a_save_from_scratch():
    # The full save's cache must hold the offsets a join writes at.
    engine = CanvasEngine(MockExtractor(), MockEmbedder())
    turns = seeded_turns(11, 80)
    engine.ingest(turns[:40])
    graph = deserialize_graph(save_both_ways(engine.graph))
    full_save(graph)
    encoded = graph._encoded
    assert encoded.document[encoded.objects_end:].startswith(b'],"edges":[')
    for turn in turns[40:]:
        engine.ingest_turn(turn)
    for obj in engine.graph.rows[len(graph.rows):]:
        graph.add_object(obj)
    graph.add_edges(engine.graph.edges[len(graph.edges):])
    graph.mark_turn_ingested(engine.graph.next_turn - 1)
    assert graph == engine.graph
    data = save_both_ways(graph)
    fresh = CanvasGraph()
    for obj in graph.rows:
        fresh.add_object(obj)
    fresh.add_edges(graph.edges)
    fresh.mark_turn_ingested(graph.next_turn - 1)
    assert data == save_both_ways(fresh) == whole_document(graph)


TRICKY = '],"edges":[ "quoted" back\\slash é \x01 \x1f'


@pytest.mark.parametrize("content, quote, linked", [
    ("content " + TRICKY, "quote " + TRICKY, True),
    ("a graph with no edge " + TRICKY, "quote " + TRICKY, False),
], ids=["escaped text", "no edges"])
def test_a_full_save_writes_text_and_missing_fields_as_json_does(content, quote, linked):
    graph = CanvasGraph()
    first = make_obj(content=content, quote=quote, turn=0, embedding=[0.5, 0.25])
    second = make_obj(content="redis runs on node 2", turn=1, embedding=[0.0, 1.0])
    graph.add_object(first)
    graph.add_object(second)
    if linked:
        graph.add_edge(CanvasEdge(first.id, second.id, EdgeKind.CAUSAL, 0.5,
                                  EdgeOrigin.TEMPORAL_HEURISTIC))
    assert one_call(graph) is (orjson is not None)
    data = full_save(graph)
    assert data == whole_document(graph)
    assert data.count(b'],"edges":[') == 1
    # The next save joins a new object at the cached offsets.
    graph.add_object(make_obj(content="a later fact", turn=2, embedding=[1.0, 1.0]))
    assert save_both_ways(graph) == whole_document(graph)


def test_a_full_save_finds_the_edge_array_past_an_id_holding_a_bracket():
    # Only an edge appended to the list unchecked can name such an id; the
    # last ']' before the edge array's own is then not the object array's.
    graph = pair()
    first, _ = graph.rows
    graph.edges.append(CanvasEdge("not ] an id", first.id, EdgeKind.REFERENCE, 0.5,
                                  EdgeOrigin.KEYWORD))
    assert one_call(graph) is (orjson is not None)
    assert full_save(graph) == whole_document(graph)
    graph.add_object(make_obj(content="a later fact", turn=2, embedding=[1.0, 1.0]))
    assert save_both_ways(graph) == whole_document(graph)


@pytest.mark.parametrize("next_turn, shown", [
    (1e16, "1e+16"), (True, "True"), (-1, "-1"), (2**63 + 1, "9223372036854775809"),
    (10**5000, "an integer of 16610 bits"),
], ids=["1e+16", "True", "-1", "2**63 + 1", "10**5000"])
def test_a_next_turn_a_load_refuses_is_refused_by_a_save(next_turn, shown):
    # mark_turn_ingested refuses each of these, but the attribute can still
    # be set to one. A graph with nothing cached, and one whose cache holds
    # a full save with a record added since.
    fresh = pair()
    saved = pair()
    full_save(saved)
    saved.add_object(make_obj(content="a later fact", turn=2, embedding=[1.0, 1.0]))
    for graph in (fresh, saved):
        cached = graph._encoded
        graph.next_turn = next_turn
        message = f"next_turn must be a non-negative integer not above 2**63, got {shown}"
        with pytest.raises(ValueError, match=re.escape(message)):
            save_both_ways(graph)
        assert graph._encoded is cached


def test_a_full_save_the_guard_refuses_asks_the_guard_once(monkeypatch):
    calls = []

    def counted(objects, edges):
        calls.append(len(objects))
        return vouches(objects, edges)

    vouches = core._orjson_vouches
    monkeypatch.setattr(core, "_orjson_vouches", counted)
    graph = pair(embedding=[1e-05, 0.5])
    assert serialize_graph(graph) == whole_document(graph)
    assert calls == ([2] if orjson is not None else [])


def test_an_edge_list_holding_a_plain_tuple_saves_as_json_writes_it():
    # orjson would write the tuple as an array; it never reaches the hook.
    graph = pair()
    first, second = graph.rows
    graph.edges.append((second.id, first.id, EdgeKind.REFERENCE, 0.75, EdgeOrigin.KEYWORD))
    assert not one_call(graph)
    assert save_both_ways(graph) == whole_document(graph)


@needs_orjson
def test_a_full_save_peaks_below_twice_its_document():
    # Each record lives only while orjson writes it; a save that built both
    # record lists and joined their arrays peaked at 2.6 times the document.
    graph = seeded_graph()
    assert len(graph.rows) > 250
    tracemalloc.start()
    try:
        data = serialize_graph(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data == whole_document(graph)
    assert peak < 2 * len(data)
