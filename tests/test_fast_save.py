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

import numpy as np
import pytest
from hypothesis import example, given
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
from canvasmem.extraction import MockExtractor
from canvasmem.scoring import MockEmbedder

from conftest import axis, make_obj, save_both_ways, seeded_turns, whole_document

orjson = core._orjson()
needs_orjson = pytest.mark.skipif(orjson is None, reason="orjson is not installed")


def pair(embedding=(0.5, 0.25), confidence=1.0, weight=0.5, content="the cache lives in redis",
         quote=None, turn=0) -> CanvasGraph:
    """A graph of one object with these fields and a plain one after it,
    joined by an edge of this weight."""
    first = make_obj(content=content, quote=quote, turn=turn, confidence=confidence,
                     embedding=None if embedding is None else list(embedding))
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


def test_a_turn_past_64_bits_saves_as_json_writes_it():
    graph = pair(turn=2**64)
    assert not one_call(graph)
    data = save_both_ways(graph)
    assert data == whole_document(graph)
    assert b'"turn":18446744073709551616,' in data


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_embedding_fails_both_saves_alike(value):
    graph = pair(embedding=[0.5, value])
    with pytest.raises(ValueError, match=f"object {graph.rows[0].id} cannot be saved"):
        save_both_ways(graph)


@pytest.mark.parametrize("component", [True, False, None, 3, 2**70, "a word", [0.5, [1e-05]],
                                       [], {}],
                         ids=["true", "false", "None", "int", "big int", "str", "nested list",
                              "empty list", "empty dict"])
def test_a_component_that_is_not_a_float_saves_as_json_writes_it(component):
    graph = pair(embedding=[0.5, component])
    assert save_both_ways(graph) == whole_document(graph)


class Plain(enum.Enum):
    HALF = 0.5


class Level(enum.IntEnum):
    TWO = 2


def test_an_enum_member_in_an_embedding_saves_or_fails_as_json_does():
    # orjson writes a plain Enum member as its value, where json raises.
    with pytest.raises(TypeError, match="Plain is not JSON serializable"):
        save_both_ways(pair(embedding=[0.5, Plain.HALF]))
    graph = pair(embedding=[0.5, Level.TWO])
    assert save_both_ways(graph) == whole_document(graph)


def test_a_numpy_float64_saves_as_json_writes_it():
    for graph in (pair(embedding=[0.5, np.float64(0.25)]), pair(confidence=np.float64(0.75)),
                  pair(weight=np.float64(0.125))):
        assert not one_call(graph)
        data = save_both_ways(graph)
        assert data == whole_document(graph)


def test_a_numpy_array_in_an_embedding_fails_both_saves_alike():
    # Its truth value raises ValueError, which must not escape the guard.
    with pytest.raises(TypeError, match="ndarray is not JSON serializable"):
        save_both_ways(pair(embedding=[0.5, np.array([0.25, 0.5])]))


def test_a_lone_surrogate_fails_both_saves_alike():
    # A lone surrogate in content already fails the id hash; the quote is not hashed.
    graph = pair(quote="lone \ud800 surrogate")
    assert not one_call(graph)
    with pytest.raises(UnicodeEncodeError):
        save_both_ways(graph)


def test_control_characters_and_line_separators_save_as_json_writes_them():
    text = "".join(map(chr, range(32))) + '"\\ \x7f \u2028 \u2029 \ufeff \U0001f680 é'
    graph = pair(content="control " + text, quote="quote " + text)
    data = save_both_ways(graph)
    assert data == whole_document(graph)
    assert "\x7f \u2028 \u2029".encode("utf-8") in data
    assert b"\\u001f" in data and b"\\b" in data and b'\\"' in data


def test_a_missing_embedding_and_an_empty_graph_save_as_json_writes_them():
    graph = pair(embedding=None)
    assert save_both_ways(graph) == whole_document(graph)
    assert b'"embedding":null}' in save_both_ways(graph)
    empty = CanvasGraph()
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
# Properties over floats and text
# ---------------------------------------------------------------------------

@given(st.floats())
@example(1e-4)
@example(math.nextafter(1e-4, 0))
@example(1e16)
@example(math.nextafter(1e16, 0))
def test_any_float_saves_alike_both_ways(value):
    graphs = [pair(embedding=[value])]
    if 0.0 <= value <= 1.0:
        graphs += [pair(confidence=value), pair(weight=value)]
    for graph in graphs:
        try:
            save_both_ways(graph)
        except ValueError:
            assert not math.isfinite(value)


@given(st.text(st.characters(exclude_categories=())), st.text(min_size=1))
def test_any_text_saves_alike_both_ways(quote, content):
    # Any code point, lone surrogates included, in the quote.
    try:
        save_both_ways(pair(content=content, quote="q " + quote))
    except UnicodeEncodeError:
        assert any("\ud800" <= char <= "\udfff" for char in quote)


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


@pytest.mark.parametrize("content, quote, embedding, linked", [
    ("content " + TRICKY, "quote " + TRICKY, [0.5, 0.25], True),
    ("no embedding here", "no embedding here", None, True),
    ("a graph with no edge " + TRICKY, "quote " + TRICKY, [0.5, 0.25], False),
], ids=["escaped text", "no embedding", "no edges"])
def test_a_full_save_writes_text_and_missing_fields_as_json_does(content, quote, embedding,
                                                                   linked):
    graph = CanvasGraph()
    first = make_obj(content=content, quote=quote, turn=0, embedding=embedding)
    second = make_obj(content="redis runs on node 2", turn=1, embedding=axis(1))
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
    graph.add_object(make_obj(content="a later fact", turn=2, embedding=axis(2)))
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
    graph.add_object(make_obj(content="a later fact", turn=2, embedding=axis(2)))
    assert save_both_ways(graph) == whole_document(graph)


@pytest.mark.parametrize("next_turn", [1e16, True, -1])
def test_a_next_turn_a_load_refuses_is_refused_by_a_save(next_turn):
    # mark_turn_ingested refuses each of these, but the attribute can still
    # be set to one. A graph with nothing cached, and one whose cache holds
    # a full save with a record added since.
    fresh = pair()
    saved = pair()
    full_save(saved)
    saved.add_object(make_obj(content="a later fact", turn=2, embedding=axis(2)))
    for graph in (fresh, saved):
        cached = graph._encoded
        graph.next_turn = next_turn
        message = f"next_turn must be a non-negative integer, got {next_turn!r}"
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
