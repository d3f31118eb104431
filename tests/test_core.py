from __future__ import annotations

import copy
import json
import pickle
import re

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from canvasmem import core
from canvasmem.core import (
    AddResult,
    CanvasEdge,
    CanvasGraph,
    CanvasObject,
    EdgeKind,
    EdgeOrigin,
    ObjectKind,
    Source,
    deserialize_graph,
    normalize_text,
    object_id,
    serialize_graph,
)
from canvasmem.errors import InvalidObjectError, MalformedInputError, VersionMismatchError
from canvasmem.extraction import prior_digest

from conftest import graph_of, load_both_ways, make_obj

# Every save and every load in these tests runs with the orjson path on
# and forced off.
pytestmark = pytest.mark.usefixtures("both_load_paths", "both_save_paths")


def test_normalize_text_collapses_whitespace_and_case():
    assert normalize_text("  Use   Redis\tfor\nCaching ") == "use redis for caching"
    assert normalize_text("") == ""
    assert normalize_text("   \n\t ") == ""


def test_object_id_is_sixteen_hex_chars():
    oid = object_id(ObjectKind.DECISION, "use redis", 3)
    assert len(oid) == 16
    assert all(c in "0123456789abcdef" for c in oid)


def test_object_id_ignores_case_and_whitespace():
    a = object_id(ObjectKind.DECISION, "Use  Redis for caching", 3)
    b = object_id(ObjectKind.DECISION, "use redis FOR caching", 3)
    assert a == b


def test_object_id_differs_by_kind_content_turn():
    base = object_id(ObjectKind.DECISION, "use redis", 3)
    assert object_id(ObjectKind.TODO, "use redis", 3) != base
    assert object_id(ObjectKind.DECISION, "use postgres", 3) != base
    assert object_id(ObjectKind.DECISION, "use redis", 4) != base


def test_object_computes_its_own_id():
    obj = make_obj(kind=ObjectKind.DECISION, content="Use  Redis", turn=3)
    assert obj.id == object_id(ObjectKind.DECISION, "use redis", 3)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "DECISION"},
        {"source": "USER"},
        {"turn": -1},
        {"turn": 1.5},
        {"turn": True},
        {"quote": ""},
        {"quote": "   "},
        {"confidence": -0.1},
        {"confidence": 1.0001},
        {"embedding": []},
        {"embedding": "not a list"},
    ],
)
def test_object_validation_rejects_bad_fields(kwargs):
    fields = dict(
        kind=ObjectKind.DECISION,
        content="use redis",
        quote="use redis",
        source=Source.USER,
        turn=3,
    )
    fields.update(kwargs)
    with pytest.raises(InvalidObjectError):
        CanvasObject(**fields)


def test_edge_accepts_an_integer_weight():
    assert CanvasEdge(src="a", dst="b", kind=EdgeKind.REFERENCE, weight=1,
                      origin=EdgeOrigin.SIMILARITY).weight == 1


def _edge_fields(weight=0.5):
    return ("a", "b", EdgeKind.REFERENCE, weight, EdgeOrigin.SIMILARITY)


@pytest.mark.parametrize("fields, message", [
    (("a", "a", EdgeKind.REFERENCE, 0.5, EdgeOrigin.SIMILARITY), "edge endpoints must differ"),
    (("a", "b", "REFERENCE", 0.5, EdgeOrigin.SIMILARITY),
     "kind must be an EdgeKind, got 'REFERENCE'"),
    (("a", "b", EdgeOrigin.SIMILARITY, 0.5, EdgeOrigin.SIMILARITY),
     "kind must be an EdgeKind, got <EdgeOrigin.SIMILARITY: 'SIMILARITY'>"),
    (("a", "b", EdgeKind.REFERENCE, 0.5, "SIMILARITY"),
     "origin must be an EdgeOrigin, got 'SIMILARITY'"),
    (("a", "b", EdgeKind.REFERENCE, 0.5, EdgeKind.REFERENCE),
     "origin must be an EdgeOrigin, got <EdgeKind.REFERENCE: 'REFERENCE'>"),
    (_edge_fields(True), "edge weight must be a number, got True"),
    (_edge_fields(False), "edge weight must be a number, got False"),
    (_edge_fields("0.5"), "edge weight must be a number, got '0.5'"),
    (_edge_fields(None), "edge weight must be a number, got None"),
    (_edge_fields([0.5]), "edge weight must be a number, got [0.5]"),
    (_edge_fields(1.5), "edge weight must lie in [0, 1], got 1.5"),
    (_edge_fields(-0.5), "edge weight must lie in [0, 1], got -0.5"),
    (_edge_fields(float("nan")), "edge weight must lie in [0, 1], got nan"),
])
def test_each_edge_refusal_keeps_its_message(fields, message):
    names = ("src", "dst", "kind", "weight", "origin")
    for build in (lambda: CanvasEdge(*fields), lambda: CanvasEdge(**dict(zip(names, fields)))):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message


def test_an_edge_is_an_immutable_tuple_of_its_fields():
    fields = _edge_fields()
    edge = CanvasEdge(*fields)
    assert edge == CanvasEdge(src="a", dst="b", kind=EdgeKind.REFERENCE, weight=0.5,
                              origin=EdgeOrigin.SIMILARITY)
    assert edge == fields and hash(edge) == hash(fields)
    assert (edge.src, edge.dst, edge.kind, edge.weight, edge.origin) == fields
    assert edge[:3] == ("a", "b", EdgeKind.REFERENCE)
    assert repr(edge) == ("CanvasEdge(src='a', dst='b', kind=<EdgeKind.REFERENCE: 'REFERENCE'>, "
                          "weight=0.5, origin=<EdgeOrigin.SIMILARITY: 'SIMILARITY'>)")
    with pytest.raises(AttributeError):
        edge.weight = 0.9
    with pytest.raises(AttributeError):
        edge.note = "extra"
    assert not hasattr(edge, "__dict__")
    assert edge == fields


def test_every_way_to_build_an_edge_checks_it():
    edge = CanvasEdge(*_edge_fields())
    assert edge._replace(weight=0.25) == _edge_fields(0.25)
    assert CanvasEdge._make(_edge_fields(0.25)) == _edge_fields(0.25)
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got 1.5"):
        edge._replace(weight=1.5)
    with pytest.raises(ValueError, match="must be a number, got '0.5'"):
        CanvasEdge._make(_edge_fields("0.5"))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(edge, protocol))
        assert again == edge and type(again) is CanvasEdge
    assert copy.copy(edge) == copy.deepcopy(edge) == edge
    # Only tuple.__new__ skips the checks; a round trip of what it built
    # goes through them.
    loop = tuple.__new__(CanvasEdge, ("a", "a", EdgeKind.REFERENCE, 0.5, EdgeOrigin.SIMILARITY))
    rebuilds = [copy.copy, copy.deepcopy] + [
        lambda e, p=protocol: pickle.loads(pickle.dumps(e, p))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for rebuild in rebuilds:
        with pytest.raises(ValueError, match="edge endpoints must differ"):
            rebuild(loop)


def test_add_object_deduplicates_on_identity():
    graph = CanvasGraph()
    first = make_obj(content="use redis", turn=2)
    again = make_obj(content="USE   redis", turn=2)
    assert graph.add_object(first) is AddResult.ADDED
    assert graph.add_object(again) is AddResult.DUPLICATE
    assert len(graph) == 1
    # The stored object is the first one; the duplicate does not overwrite.
    assert graph.objects[first.id].content == "use redis"


def test_add_object_advances_next_turn():
    graph = CanvasGraph()
    graph.add_object(make_obj(turn=5))
    assert graph.next_turn == 6
    graph.add_object(make_obj(content="older statement", turn=1))
    assert graph.next_turn == 6


@pytest.mark.parametrize("index", [2.5, 3.0, True, -1, "3", None])
def test_mark_turn_ingested_refuses_an_index_that_is_not_a_non_negative_int(index):
    # A float cursor would save as "next_turn":3.5, which a load refuses.
    graph = _sample_graph()
    data = serialize_graph(graph)
    with pytest.raises(ValueError, match=re.escape(repr(index))):
        graph.mark_turn_ingested(index)
    assert graph.next_turn == 3
    assert serialize_graph(graph) == data
    assert deserialize_graph(data) == graph


def test_add_edge_requires_stored_endpoints():
    graph = graph_of(make_obj(content="a fact", turn=0))
    edge = CanvasEdge(src="0" * 16, dst="1" * 16, kind=EdgeKind.REFERENCE,
                      weight=0.9, origin=EdgeOrigin.SIMILARITY)
    with pytest.raises(ValueError):
        graph.add_edge(edge)


def test_add_edge_rejects_duplicate_triple():
    a = make_obj(content="first fact", turn=0)
    b = make_obj(content="second fact", turn=1)
    graph = graph_of(a, b)
    edge = CanvasEdge(src=a.id, dst=b.id, kind=EdgeKind.REFERENCE,
                      weight=0.7, origin=EdgeOrigin.SIMILARITY)
    assert graph.add_edge(edge) is True
    heavier = CanvasEdge(src=a.id, dst=b.id, kind=EdgeKind.REFERENCE,
                         weight=0.9, origin=EdgeOrigin.KEYWORD)
    assert graph.add_edge(heavier) is False
    assert len(graph.edges) == 1
    # A different kind between the same endpoints is a different triple.
    causal = CanvasEdge(src=a.id, dst=b.id, kind=EdgeKind.CAUSAL,
                        weight=0.7, origin=EdgeOrigin.SIMILARITY)
    assert graph.add_edge(causal) is True


# Four objects, two of them in one turn, so that a causal edge may point
# forward, sideways or back in time.
_MODEL_TURNS = (0, 1, 1, 2)
_edge_ops = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                               st.sampled_from(list(EdgeKind)), st.sampled_from([0.25, 1.0])),
                     max_size=30)


@seed(31)
@settings(database=None, max_examples=150, deadline=None)
@given(_edge_ops, _edge_ops, _edge_ops)
def test_add_edge_answers_as_a_set_of_triples_does(live, after_snapshot, after_load):
    objects = [make_obj(content=f"fact number {i}", turn=turn)
               for i, turn in enumerate(_MODEL_TURNS)]
    model: set[tuple[str, str, EdgeKind]] = set()
    kept: list[CanvasEdge] = []

    def add_all(graph, ops):
        for a, b, kind, weight in ops:
            if a == b:
                continue
            src, dst = objects[a], objects[b]
            edge = CanvasEdge(src=src.id, dst=dst.id, kind=kind, weight=weight,
                              origin=EdgeOrigin.SIMILARITY)
            if kind is EdgeKind.CAUSAL and src.turn > dst.turn:
                with pytest.raises(ValueError):
                    graph.add_edge(edge)
                continue
            key = (edge.src, edge.dst, edge.kind)
            assert graph.add_edge(edge) is (key not in model)
            if key not in model:
                model.add(key)
                kept.append(edge)
        assert graph.edges == kept

    graph = graph_of(*objects)
    add_all(graph, live)
    frozen, at_snapshot = graph.snapshot(), list(kept)
    add_all(graph, after_snapshot)
    assert frozen.edges == at_snapshot
    # The snapshot's index stops at its own edges: every later edge is past it.
    assert sum(map(len, map(frozen.neighbors, frozen.objects))) == 2 * len(frozen.edges)
    loaded = load_both_ways(serialize_graph(graph))
    # A duplicate of each loaded edge is refused.
    for edge in kept:
        assert loaded.add_edge(edge) is False
    add_all(loaded, after_load)


@seed(32)
@settings(database=None, max_examples=100, deadline=None)
@given(_edge_ops, _edge_ops)
def test_add_edges_adds_what_add_edge_adds_one_edge_at_a_time(before, batch):
    objects = [make_obj(content=f"fact number {i}", turn=turn)
               for i, turn in enumerate(_MODEL_TURNS)]

    def edges_of(ops):
        return [CanvasEdge(src=objects[a].id, dst=objects[b].id, kind=kind, weight=weight,
                           origin=EdgeOrigin.SIMILARITY)
                for a, b, kind, weight in ops
                if a != b and (kind is EdgeKind.REFERENCE or objects[a].turn <= objects[b].turn)]

    one_by_one, batched = graph_of(*objects), graph_of(*objects)
    for graph in (one_by_one, batched):
        for edge in edges_of(before):
            graph.add_edge(edge)
    edges = edges_of(batch)
    assert batched.add_edges(edges) == [edge for edge in edges if one_by_one.add_edge(edge)]
    assert batched.edges == one_by_one.edges
    assert [batched.neighbors(obj.id) for obj in objects] == [
        one_by_one.neighbors(obj.id) for obj in objects]


def test_add_edges_checks_every_edge_before_adding_any():
    early, late = make_obj(content="early fact", turn=0), make_obj(content="late fact", turn=1)
    graph = graph_of(early, late)
    forward = CanvasEdge(src=early.id, dst=late.id, kind=EdgeKind.REFERENCE, weight=0.5,
                         origin=EdgeOrigin.SIMILARITY)
    backward = CanvasEdge(src=late.id, dst=early.id, kind=EdgeKind.CAUSAL, weight=0.5,
                          origin=EdgeOrigin.SIMILARITY)
    with pytest.raises(ValueError, match="forward in time"):
        graph.add_edges([forward, backward])
    assert graph.edges == [] and graph.neighbors(early.id) == []
    assert graph.add_edges([forward, forward]) == [forward]


def test_a_load_checks_its_edges_without_add_edge_or_the_index(monkeypatch):
    graph = _sample_graph()

    def refuse(*_):
        raise AssertionError("a load called add_edge or add_edges")

    monkeypatch.setattr(CanvasGraph, "add_edge", refuse)
    monkeypatch.setattr(CanvasGraph, "add_edges", refuse)
    loaded = deserialize_graph(serialize_graph(graph))
    assert len(loaded._index) == 0 and loaded._index.edge_count == 0
    assert loaded.edges == graph.edges


@pytest.mark.parametrize("orjson_path", [True, False], ids=["orjson", "stdlib"])
def test_a_load_stores_each_object_through_add_object_and_checks_it_once(monkeypatch,
                                                                          orjson_path):
    graph = _sample_graph()
    graph.add_object(make_obj(content="a later fact", turn=5, embedding=[0.0, 1.0]))
    data = core.serialize_graph(graph)
    if not orjson_path:
        monkeypatch.setattr(core, "_orjson", lambda: None)
    checked, stored = [], []
    validate, add_object = CanvasObject.validate, CanvasGraph.add_object
    monkeypatch.setattr(CanvasObject, "validate",
                        lambda obj: checked.append(obj) or validate(obj))
    monkeypatch.setattr(CanvasGraph, "add_object",
                        lambda into, obj, *vector: stored.append(obj) or add_object(into, obj, *vector))
    loaded = core.deserialize_graph(data)
    assert loaded == graph and len(loaded.rows) == 3
    # One add_object call and one check, in CanvasObject's constructor, per
    # loaded object.
    for calls in (stored, checked):
        assert len(calls) == len(loaded.rows)
        assert all(call is obj for call, obj in zip(calls, loaded.rows))


def test_add_edge_rejects_backward_causal():
    early = make_obj(content="early fact", turn=1)
    late = make_obj(content="late fact", turn=7)
    graph = graph_of(early, late)
    backward = CanvasEdge(src=late.id, dst=early.id, kind=EdgeKind.CAUSAL,
                          weight=0.9, origin=EdgeOrigin.SIMILARITY)
    with pytest.raises(ValueError):
        graph.add_edge(backward)
    # Reference edges carry no time direction.
    reference = CanvasEdge(src=late.id, dst=early.id, kind=EdgeKind.REFERENCE,
                           weight=0.9, origin=EdgeOrigin.SIMILARITY)
    assert graph.add_edge(reference) is True


def test_neighbors_sees_both_directions():
    a = make_obj(content="first fact", turn=0)
    b = make_obj(content="second fact", turn=1)
    graph = graph_of(a, b)
    graph.add_edge(CanvasEdge(src=a.id, dst=b.id, kind=EdgeKind.REFERENCE,
                              weight=0.7, origin=EdgeOrigin.SIMILARITY))
    assert graph.neighbors(a.id) == [b.id]
    assert graph.neighbors(b.id) == [a.id]
    assert graph.neighbors("f" * 16) == []


def test_neighbors_list_parallel_edges_in_insertion_order():
    a = make_obj(content="first fact", turn=0)
    b = make_obj(content="second fact", turn=1)
    c = make_obj(content="third fact", turn=2)
    graph = graph_of(a, b, c)

    def edge(src, dst, kind):
        graph.add_edge(CanvasEdge(src=src.id, dst=dst.id, kind=kind, weight=0.5,
                                  origin=EdgeOrigin.SIMILARITY))

    edge(a, b, EdgeKind.REFERENCE)
    edge(c, a, EdgeKind.REFERENCE)
    assert graph.neighbors(a.id) == [b.id, c.id]
    # A causal edge on the same pair, and a reference edge back the other way.
    edge(a, b, EdgeKind.CAUSAL)
    edge(b, a, EdgeKind.REFERENCE)
    edge(b, c, EdgeKind.CAUSAL)
    assert graph.neighbors(a.id) == [b.id, c.id, b.id, b.id]
    assert graph.neighbors(b.id) == [a.id, a.id, a.id, c.id]
    assert graph.neighbors(c.id) == [a.id, b.id]
    # A rejected duplicate adds nothing.
    edge(a, b, EdgeKind.CAUSAL)
    assert graph.neighbors(a.id) == [b.id, c.id, b.id, b.id]


def test_edge_counts_by_origin():
    a = make_obj(kind=ObjectKind.DECISION, content="decide a", turn=0)
    b = make_obj(kind=ObjectKind.DECISION, content="decide b", turn=1)
    c = make_obj(kind=ObjectKind.TODO, content="do a thing", turn=2)
    graph = graph_of(a, b, c)
    assert graph.edge_counts_by_origin() == {
        "SIMILARITY": 0, "KEYWORD": 0, "TEMPORAL_HEURISTIC": 0,
    }
    for src, dst, origin in ((a, b, EdgeOrigin.KEYWORD), (a, c, EdgeOrigin.KEYWORD),
                             (b, c, EdgeOrigin.TEMPORAL_HEURISTIC)):
        graph.add_edge(CanvasEdge(src=src.id, dst=dst.id, kind=EdgeKind.REFERENCE,
                                  weight=0.5, origin=origin))
    assert graph.edge_counts_by_origin() == {
        "SIMILARITY": 0, "KEYWORD": 2, "TEMPORAL_HEURISTIC": 1,
    }


def test_snapshot_is_isolated_from_later_writes():
    graph = graph_of(make_obj(content="original fact", turn=0))
    frozen = graph.snapshot()
    graph.add_object(make_obj(content="later fact", turn=1))
    assert len(frozen) == 1
    assert len(graph) == 2
    assert frozen == frozen.snapshot()


def test_a_snapshot_keeps_every_attribute():
    graph = _sample_graph()
    frozen = graph.snapshot()
    assert set(vars(frozen)) == set(vars(graph))
    with frozen.lock:
        assert not graph.lock.locked()
    assert frozen == graph and frozen.edges == graph.edges
    assert [frozen.neighbors(oid) for oid in frozen.objects] == [
        graph.neighbors(oid) for oid in graph.objects]


def _sample_graph() -> CanvasGraph:
    a = make_obj(kind=ObjectKind.KEY_FACT, content="the api times out", turn=1,
                 embedding=[1.0, 0.0], quote="the API times out")
    b = make_obj(kind=ObjectKind.DECISION, content="cache in redis", turn=2,
                 embedding=[0.8, 0.6], source=Source.ASSISTANT, confidence=0.9)
    graph = graph_of(a, b)
    graph.add_edge(CanvasEdge(src=a.id, dst=b.id, kind=EdgeKind.CAUSAL,
                              weight=1.0, origin=EdgeOrigin.TEMPORAL_HEURISTIC))
    return graph


def test_serialize_roundtrip_restores_equal_graph():
    graph = _sample_graph()
    data = serialize_graph(graph)
    restored = deserialize_graph(data)
    assert restored == graph
    assert serialize_graph(restored) == data


def test_serialize_is_deterministic():
    assert serialize_graph(_sample_graph()) == serialize_graph(_sample_graph())


def test_deserialize_rejects_garbage():
    with pytest.raises(MalformedInputError):
        deserialize_graph(b"not json at all")
    with pytest.raises(MalformedInputError):
        deserialize_graph(b'["a", "list"]')
    with pytest.raises(MalformedInputError):
        deserialize_graph(serialize_graph(_sample_graph())[:-10])


def test_deserialize_rejects_unknown_version():
    doc = json.loads(serialize_graph(_sample_graph()))
    doc["version"] = 99
    with pytest.raises(VersionMismatchError):
        deserialize_graph(json.dumps(doc).encode())


def test_deserialize_rejects_tampered_id():
    doc = json.loads(serialize_graph(_sample_graph()))
    doc["objects"][0]["content"] = "something else entirely"
    with pytest.raises(MalformedInputError):
        deserialize_graph(json.dumps(doc).encode())


def test_deserialize_rejects_duplicate_objects():
    doc = json.loads(serialize_graph(_sample_graph()))
    doc["objects"].append(dict(doc["objects"][0]))
    with pytest.raises(MalformedInputError):
        deserialize_graph(json.dumps(doc).encode())


def test_the_loaders_record_errors_keep_their_messages():
    doc = json.loads(serialize_graph(_sample_graph()))
    first = doc["objects"][0]
    edge = doc["edges"][0]
    cases = [
        (dict(doc, objects=[dict(first, id="f" * 16)]),
         f"object id {'f' * 16!r} does not match its content hash"),
        (dict(doc, objects=[first, dict(first)]), f"duplicate object id {first['id']}"),
        (dict(doc, edges=[edge, dict(edge, weight=0.5)]),
         f"duplicate edge {edge['src']!r} -> {edge['dst']!r}"),
    ]
    for tampered, message in cases:
        with pytest.raises(MalformedInputError) as caught:
            deserialize_graph(json.dumps(tampered).encode())
        assert str(caught.value) == message


def test_deserialize_rejects_edge_to_unknown_object():
    doc = json.loads(serialize_graph(_sample_graph()))
    doc["edges"][0]["dst"] = "f" * 16
    with pytest.raises(MalformedInputError):
        deserialize_graph(json.dumps(doc).encode())


def _tampered(section, field, value):
    doc = json.loads(serialize_graph(_sample_graph()))
    doc[section][0][field] = value
    return json.dumps(doc).encode()


@pytest.mark.parametrize("section, field", [
    ("objects", "kind"), ("objects", "source"), ("edges", "kind"), ("edges", "origin"),
])
@pytest.mark.parametrize("value", ["BOGUS", "decision", ["DECISION"], {"a": 1}, None, 0])
def test_deserialize_rejects_unknown_or_unhashable_enum_values(section, field, value):
    with pytest.raises(MalformedInputError):
        deserialize_graph(_tampered(section, field, value))


@pytest.mark.parametrize("section, field, value", [
    ("objects", "turn", -1),
    ("objects", "turn", True),
    ("objects", "quote", "   "),
    ("objects", "confidence", 1.5),
    ("objects", "embedding", []),
    ("edges", "weight", 1.5),
    ("edges", "src", ["unhashable"]),
    ("edges", "dst", {"unhashable": 1}),
    ("edges", "src", 7),
    ("edges", "weight", "0.5"),
    ("edges", "weight", True),
])
def test_deserialize_rejects_invalid_field_values(section, field, value):
    with pytest.raises(MalformedInputError):
        deserialize_graph(_tampered(section, field, value))


def test_deserialize_rejects_backward_causal_and_self_loop_and_duplicate_edges():
    doc = json.loads(serialize_graph(_sample_graph()))
    edge = doc["edges"][0]
    backward = dict(edge, src=edge["dst"], dst=edge["src"])
    loop = dict(edge, dst=edge["src"])
    for edges in ([backward], [loop], [edge, dict(edge)], [edge, dict(edge, weight=0.5)]):
        with pytest.raises(MalformedInputError):
            deserialize_graph(json.dumps(dict(doc, edges=edges)).encode())
    # A backward edge of the other kind is fine, and so is the same pair
    # under another kind.
    reference = dict(backward, kind="REFERENCE", origin="SIMILARITY")
    loaded = deserialize_graph(json.dumps(dict(doc, edges=[edge, reference])).encode())
    assert [e.kind for e in loaded.edges] == [EdgeKind.CAUSAL, EdgeKind.REFERENCE]


def _edge_fault_files():
    """(name, graph file, message): one file per fault in its second edge
    record, each with the MalformedInputError message the load gives."""
    a = make_obj(kind=ObjectKind.KEY_FACT, content="the api times out", turn=1)
    b = make_obj(kind=ObjectKind.DECISION, content="cache in redis", turn=2)
    graph = graph_of(a, b)
    graph.add_edges([
        CanvasEdge(a.id, b.id, EdgeKind.REFERENCE, 0.5, EdgeOrigin.SIMILARITY),
        CanvasEdge(a.id, b.id, EdgeKind.CAUSAL, 1.0, EdgeOrigin.TEMPORAL_HEURISTIC),
    ])
    doc = json.loads(serialize_graph(graph))
    first, second = doc["edges"]
    invalid = "invalid edge record: "
    faults = [
        ("unknown kind", dict(second, kind="BOGUS"), invalid + "'BOGUS'"),
        ("unknown origin", dict(second, origin="BOGUS"), invalid + "'BOGUS'"),
        ("string weight", dict(second, weight="0.5"),
         invalid + "edge weight must be a number, got '0.5'"),
        ("bool weight", dict(second, weight=True), invalid + "edge weight must be a number, got True"),
        ("weight above 1", dict(second, weight=1.5),
         invalid + "edge weight must lie in [0, 1], got 1.5"),
        ("self-loop", dict(second, dst=a.id), invalid + "edge endpoints must differ"),
        ("missing endpoint", dict(second, dst="f" * 16),
         invalid + "edge endpoints must reference stored objects"),
        ("backward causal", dict(second, src=b.id, dst=a.id),
         invalid + "causal edges must point forward in time"),
        ("repeated record", dict(first), f"duplicate edge {a.id!r} -> {b.id!r}"),
    ]
    return [(name, serialize_doc(dict(doc, edges=[first, fault])), message)
            for name, fault, message in faults]


def serialize_doc(doc) -> bytes:
    """A document in the layout serialize_graph writes, so the orjson load
    reads it before the stdlib load does."""
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


@pytest.mark.parametrize("name, data, message", _edge_fault_files(),
                         ids=[name for name, _, _ in _edge_fault_files()])
def test_a_load_refuses_each_edge_fault_with_its_message(name, data, message):
    with pytest.raises(MalformedInputError) as caught:
        load_both_ways(data)
    assert str(caught.value) == message


@pytest.mark.parametrize("next_turn", [-1, "3", None, 2.0])
def test_deserialize_rejects_bad_next_turn(next_turn):
    doc = json.loads(serialize_graph(_sample_graph()))
    doc["next_turn"] = next_turn
    with pytest.raises(MalformedInputError):
        deserialize_graph(json.dumps(doc).encode())


def test_a_loaded_graph_behaves_like_the_graph_it_was_saved_from():
    late = make_obj(content="late fact", turn=9, embedding=[0.0, 1.0])
    early = make_obj(content="early fact", turn=4, embedding=[1.0, 0.0])
    graph = _sample_graph()
    graph.add_object(late)
    graph.add_object(early)
    graph.mark_turn_ingested(11)
    loaded = deserialize_graph(serialize_graph(graph))
    assert loaded == graph
    assert loaded.rows == graph.rows
    assert loaded.next_turn == graph.next_turn == 12
    assert prior_digest(loaded) == prior_digest(graph) == [
        "KEY_FACT: the api times out", "DECISION: cache in redis",
        "KEY_FACT: early fact", "KEY_FACT: late fact"]
    edge = graph.edges[0]
    # The loaded graph rejects the edge it holds, and takes new ones.
    assert loaded.add_edge(edge) is False
    assert loaded.add_edge(CanvasEdge(src=late.id, dst=early.id, kind=EdgeKind.REFERENCE,
                                      weight=0.5, origin=EdgeOrigin.KEYWORD)) is True
    assert loaded.add_object(early) is AddResult.DUPLICATE
    assert loaded.neighbors(late.id) == [early.id]


@given(
    content=st.text(min_size=1).filter(lambda s: s.split()),
    turn=st.integers(min_value=0, max_value=10_000),
    kind=st.sampled_from(list(ObjectKind)),
)
def test_object_id_pure_under_renormalization(content, turn, kind):
    direct = object_id(kind, content, turn)
    assert object_id(kind, "  " + content + "\t\n", turn) == direct
    # Case variants collide exactly when they normalize identically
    # (case-folding is not an involution for every code point).
    upper = content.upper()
    if normalize_text(upper) == normalize_text(content):
        assert object_id(kind, upper, turn) == direct
    assert len(direct) == 16
