"""The orjson load path against the stdlib one.

deserialize_graph parses a file laid out as serialize_graph writes it with
orjson, in chunks cut at record boundaries, and gives up for the stdlib
json parse on anything it cannot vouch for. Every input below must load the
same records, or raise the same exception type and message, both ways.
"""

from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from canvasmem import core
from canvasmem.cli import main
from canvasmem.core import (
    CanvasEdge,
    CanvasGraph,
    EdgeKind,
    EdgeOrigin,
    deserialize_graph,
    serialize_graph,
)
from canvasmem.engine import CanvasEngine
from canvasmem.errors import MalformedInputError, VersionMismatchError
from canvasmem.extraction import MockExtractor
from canvasmem.scoring import MockEmbedder

from conftest import load_both_ways, make_obj, seeded_turns

orjson = core._orjson()
needs_orjson = pytest.mark.skipif(orjson is None, reason="orjson is not installed")

DEEP = b"[" * 3000 + b"]" * 3000


def saved(*embeddings, turns=None, weight=0.5) -> bytes:
    """A saved graph of one object per embedding, each joined to the next."""
    graph = CanvasGraph()
    for i, embedding in enumerate(embeddings):
        turn = turns[i] if turns else i
        graph.add_object(make_obj(content=f"fact {i} lives in redis", turn=turn,
                                  quote=f"fact {i} quote", embedding=embedding))
    for a, b in zip(graph.rows, graph.rows[1:]):
        graph.add_edge(CanvasEdge(src=a.id, dst=b.id, kind=EdgeKind.CAUSAL, weight=weight,
                                  origin=EdgeOrigin.TEMPORAL_HEURISTIC))
    return serialize_graph(graph)


BASE = saved([0.5, 0.25], [1.0, 0.0], [0.0, 1.0])


def pretty(data: bytes) -> bytes:
    return json.dumps(json.loads(data), indent=2, ensure_ascii=False).encode("utf-8")


def with_id(data: bytes, value: bytes) -> bytes:
    """data with the first object's id replaced by a JSON value."""
    return re.sub(rb'"id":"[0-9a-f]{16}"', b'"id":' + value, data, count=1)


# (input, what both paths do with it: "loads" or the exception type)
CASES = {
    "canonical": (BASE, "loads"),
    # A turn lies below 2**63 and next_turn at most at 2**63; past 64 bits
    # orjson reads an integer as a float, and the constructor refuses both.
    "turn 2**63 - 1": (saved([0.5, 0.25], turns=[2**63 - 1]), "loads"),
    "turn 2**63": (saved([0.5, 0.25], turns=[2**63 - 1]).replace(
        b'"turn":%d,' % (2**63 - 1), b'"turn":%d,' % 2**63), MalformedInputError),
    "turn 2**64": (BASE.replace(b'"turn":0,', b'"turn":%d,' % 2**64), MalformedInputError),
    "version 2**64": (BASE.replace(b'"version":1', b'"version":%d' % 2**64, 1),
                      VersionMismatchError),
    "next_turn 2**63": (BASE.replace(b'"next_turn":3', b'"next_turn":%d' % 2**63, 1), "loads"),
    "next_turn 2**63 + 1": (BASE.replace(b'"next_turn":3', b'"next_turn":%d' % (2**63 + 1), 1),
                            MalformedInputError),
    "next_turn 2**70": (BASE.replace(b'"next_turn":3', b'"next_turn":%d' % 2**70, 1),
                        MalformedInputError),
    # Past int's 4300-digit string conversion limit.
    "next_turn of 5000 digits": (BASE.replace(b'"next_turn":3', b'"next_turn":' + b"9" * 5000, 1),
                                 MalformedInputError),
    # Past 64 bits orjson reads an integer as a float and json as an int;
    # the constructor converts either to the same float64, rounded to even
    # (2**64 + 2**11 lies halfway between two doubles).
    "integer embedding component 10**40": (BASE.replace(b"0.25", b"%d" % 10**40), "loads"),
    "integer embedding component 2**64 + 2**11": (
        BASE.replace(b"0.25", b"%d" % (2**64 + 2**11)), "loads"),
    "integer embedding component 2**64 + 2**11 + 1": (
        BASE.replace(b"0.25", b"%d" % (2**64 + 2**11 + 1)), "loads"),
    "embedding component 1e20": (saved([1e20, 0.5]), "loads"),
    "integer embedding component of 5000 digits": (BASE.replace(b"0.25", b"9" * 5000),
                                                   MalformedInputError),
    "integer embedding component 10**400": (BASE.replace(b"0.25", b"%d" % 10**400),
                                            MalformedInputError),
    "embedding component 1e400": (BASE.replace(b"0.25", b"1e400"), MalformedInputError),
    # Embeddings the scoring index could not score: components and zero
    # vectors the constructor refuses, and an embedding that is missing or
    # of another length than the first stored one, which add_object refuses.
    "null embedding component": (BASE.replace(b"0.25", b"null"), MalformedInputError),
    "zero embedding": (BASE.replace(b"[0.5,0.25]", b"[0.0,-0.0]"), MalformedInputError),
    "embedding whose squares underflow": (BASE.replace(b"[0.5,0.25]", b"[1e-170,1e-170]"),
                                          MalformedInputError),
    # A norm outside [1e-150, 1e150], which the scoring screen cannot bound.
    "embedding whose squares are subnormal": (BASE.replace(b"[0.5,0.25]", b"[1e-160,0.0]"),
                                              MalformedInputError),
    "embedding whose squares overflow": (BASE.replace(b"[0.5,0.25]", b"[1e200,1e200]"),
                                         MalformedInputError),
    "embedding of norm 1e152": (BASE.replace(b"[0.5,0.25]", b"[1e152,0.0]"), MalformedInputError),
    "embedding of norm 1e-150": (BASE.replace(b"[0.5,0.25]", b"[1e-150,0.0]"), "loads"),
    "embedding of norm 1e150": (BASE.replace(b"[0.5,0.25]", b"[0.0,1e150]"), "loads"),
    "string embedding component": (BASE.replace(b"0.25", b'"a word"'), MalformedInputError),
    "nested embedding": (BASE.replace(b"[0.5,0.25]", b"[[0.5],[0.25]]"), MalformedInputError),
    "first embedding shorter": (BASE.replace(b"[0.5,0.25]", b"[0.5]"), MalformedInputError),
    "later embedding longer": (BASE.replace(b"[1.0,0.0]", b"[1.0,0.0,0.0]"),
                               MalformedInputError),
    "no embedding beside two-component ones": (
        BASE.replace(b'"embedding":[1.0,0.0]', b'"embedding":null'), MalformedInputError),
    "first embedding null": (BASE.replace(b'"embedding":[0.5,0.25]', b'"embedding":null'),
                             MalformedInputError),
    # A quote no save could write back.
    "lone surrogate escape": (saved([0.5]).replace(b"fact 0 quote", b"fact 0 \\ud800"),
                              MalformedInputError),
    "byte order mark": (b"\xef\xbb\xbf" + BASE, MalformedInputError),
    "trailing space": (BASE + b" ", "loads"),
    "pretty-printed": (pretty(BASE), "loads"),
    "duplicated key, saved value last": (
        BASE.replace(b'"turn":0,', b'"turn":7,"turn":0,'), "loads"),
    "duplicated key, saved value first": (
        BASE.replace(b'"turn":0,', b'"turn":0,"turn":7,'), MalformedInputError),
    "extra object key": (BASE.replace(b'"embedding":', b'"extra":{"a":[1]},"embedding":'),
                         "loads"),
    "extra edge key": (BASE.replace(b'"origin":', b'"extra":[1],"origin":'), "loads"),
    "extra object key nested 3000 deep": (
        BASE.replace(b'"embedding":', b'"extra":' + DEEP + b',"embedding":', 1),
        MalformedInputError),
    "object id nested 3000 deep": (with_id(BASE, DEEP), MalformedInputError),
    "object cut inside a nested extra": (
        BASE.replace(b'"embedding":', b'"extra":[{"a":1},{"id":"x"}],"embedding":', 1), "loads"),
    "object cut inside a duplicated key's value": (
        BASE.replace(b'"turn":0,', b'"turn":[{"a":1},{"id":"x"}],"turn":0,'), "loads"),
    "edge cut inside a nested extra": (
        BASE.replace(b'"origin":', b'"extra":[{"a":1},{"src":"x"}],"origin":', 1), "loads"),
    "edges key inside an object's extra": (
        BASE.replace(b'"embedding":', b'"extra":{"a":[1],"edges":[2]},"embedding":', 1),
        "loads"),
    "edges key inside an edge's extra": (
        BASE.replace(b'"origin":', b'"extra":{"a":[1],"edges":[2]},"origin":'), "loads"),
    "no objects": (saved(), "loads"),
    "no objects, one edge": (
        saved().replace(b'"edges":[]', BASE[BASE.index(b'"edges":['):-1]), MalformedInputError),
    "confidence 10**400": (BASE.replace(b'"confidence":1.0', b'"confidence":%d' % 10**400, 1),
                           MalformedInputError),
    "edge weight 10**30": (BASE.replace(b'"weight":0.5', b'"weight":%d' % 10**30, 1),
                           MalformedInputError),
    "object record not an object": (BASE.replace(b'"objects":[{', b'"objects":["x",{', 1),
                                    MalformedInputError),
    "edge record not an object": (BASE.replace(b'"edges":[{', b'"edges":[5,{', 1),
                                  MalformedInputError),
    "truncated": (BASE[:-3], MalformedInputError),
    "closing brace replaced": (BASE[:-1] + b"]", MalformedInputError),
    "no edges key": (BASE.replace(b'"edges":', b'"links":'), MalformedInputError),
}


@pytest.mark.parametrize("chunk_bytes", [core._CHUNK_BYTES, 1])
@pytest.mark.parametrize("name", list(CASES))
def test_both_paths_load_the_same_records_or_raise_the_same_error(monkeypatch, name,
                                                                  chunk_bytes):
    data, expected = CASES[name]
    monkeypatch.setattr(core, "_CHUNK_BYTES", chunk_bytes)
    if expected == "loads":
        load_both_ways(data)
    else:
        with pytest.raises(expected):
            load_both_ways(data)


@pytest.mark.parametrize("wrap", [bytearray, memoryview], ids=["bytearray", "memoryview"])
def test_any_bytes_like_object_loads_the_same_graph_both_ways(wrap):
    assert load_both_ways(wrap(BASE)) == load_both_ways(BASE)


def test_a_bytes_argument_reaches_both_load_paths_uncopied(monkeypatch):
    seen = []
    monkeypatch.setattr(core, "_fast_load", lambda _orjson, data: seen.append(data))
    monkeypatch.setattr(core, "_stdlib_load", seen.append)
    deserialize_graph(BASE)
    monkeypatch.setattr(core, "_orjson", lambda: None)
    deserialize_graph(BASE)
    assert all(data is BASE for data in seen)
    assert len(seen) == 2


@pytest.mark.parametrize("data", [BASE.decode("utf-8"), None, [BASE]], ids=["str", "None", "list"])
def test_data_that_is_not_bytes_like_is_a_type_error_naming_its_type(data):
    with pytest.raises(TypeError, match=rf"^graph data must be a bytes-like object, not "
                                        rf"{type(data).__name__}$"):
        load_both_ways(data)


@needs_orjson
@pytest.mark.parametrize("chunk_bytes", [core._CHUNK_BYTES, 100, 1])
def test_a_saved_graph_loads_through_orjson_alone(monkeypatch, chunk_bytes):
    engine = CanvasEngine(MockExtractor(), MockEmbedder())
    engine.ingest(seeded_turns(7, 40))
    data = serialize_graph(engine.snapshot())
    expected = core._stdlib_load(data)
    assert len(expected.edges) > 10

    def no_fallback(_data):
        raise AssertionError("the fast path fell back to the stdlib load")

    monkeypatch.setattr(core, "_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(core, "_stdlib_load", no_fallback)
    assert serialize_graph(deserialize_graph(data)) == data
    assert deserialize_graph(data) == expected


LOADS = {"orjson": lambda data: core._fast_load(orjson, data), "stdlib": core._stdlib_load}


@pytest.mark.parametrize("path", list(LOADS))
def test_a_load_shares_each_id_and_each_quote_equal_to_its_content(path):
    if path == "orjson" and orjson is None:
        pytest.skip("orjson is not installed")
    engine = CanvasEngine(MockExtractor(), MockEmbedder())
    engine.ingest(seeded_turns(7, 40))
    graph = engine.graph
    graph.add_object(make_obj(content="the cache lives in redis", quote="The cache lives in REDIS",
                              turn=graph.next_turn, embedding=MockEmbedder().embed("redis")))
    data = serialize_graph(graph)
    loaded = LOADS[path](data)
    assert loaded == load_both_ways(data) == graph
    assert serialize_graph(loaded) == data
    # Each end is the id string its object holds, as an ingest builds it.
    objects = loaded.objects
    assert len(loaded.edges) > 10
    assert all(edge.src is objects[edge.src].id and edge.dst is objects[edge.dst].id
               for edge in loaded.edges)
    *same, differs = loaded.rows
    assert all(obj.quote is obj.content for obj in same)
    assert (differs.content, differs.quote) == ("the cache lives in redis",
                                                "The cache lives in REDIS")


@pytest.mark.parametrize("data", [b"[" * 100000 + b"]" * 100000, CASES[
    "extra object key nested 3000 deep"][0]], ids=["nested list", "nested extra key"])
def test_nesting_too_deep_to_parse_is_malformed_input(data, tmp_path, capsys):
    with pytest.raises(MalformedInputError, match="nested too deeply"):
        load_both_ways(data)
    path = tmp_path / "deep.json"
    path.write_bytes(data)
    for command in (["query", "anything"], ["export"]):
        assert main([*command, "--graph", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


decimal_literal = st.from_regex(
    r"-?(0|[1-9][0-9]{0,40})(\.[0-9]{1,40})?([eE][+-]?[0-9]{1,3})?", fullmatch=True)


@needs_orjson
@given(st.one_of(decimal_literal, st.floats(allow_nan=False, allow_infinity=False).map(repr)))
# Near-halfway forms: 2**53 + 1, and just above it, which must round up;
# the smallest subnormal's halfway point; and the largest double's edge.
@example("9007199254740993.0")
@example("9007199254740993.000000000000000000000001")
@example("2.4703282292062327208828439643411068618252990130716238221279284e-324")
@example("2.4703282292062328e-324")
@example("1.7976931348623157e308")
@example("1.7976931348623158079e308")
@example("1.7976931348623159e308")
# 2**64 + 2**11 and one past it: halfway between two doubles, and just above.
@example("18446744073709553664")
@example("18446744073709553665")
def test_orjson_parses_a_number_literal_to_the_value_json_does(literal):
    expected = json.loads(literal)
    if isinstance(expected, float) and math.isinf(expected):
        # The loader rejects both: orjson raises, json's infinity fails the
        # embedding check.
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(literal)
    elif isinstance(expected, int) and not -2**63 <= expected < 2**64:
        # Past 64 bits orjson reads an integer as a float, rounded as
        # float() rounds json's int, so the constructor stores the same
        # float64 either way.
        value = orjson.loads(literal)
        assert type(value) is float and value.hex() == float(expected).hex()
    else:
        value = orjson.loads(literal)
        assert type(value) is type(expected)
        assert (value.hex() if isinstance(value, float) else value) == (
            expected.hex() if isinstance(expected, float) else expected)
