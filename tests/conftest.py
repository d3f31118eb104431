"""Shared helpers for the test suite."""

from __future__ import annotations

import json
import math
import random

import pytest

from canvasmem import core
from canvasmem.core import CanvasGraph, CanvasObject, ObjectKind, Source
from canvasmem.errors import BackendFailureError
from canvasmem.extraction import Candidate, ConversationTurn
from canvasmem.scoring import MockEmbedder


def axis(index: int, dim: int = 8) -> list[float]:
    """Standard basis vector: all zeros except a one at `index`."""
    vec = [0.0] * dim
    vec[index] = 1.0
    return vec


def vec_at_cosine(target: float) -> list[float]:
    """A unit vector whose cosine against axis(0) is exactly `target`."""
    return [target, math.sqrt(1.0 - target * target)] + [0.0] * 6


# The embedding of a make_obj object given none: every stored object needs
# one, of the graph's length, and a test that scores nothing needs no other.
DEFAULT_EMBEDDING = axis(0)


def make_obj(
    kind: ObjectKind = ObjectKind.KEY_FACT,
    content: str = "the cache lives in redis",
    turn: int = 0,
    embedding: list[float] | None = DEFAULT_EMBEDDING,
    quote: str | None = None,
    source: Source = Source.USER,
    confidence: float = 1.0,
) -> CanvasObject:
    return CanvasObject(
        kind=kind,
        content=content,
        quote=quote if quote is not None else content,
        source=source,
        turn=turn,
        confidence=confidence,
        embedding=embedding,
    )


def make_candidate(
    kind: ObjectKind = ObjectKind.KEY_FACT,
    content: str = "the cache lives in redis",
    turn: int = 0,
    quote: str | None = None,
    source: Source = Source.USER,
    confidence: float = 1.0,
) -> Candidate:
    """What a fake extractor returns: make_obj's fields, with no embedding."""
    return Candidate(
        kind=kind,
        content=content,
        quote=quote if quote is not None else content,
        source=source,
        turn=turn,
        confidence=confidence,
    )


def graph_of(*objects: CanvasObject) -> CanvasGraph:
    graph = CanvasGraph()
    for obj in objects:
        graph.add_object(obj)
    return graph


def _load(data: bytes):
    """(what deserialize_graph made of data, the graph or the exception):
    the loaded records, type for type, or the exception's type and message."""
    try:
        graph = core.deserialize_graph(data)
    except Exception as exc:
        return ("raises", type(exc), str(exc)), exc
    return ("loads", repr([vars(o) for o in graph.rows]), repr(graph.edges),
            graph.next_turn), graph


def load_both_ways(data: bytes) -> CanvasGraph:
    """deserialize_graph(data) with the orjson path on, checked against the
    load with that path forced off: both must load the same records, or
    raise the same exception type and message. Where orjson is not
    installed, both loads take the stdlib path."""
    fast, result = _load(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_orjson", lambda: None)
        stdlib, _ = _load(data)
    assert fast == stdlib
    if isinstance(result, Exception):
        raise result
    return result


@pytest.fixture(scope="module")
def both_load_paths(request):
    """Every deserialize_graph call in the requesting module's tests goes
    through load_both_ways."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(request.module, "deserialize_graph", load_both_ways)
        yield


def whole_document(graph: CanvasGraph) -> bytes:
    """The oracle of every save: one json.dumps over the whole document."""
    doc = {
        "format": core.GRAPH_FORMAT,
        "version": core.GRAPH_VERSION,
        "next_turn": graph.next_turn,
        "objects": [
            {
                "id": obj.id,
                "kind": obj.kind.value,
                "content": obj.content,
                "quote": obj.quote,
                "source": obj.source.value,
                "turn": obj.turn,
                "confidence": obj.confidence,
                "embedding": list(obj.embedding),
            }
            for obj in graph.objects.values()
        ],
        "edges": [
            {"src": src, "dst": dst, "kind": kind.value, "weight": weight, "origin": origin.value}
            for src, dst, kind, weight, origin in graph.edges
        ],
    }
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


def _save(graph: CanvasGraph):
    """(what serialize_graph made of graph, the bytes or the exception): the
    bytes, or the exception's type and message."""
    try:
        data = core.serialize_graph(graph)
    except Exception as exc:
        return ("raises", type(exc), str(exc)), exc
    return ("saves", data), data


def save_both_ways(graph: CanvasGraph) -> bytes:
    """serialize_graph(graph) with the orjson path on, checked against the
    save with that path forced off, each from the encode cache the graph
    held before: both must give the same bytes, or raise the same exception
    type and message. The graph keeps the cache of the second save. Where
    orjson is not installed, both saves take the stdlib path."""
    cached = graph._encoded
    fast, _ = _save(graph)
    graph._encoded = cached
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_orjson", lambda: None)
        stdlib, result = _save(graph)
    assert fast == stdlib
    if isinstance(result, Exception):
        raise result
    return result


@pytest.fixture(scope="module")
def both_save_paths(request):
    """Every serialize_graph call in the requesting module's tests goes
    through save_both_ways."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(request.module, "serialize_graph", save_both_ways)
        yield


class CountingEmbedder:
    """MockEmbedder that counts its calls and can fail on one of them (from 1)."""

    def __init__(self, fail_on_call: int | None = None):
        self.inner = MockEmbedder()
        self.fail_on_call = fail_on_call
        self.calls = 0

    def embed(self, text: str) -> list[float]:
        self.calls += 1
        if self.calls == self.fail_on_call:
            raise BackendFailureError("synthetic outage", role="embedder")
        return self.inner.embed(text)


TOPICS = ("billing gateway", "redis cache", "schema migration", "release train", "search index")
FACTS = ("times out after {n} seconds", "runs on node {n}", "holds {n} gigabytes",
         "was moved to friday", "needs {n} replicas")


def seeded_turns(seed: int, count: int) -> list[ConversationTurn]:
    """A seeded conversation of 0-2 marker lines per turn over five topics."""
    rng = random.Random(seed)
    turns = []
    for index in range(count):
        lines = []
        for _ in range(rng.choice((0, 1, 1, 2))):
            kind = rng.choice(("KEY_FACT", "KEY_FACT", "DECISION", "REMINDER", "TODO", "INSIGHT"))
            fact = rng.choice(FACTS).format(n=rng.randint(1, 4))
            lines.append(f"{kind}: the {rng.choice(TOPICS)} {fact}")
        user = "\n".join(lines) or "nothing new today"
        assistant = f"GLEAN: the {rng.choice(TOPICS)} is owned by team {index % 3}"
        turns.append(ConversationTurn(index, user, assistant if rng.random() < 0.2 else "ok"))
    return turns


QUESTIONS = ("why did we move the release train?", "when does the billing gateway time out?",
             "what holds the redis cache?", "which node runs the search index",
             "the schema migration needs how many replicas")
