"""Artifact data model: typed memory objects, edges, and the append-only graph.

A memory object is a tuple of (kind, content, verbatim quote, source speaker,
embedding, turn index, confidence). Object identity is a content hash of
(kind, normalized content, turn), so re-extracting the same statement from the
same turn collides on purpose and deduplicates. The graph is append-only:
objects and edges are added, never mutated or removed. Stored objects are
immutable by contract, so snapshots, which are read-only, share them.

Persistence is incremental for the same reason. Each graph keeps the UTF-8
JSON of the object and edge records it has already serialized, about one
file's worth of bytes, and a save encodes only the records added since the
last save. The output is byte-identical to encoding the whole document at
once only because records are appended, never changed or removed.

The graph's adjacency lives in its scoring index: for each row, the rows
an edge joins to it, in edge order. neighbors() and the retrieval walk both
read those lists, so they cost a row's degree, not the graph's edge count.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import NoReturn, Optional

from .errors import (
    InvalidObjectError,
    MalformedInputError,
    ReadOnlyGraphError,
    VersionMismatchError,
)
from .scoring import ScoringIndex

GRAPH_FORMAT = "canvas-graph"
GRAPH_VERSION = 1

ID_HEX_LENGTH = 16

# Records a graph has serialized: (objects covered, object chunks, edges
# covered, edge chunks), each chunk the UTF-8 JSON of one save's new records.
_Encoded = tuple[int, tuple[bytes, ...], int, tuple[bytes, ...]]
_NOTHING_ENCODED: _Encoded = (0, (), 0, ())


class ObjectKind(str, Enum):
    DECISION = "DECISION"
    TODO = "TODO"
    KEY_FACT = "KEY_FACT"
    REMINDER = "REMINDER"
    INSIGHT = "INSIGHT"


class Source(str, Enum):
    USER = "USER"
    ASSISTANT = "ASSISTANT"


class EdgeKind(str, Enum):
    REFERENCE = "REFERENCE"
    CAUSAL = "CAUSAL"


class EdgeOrigin(str, Enum):
    SIMILARITY = "SIMILARITY"
    KEYWORD = "KEYWORD"
    TEMPORAL_HEURISTIC = "TEMPORAL_HEURISTIC"


class AddResult(str, Enum):
    ADDED = "ADDED"
    DUPLICATE = "DUPLICATE"


def normalize_text(text: str) -> str:
    """Collapse whitespace runs to single spaces, strip, and lowercase."""
    return " ".join(text.split()).lower()


def object_id(kind: ObjectKind, content: str, turn: int) -> str:
    """Content hash identifying an object; pure in (kind, normalized content, turn)."""
    payload = "\x1f".join((kind.value, normalize_text(content), str(turn)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:ID_HEX_LENGTH]


@dataclass
class CanvasObject:
    """One extracted memory artifact, grounded in a verbatim quote."""

    kind: ObjectKind
    content: str
    quote: str
    source: Source
    turn: int
    confidence: float = 1.0
    embedding: Optional[list[float]] = None
    id: str = field(init=False)

    def __post_init__(self):
        self.validate()
        self.id = object_id(self.kind, self.content, self.turn)

    def validate(self) -> None:
        if not isinstance(self.kind, ObjectKind):
            raise InvalidObjectError(f"kind must be an ObjectKind, got {self.kind!r}")
        if not isinstance(self.source, Source):
            raise InvalidObjectError(f"source must be a Source, got {self.source!r}")
        if not isinstance(self.turn, int) or isinstance(self.turn, bool) or self.turn < 0:
            raise InvalidObjectError(f"turn must be a non-negative integer, got {self.turn!r}")
        if not isinstance(self.content, str):
            raise InvalidObjectError("content must be a string")
        if not isinstance(self.quote, str) or not normalize_text(self.quote):
            raise InvalidObjectError("quote must be a non-empty string")
        if not isinstance(self.confidence, (int, float)) or isinstance(self.confidence, bool):
            raise InvalidObjectError("confidence must be a number")
        if not 0.0 <= float(self.confidence) <= 1.0:
            raise InvalidObjectError(f"confidence must lie in [0, 1], got {self.confidence!r}")
        if self.embedding is not None:
            if not isinstance(self.embedding, list) or not self.embedding:
                raise InvalidObjectError("embedding must be a non-empty list of floats or None")


@dataclass(frozen=True)
class CanvasEdge:
    """A directed edge between two stored objects."""

    src: str
    dst: str
    kind: EdgeKind
    weight: float
    origin: EdgeOrigin

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError("edge endpoints must differ")
        if not isinstance(self.kind, EdgeKind):
            raise ValueError(f"kind must be an EdgeKind, got {self.kind!r}")
        if not isinstance(self.origin, EdgeOrigin):
            raise ValueError(f"origin must be an EdgeOrigin, got {self.origin!r}")
        # A string such as "0.5" or a bool passes a float() range check, and
        # the edge would then store and save it as it came.
        weight = self.weight
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise ValueError(f"edge weight must be a number, got {weight!r}")
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"edge weight must lie in [0, 1], got {weight!r}")


class CanvasGraph:
    """Append-only store of objects and edges with duplicate rejection.

    Concurrency model: single writer, many readers. Writers (ingestion) take
    the graph's lock; readers work on a read-only snapshot() taken at call start.
    Snapshots hold the same CanvasObject instances as the graph, so a stored
    object is immutable by contract: mutating one is unsupported, because
    the change would show through every snapshot that holds it.

    `rows` lists the stored objects in insertion order; row i of the scoring
    index describes rows[i]. `turn_ordered` is True while the rows' turns
    never decrease. The index also keeps the adjacency: each row's
    neighbour rows, one per edge, in edge order, which neighbors() and the
    retrieval walk read. The index catches up with the rows and edges the
    first time something scores against, walks, snapshots or asks for the
    neighbors of the graph, not in add_object or add_edge; an object stored
    without a usable embedding raises only once it is scored. Once scored,
    a stored object's embedding, content and quote must not change: the
    index keeps what it read.

    `line_cache` maps an object's id to its context-block line, filled by
    retrieval the first time it renders the object and shared with every
    snapshot, as the stored objects are, so each line renders once.
    """

    def __init__(self):
        self.objects: dict[str, CanvasObject] = {}
        self.rows: list[CanvasObject] = []
        self.turn_ordered = True
        self.edges: list[CanvasEdge] = []
        self.next_turn: int = 0
        self.lock = threading.Lock()
        # (src, dst, kind) of every edge.
        self._edge_keys: set[tuple[str, str, EdgeKind]] = set()
        self._index = ScoringIndex()
        self._encoded: _Encoded = _NOTHING_ENCODED
        self.line_cache: dict[str, str] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CanvasGraph):
            return NotImplemented
        return (
            self.objects == other.objects
            and self.edges == other.edges
            and self.next_turn == other.next_turn
        )

    def __len__(self) -> int:
        return len(self.objects)

    def add_object(self, obj: CanvasObject) -> AddResult:
        """Insert an object; a second insert of the same identity is a DUPLICATE."""
        obj.validate()
        return self._store(obj)

    def _store(self, obj: CanvasObject) -> AddResult:
        """add_object for an object already validated."""
        if obj.id in self.objects:
            return AddResult.DUPLICATE
        if self.rows and obj.turn < self.rows[-1].turn:
            self.turn_ordered = False
        self.objects[obj.id] = obj
        self.rows.append(obj)
        self.next_turn = max(self.next_turn, obj.turn + 1)
        return AddResult.ADDED

    def add_edge(self, edge: CanvasEdge) -> bool:
        """Insert an edge; returns False when the (src, dst, kind) triple exists."""
        if edge.src not in self.objects or edge.dst not in self.objects:
            raise ValueError("edge endpoints must reference stored objects")
        if edge.kind is EdgeKind.CAUSAL:
            if self.objects[edge.src].turn > self.objects[edge.dst].turn:
                raise ValueError("causal edges must point forward in time")
        key = (edge.src, edge.dst, edge.kind)
        if key in self._edge_keys:
            return False
        self._edge_keys.add(key)
        self.edges.append(edge)
        return True

    def neighbors(self, oid: str) -> list[str]:
        """Ids adjacent to oid across both edge kinds and both directions,
        in edge insertion order (an id twice when two edges join the pair);
        [] for an id the graph does not hold.

        This reads the scoring index, which it first brings up to date, so
        it writes to the index as scoring does: on a graph that a writer may
        be adding to, call it under the graph's lock or on a snapshot()."""
        index = self.scoring_index()
        row = index.row_of(oid)
        if row is None:
            return []
        rows = self.rows
        return [rows[neighbour].id for neighbour in index.adjacent(row)]

    def mark_turn_ingested(self, index: int) -> None:
        """Advance the sequential ingestion cursor past a processed turn."""
        self.next_turn = max(self.next_turn, index + 1)

    def scoring_index(self) -> ScoringIndex:
        """The scoring index, first brought up to date with every stored row
        and edge."""
        index = self._index
        if len(index) < len(self.rows):
            index.extend(self.rows[len(index):])
        if index.edge_count < len(self.edges):
            index.extend_edges(self.edges[index.edge_count:])
        return index

    def snapshot(self) -> "CanvasGraph":
        """Read-only copy of the graph as it stands: later writes to the graph
        never reach it, and a write to it raises ReadOnlyGraphError.

        It copies the objects dict and the rows and edges lists. It shares
        the CanvasObject instances (stored objects are never mutated), the
        caches of serialized records and of block lines, and the scoring
        index's columns, read through a read-only fork only up to the rows
        and edges it was taken with. The index catches up here first, a
        write, so a snapshot is taken under the graph's lock while a writer
        may run, as engine.snapshot() does.
        """
        return _Snapshot(self)

    def edge_counts_by_origin(self) -> dict[str, int]:
        counts = {origin.value: 0 for origin in EdgeOrigin}
        for edge in self.edges:
            counts[edge.origin.value] += 1
        return counts


class _Snapshot(CanvasGraph):
    """What CanvasGraph.snapshot() returns: every write raises and changes nothing."""

    def __init__(self, graph: CanvasGraph):
        # Not CanvasGraph.__init__: its empty scoring index and edge-key set
        # would be thrown away or never read here.
        self.objects = dict(graph.objects)
        self.rows = list(graph.rows)
        self.turn_ordered = graph.turn_ordered
        self.edges = list(graph.edges)
        self.next_turn = graph.next_turn
        self.lock = threading.Lock()
        self._index = graph.scoring_index().fork()
        self._encoded = graph._encoded
        self.line_cache = graph.line_cache

    def _store(self, *_) -> NoReturn:
        raise ReadOnlyGraphError("a snapshot is read-only; write to the graph it was taken from")

    add_edge = mark_turn_ingested = _store


def _object_record(obj: CanvasObject) -> dict:
    return {
        "id": obj.id,
        "kind": obj.kind.value,
        "content": obj.content,
        "quote": obj.quote,
        "source": obj.source.value,
        "turn": obj.turn,
        "confidence": obj.confidence,
        "embedding": obj.embedding,
    }


def _edge_record(edge: CanvasEdge) -> dict:
    return {
        "src": edge.src,
        "dst": edge.dst,
        "kind": edge.kind.value,
        "weight": edge.weight,
        "origin": edge.origin.value,
    }


# NaN and the infinities are not JSON: a record holding one fails to encode
# (ValueError) rather than write a file strict parsers refuse.
_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), allow_nan=False)


def _json(value) -> str:
    return _ENCODER.encode(value)


def _append_chunk(chunks: tuple[bytes, ...], records: list[dict]) -> tuple[bytes, ...]:
    """chunks plus one holding records as they sit inside a JSON array.

    Every chunk but the first starts with the comma that separates it from
    the one before, so the array body is the plain concatenation of chunks.
    """
    if not records:
        return chunks
    body = _json(records)[1:-1]
    return chunks + ((("," + body) if chunks else body).encode("utf-8"),)


def serialize_graph(graph: CanvasGraph) -> bytes:
    """Serialize to versioned UTF-8 JSON; floats keep full round-trip precision.

    Only the objects and edges added since the graph's last save are
    encoded; the rest comes from the graph's cache of encoded records. The
    cache is replaced in one assignment once every new record has encoded,
    so a record that cannot encode (a lone surrogate raises
    UnicodeEncodeError, a NaN or infinite embedding a ValueError naming the
    object) leaves it as it was and fails every later save too.
    """
    objects, object_chunks, edges, edge_chunks = graph._encoded
    if len(graph.rows) < objects or len(graph.edges) < edges:
        objects, object_chunks, edges, edge_chunks = _NOTHING_ENCODED
    new_objects = graph.rows[objects:]
    new_edges = graph.edges[edges:]
    try:
        object_chunks = _append_chunk(object_chunks, [_object_record(o) for o in new_objects])
    except ValueError as exc:
        for obj in new_objects:
            if any(isinstance(x, float) and not math.isfinite(x) for x in obj.embedding or ()):
                raise ValueError(f"object {obj.id} cannot be saved: its embedding "
                                 "holds a NaN or an infinity, which JSON cannot hold") from exc
        raise
    edge_chunks = _append_chunk(edge_chunks, [_edge_record(e) for e in new_edges])
    header = _json({"format": GRAPH_FORMAT, "version": GRAPH_VERSION, "next_turn": graph.next_turn})
    graph._encoded = (
        objects + len(new_objects), object_chunks, edges + len(new_edges), edge_chunks,
    )
    return b"".join((
        header[:-1].encode("utf-8"), b',"objects":[', *object_chunks,
        b'],"edges":[', *edge_chunks, b"]}",
    ))


# The loader maps each enum's stored value to its member with a dict lookup:
# an unknown value raises KeyError, an unhashable one TypeError.
_OBJECT_KINDS = {kind.value: kind for kind in ObjectKind}
_SOURCES = {source.value: source for source in Source}
_EDGE_KINDS = {kind.value: kind for kind in EdgeKind}
_EDGE_ORIGINS = {origin.value: origin for origin in EdgeOrigin}


def _reject_constant(name: str) -> NoReturn:
    raise MalformedInputError(f"graph data holds {name}, which is not JSON")


# Python's parser reads NaN, Infinity and -Infinity, which JSON does not allow.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedInputError(message)


def _finite(embedding: list) -> bool:
    """Whether no component of a loaded embedding is infinite, as a JSON
    number too large for a double (1e400) parses to.

    The sum of a finite vector is almost always finite, so the components
    are read one by one only when it is not, or when the sum raises: a
    component that is not a number is left for the scoring index to report.
    """
    try:
        if math.isfinite(sum(embedding)):
            return True
    except (TypeError, OverflowError):
        pass
    return not any(isinstance(value, float) and math.isinf(value) for value in embedding)


def deserialize_graph(data: bytes) -> CanvasGraph:
    """Rebuild a graph from serialize_graph output.

    Raises MalformedInputError on truncation or schema violations and
    VersionMismatchError on an unsupported version number.
    """
    try:
        doc = _DECODER.decode(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedInputError(f"graph data is not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "graph document must be a JSON object")
    _require(doc.get("format") == GRAPH_FORMAT, "unrecognized graph format tag")
    version = doc.get("version")
    if version != GRAPH_VERSION:
        raise VersionMismatchError(f"unsupported graph version {version!r}")
    _require(isinstance(doc.get("objects"), list), "objects must be a list")
    _require(isinstance(doc.get("edges"), list), "edges must be a list")
    next_turn = doc.get("next_turn")
    _require(isinstance(next_turn, int) and not isinstance(next_turn, bool) and next_turn >= 0,
             "next_turn must be a non-negative integer")

    graph = CanvasGraph()
    for raw in doc["objects"]:
        _require(isinstance(raw, dict), "each object must be a JSON object")
        try:
            # CanvasObject validates the record; _store does not validate again.
            obj = CanvasObject(
                kind=_OBJECT_KINDS[raw["kind"]],
                content=raw["content"],
                quote=raw["quote"],
                source=_SOURCES[raw["source"]],
                turn=raw["turn"],
                confidence=raw["confidence"],
                embedding=raw.get("embedding"),
            )
        except (KeyError, ValueError, TypeError, InvalidObjectError) as exc:
            raise MalformedInputError(f"invalid object record: {exc}") from exc
        # The messages below are built only when a check fails: a load runs
        # these checks once per record.
        if raw.get("id") != obj.id:
            raise MalformedInputError(
                f"object id {raw.get('id')!r} does not match its content hash"
            )
        if obj.embedding is not None and not _finite(obj.embedding):
            raise MalformedInputError(
                f"object {obj.id} has an embedding component too large for a double"
            )
        if graph._store(obj) is not AddResult.ADDED:
            raise MalformedInputError(f"duplicate object id {obj.id}")
    for raw in doc["edges"]:
        _require(isinstance(raw, dict), "each edge must be a JSON object")
        try:
            edge = CanvasEdge(
                src=raw["src"],
                dst=raw["dst"],
                kind=_EDGE_KINDS[raw["kind"]],
                weight=raw["weight"],
                origin=_EDGE_ORIGINS[raw["origin"]],
            )
            added = graph.add_edge(edge)
        except (KeyError, ValueError, TypeError) as exc:
            raise MalformedInputError(f"invalid edge record: {exc}") from exc
        if not added:
            raise MalformedInputError(f"duplicate edge {raw.get('src')!r} -> {raw.get('dst')!r}")
    graph.next_turn = max(graph.next_turn, doc["next_turn"])
    return graph
