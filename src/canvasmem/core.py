"""Artifact data model: typed memory objects, edges, and the append-only graph.

A memory object is a tuple of (kind, content, verbatim quote, source speaker,
embedding, turn index, confidence). Object identity is a content hash of
(kind, normalized content, turn), so re-extracting the same statement from the
same turn collides on purpose and is stored once. An object is checked when
it is built, and CanvasGraph.add_object, the one way an object is stored,
a load's included, checks only that it has an embedding of the first
stored one's length (check_embeddings): that is the one gate for what a
graph holds, so every stored object can be saved and scored. A stored
object's scoring-index row is written by one path alone, the index's
catch-up in scoring_index(), which converts its embedding once. The graph
is append-only: objects and edges are added, never mutated or removed.
Stored objects are immutable by contract, so snapshots, which are
read-only, share them.

An embedding is a float64 array (array('d')), which the constructor
converts once, in one struct pack, from the list or array it is given: an
int or a bool component becomes its float, so 1 saves as 1.0; a component
that is no number, or not finite, is refused, and so is a vector whose
norm lies outside [1e-150, 1e150] (a zero vector's included), which the
scoring screen cannot bound. The constructor computes that norm as the
scoring index does (vector_norm), so every stored row is one the index
can score. Every layer reads that buffer. The scoring index views it
with np.asarray, without a copy; a save vouches for a batch's embeddings
in one numpy pass over their joined bytes and hands orjson a view of
each; a load builds every object through the same constructor, so a
loaded graph holds no float object per component, as an ingested one
holds none.

Persistence is incremental for the same reason. Each graph keeps the last
document serialize_graph returned for it, one file's worth of bytes, and a
save encodes only the records added since then, as one whole document of
their own, and joins the bodies of its arrays to slices of the cached one.
The output is byte-identical to encoding the whole graph at once only
because records are appended, never changed or removed. One function,
_document, encodes every save's records. When orjson is installed, it
writes the document in one call, handed the objects and edges themselves,
and its default hook builds each record as it is written, so a record
lives only while orjson writes it. A batch whose numbers orjson could write
otherwise than the standard library's json encoder goes to that encoder
instead, so a save writes the same bytes with orjson or without it. A full
save, of a graph with nothing cached (its first save, or the first after a
load), is that document alone, so it holds no second copy of the document,
and through orjson no list of records either.

A load shares strings the way an ingest does. Each edge's ends are the id
strings its stored objects hold, as link_object builds them, and an object
whose quote equals its content holds one string for both, as an extractor
builds it, so a loaded graph holds no parsed second copy of either.

The graph's adjacency lives in its scoring index: for each row, the rows
an edge joins to it, in edge order, and the numbers of those edges.
neighbors() and the retrieval walk both read those lists, so they cost a
row's degree, not the graph's edge count, and add_edges finds a duplicate
(src, dst, kind) among the edges of its destination's row, so the graph
holds each edge in its edge list and its index only. A load checks for
duplicate edges with a set of its own, dropped when the load returns.

An edge is a checked tuple: a dense graph holds ten or more edges per
object, and a load builds every one, so each path that moves edges does
so in one pass over tuples. A link builds its edges
positionally, add_edges and a load check a whole list of them at once
(_check_edges) and key a duplicate by edge[:3], the index resolves a
batch's rows before it appends any, and a save builds each record by
unpacking the tuple.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
import struct
import threading
from array import array
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, NoReturn, Optional, Sequence

import numpy as np

from .errors import (CanvasError, DimensionMismatchError, InvalidObjectError, MalformedInputError,
                     MissingEmbeddingError, ReadOnlyGraphError, VersionMismatchError)
from .scoring import SCREENABLE_NORMS, ScoringIndex, vector_norm

GRAPH_FORMAT = "canvas-graph"
GRAPH_VERSION = 1

ID_HEX_LENGTH = 16


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
    # An enum member's _value_ is its value without the property lookup.
    payload = "\x1f".join((kind._value_, normalize_text(content), str(turn)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:ID_HEX_LENGTH]


# The last turn number: a turn lies in [0, 2**63) and a graph's next_turn,
# one past its last turn, in [0, 2**63], so each is a 64-bit integer, which
# orjson writes and parses as json does and whose digits str() can convert.
_LAST_TURN = 2**63 - 1


def _is_turn(value, last: int = _LAST_TURN) -> bool:
    """Whether value is a turn number: an int in [0, last], not a bool (a
    next_turn is checked with last = _LAST_TURN + 1)."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value <= last


def _shown(value) -> str:
    """repr(value), except for an int past 64 bits, whose repr may hold more
    digits than str() converts: its size then."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"an integer of {value.bit_length()} bits"
    return repr(value)


@functools.lru_cache(maxsize=16)
def _packer(dim: int) -> struct.Struct:
    """The struct that packs dim components as float64s."""
    return struct.Struct(f"{dim}d")


# A lone surrogate: the one code point a str can hold that UTF-8 cannot encode.
_SURROGATE = re.compile(r"[\ud800-\udfff]")


def check_fields(kind, content, quote, source, turn, confidence) -> None:
    """Raise InvalidObjectError unless the fields an object holds besides
    its embedding could be saved: a kind and a source of their enums, a
    turn in [0, 2**63), a content and a non-blank quote that hold no lone
    surrogate, and a confidence that is a number in [0, 1], not a bool.
    CanvasObject and extraction's Candidate both check their fields here."""
    if not isinstance(kind, ObjectKind):
        raise InvalidObjectError(f"kind must be an ObjectKind, got {kind!r}")
    if not isinstance(source, Source):
        raise InvalidObjectError(f"source must be a Source, got {source!r}")
    if not _is_turn(turn):
        raise InvalidObjectError(
            f"turn must be a non-negative integer below 2**63, got {_shown(turn)}")
    if not isinstance(content, str):
        raise InvalidObjectError("content must be a string")
    if not content.isascii() and _SURROGATE.search(content):
        raise InvalidObjectError("content must be UTF-8 text: it holds a lone surrogate")
    # normalize_text(quote) is empty exactly when quote is all whitespace.
    if not isinstance(quote, str) or not quote.strip():
        raise InvalidObjectError("quote must be a non-empty string")
    if not quote.isascii() and _SURROGATE.search(quote):
        raise InvalidObjectError("quote must be UTF-8 text: it holds a lone surrogate")
    if not isinstance(confidence, (int, float)) or isinstance(confidence, bool):
        raise InvalidObjectError("confidence must be a number")
    if not 0.0 <= confidence <= 1.0:
        raise InvalidObjectError(f"confidence must lie in [0, 1], got {_shown(confidence)}")


@dataclass
class CanvasObject:
    """One extracted memory artifact, grounded in a verbatim quote.

    The constructor's validate() is the one gate for what a graph can
    hold, beside add_object's test of the embedding's length. It refuses
    what check_fields refuses (a content or quote holding a lone surrogate,
    a turn outside [0, 2**63), among others), and an embedding that is not
    a non-empty list or array of finite numbers, or whose norm lies outside
    SCREENABLE_NORMS, [1e-150, 1e150]: a zero vector, one whose squares
    underflow, or one whose dot product with itself overflows. The norm is
    vector_norm of the stored buffer, the value the scoring index computes
    for the object's row.

    The gate converts the embedding once, into a float64 array the object
    owns (array('d'), a copy when it is given an array): one struct pack
    of the components, so an int or a bool component becomes its float
    (1 becomes 1.0) and None, a string or a list is refused. The array
    holds no float object per component, iterates and indexes as floats,
    pickles, and compares by value as a list does, but never equals a list.

    Immutable by contract once stored. Nothing in the package writes to an
    object after building it: an extractor returns Candidate records, and
    the engine builds each stored object once, from a candidate and the
    embedder's vector. Freezing the dataclass waits only on
    perfbench/tests/test_checks.py, which tampers with stored objects by
    plain assignment.
    """

    kind: ObjectKind
    content: str
    quote: str
    source: Source
    turn: int
    confidence: float = 1.0
    embedding: Optional[Sequence[float]] = None
    id: str = field(init=False)

    def __post_init__(self):
        self.validate()
        self.id = object_id(self.kind, self.content, self.turn)

    def validate(self) -> None:
        check_fields(self.kind, self.content, self.quote, self.source, self.turn,
                     self.confidence)
        embedding = self.embedding
        if embedding is not None:
            if not isinstance(embedding, (list, array)) or not embedding:
                raise InvalidObjectError("embedding must be a non-empty list of floats or None")
            # The pack converts each component that has a float value (a
            # number: __float__ or __index__); None, a string or a list fails.
            try:
                vector = array("d", _packer(len(embedding)).pack(*embedding))
            except (struct.error, TypeError, ValueError, OverflowError) as exc:
                raise InvalidObjectError(
                    f"embedding components must convert to float64: {exc}") from exc
            # The norm the scoring index computes for the stored row, on the
            # same buffer, so every stored row is one the screen bounds. The
            # components are read one by one only to word a refusal.
            norm = vector_norm(np.frombuffer(vector))
            low, high = SCREENABLE_NORMS
            if not low <= norm <= high:
                if not all(map(math.isfinite, vector)):
                    raise InvalidObjectError("embedding components must be finite")
                if not any(x * x for x in vector):
                    raise InvalidObjectError("embedding must not be a zero vector")
                raise InvalidObjectError(f"embedding norm must lie in [{low!r}, {high!r}], "
                                         f"got {math.hypot(*vector)!r}")
            self.embedding = vector


class CanvasEdge(namedtuple("CanvasEdge", ("src", "dst", "kind", "weight", "origin"))):
    """A directed edge between two stored objects: an immutable, checked
    tuple of (src, dst, kind, weight, origin).

    Every way to build one checks it: the constructor, positional or by
    keyword, and _make and _replace, which go through it, and so do pickle
    and copy. A graph holds thousands of edges and a load builds each of
    them, so an edge is a tuple with no __dict__, which builds in about
    half the time a frozen dataclass takes. Being a tuple, an edge equals,
    and hashes as, a plain tuple of the same fields; edge[:3] is its
    (src, dst, kind) key.
    """

    __slots__ = ()

    def __new__(cls, src: str, dst: str, kind: EdgeKind, weight: float, origin: EdgeOrigin):
        if src == dst:
            raise ValueError("edge endpoints must differ")
        if not isinstance(kind, EdgeKind):
            raise ValueError(f"kind must be an EdgeKind, got {kind!r}")
        if not isinstance(origin, EdgeOrigin):
            raise ValueError(f"origin must be an EdgeOrigin, got {origin!r}")
        # A string such as "0.5" or a bool passes a float() range check, and
        # the edge would then store and save it as it came. A float, the
        # usual weight, skips both isinstance calls.
        if weight.__class__ is not float and (
                isinstance(weight, bool) or not isinstance(weight, (int, float))):
            raise ValueError(f"edge weight must be a number, got {weight!r}")
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"edge weight must lie in [0, 1], got {weight!r}")
        return tuple.__new__(cls, (src, dst, kind, weight, origin))

    @classmethod
    def _make(cls, iterable) -> "CanvasEdge":
        # namedtuple's _make, which _replace calls too, skips __new__.
        return cls(*iterable)

    def __reduce__(self):
        # Without it pickle protocols 0 and 1 rebuild through tuple.__new__.
        return (self.__class__, tuple(self))


class CanvasGraph:
    """Append-only store of objects and edges with duplicate rejection.

    Concurrency model: single writer, many readers. Writers (ingestion) take
    the graph's lock; readers work on a read-only snapshot() taken at call start.
    Snapshots hold the same CanvasObject instances as the graph, so a stored
    object is immutable by contract: mutating one is unsupported, because
    the change would show through every snapshot that holds it.

    `rows` lists the stored objects in insertion order; row i of the scoring
    index describes rows[i]. The index also keeps the adjacency: each row's
    neighbour rows, one per edge, in edge order, which neighbors() and the
    retrieval walk read. The index catches up with the rows and edges the
    first time something scores against, walks, snapshots, adds an edge to
    or asks for the neighbors of the graph, link_object included: that
    catch-up, ScoringIndex.extend, is the only writer of a stored object's
    row, and converts its embedding once. add_object writes no row, so a
    load writes none, and the catch-up can score every row: add_object
    stores only an embedding of rows[0]'s length (check_embeddings). Once
    indexed, a stored object's embedding, content and quote must not
    change: the index keeps what it read.

    add_edges is the one edge write, and add_edge is add_edges of one
    edge. It checks the whole list in one _check_edges call, then refuses
    each edge whose key, edge[:3] = (src, dst, kind), the graph holds: it
    reads once the numbers of the edges the index holds for each
    destination's row and compares their keys, so the graph keeps no set
    of edge keys. The edges it adds join the edge list and the index in
    one step, so a link brings the index up to date once. It writes to
    the index as scoring does: on a graph a writer may be adding to, it
    runs under the graph's lock, as linking does.

    `line_cache` maps an object's id to its context-block line, filled by
    retrieval the first time it renders the object and shared with every
    snapshot, as the stored objects are, so each line renders once.
    `digest_cache` holds the extraction digest's keys and lines (see
    extraction.prior_digest): a tuple that is replaced, never changed, so
    a snapshot keeps the one it was taken with.
    """

    def __init__(self):
        self.objects: dict[str, CanvasObject] = {}
        self.rows: list[CanvasObject] = []
        self.edges: list[CanvasEdge] = []
        self.next_turn: int = 0
        self.lock = threading.Lock()
        self._index = ScoringIndex()
        self._encoded: _Encoded = _NOTHING_ENCODED
        self.line_cache: dict[str, str] = {}
        self.digest_cache: tuple[int, tuple, tuple[str, ...]] = (0, (), ())

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
        """Store an object, which CanvasObject checked when built: this is
        the one object write, a load's included. A second insert of the same
        identity is a DUPLICATE. What check_embeddings raises for obj (no
        embedding, or one whose length differs from rows[0]'s) is raised
        with nothing stored. The object's index row is left to the next
        catch-up, which converts its embedding once."""
        self.check_embeddings((obj,))
        if obj.id in self.objects:
            return AddResult.DUPLICATE
        self.objects[obj.id] = obj
        self.rows.append(obj)
        self.next_turn = max(self.next_turn, obj.turn + 1)
        return AddResult.ADDED

    def check_embeddings(self, objects: Sequence[CanvasObject]) -> None:
        """Raise what add_object would raise storing objects in order:
        MissingEmbeddingError for an object with no embedding, and
        DimensionMismatchError for one whose embedding's length differs from
        rows[0]'s or, on an empty graph, from the first object's. This is
        the graph's one dimension rule; the engine checks a turn's objects
        with it before it stores any."""
        rows = self.rows
        dim = len(rows[0].embedding) if rows else None
        for obj in objects:
            embedding = obj.embedding
            if embedding is None:
                raise MissingEmbeddingError(f"object {obj.id} has no embedding")
            if dim is None:
                dim = len(embedding)
            elif len(embedding) != dim:
                raise DimensionMismatchError(
                    f"object {obj.id} has {len(embedding)} embedding components, where the "
                    f"first {'stored ' if rows else ''}embedding has {dim}")

    def add_edge(self, edge: CanvasEdge) -> bool:
        """Insert an edge; returns False when the (src, dst, kind) triple exists."""
        return bool(self.add_edges([edge]))

    def add_edges(self, edges: list[CanvasEdge]) -> list[CanvasEdge]:
        """Insert edges, in order; returns those added, leaving out each
        whose (src, dst, kind) triple the graph, or an earlier one of edges,
        already holds. A ValueError from any edge's check adds none.

        The index, first brought up to date, lists the edges of each
        destination's row, read once; an edge of the same triple is one of
        them. The added edges join the edge list and the index in one step."""
        if not edges:
            return []
        self._check_edges(edges)
        index = self.scoring_index()
        stored, incident, row_of = self.edges, index.incident, index.row_of
        held = {stored[number][:3]
                for dst in {edge[1] for edge in edges} for number in incident(row_of(dst))}
        added: list[CanvasEdge] = []
        for edge in edges:
            key = edge[:3]
            if key not in held:
                held.add(key)
                added.append(edge)
        if added:
            stored += added
            index.extend_edges(added)
        return added

    def _check_edges(self, edges: list[CanvasEdge]) -> None:
        """Raise ValueError unless both ends of every edge are stored and
        each causal edge points forward in time."""
        objects, causal = self.objects, EdgeKind.CAUSAL
        for edge in edges:
            src, dst = edge.src, edge.dst
            if src not in objects or dst not in objects:
                raise ValueError("edge endpoints must reference stored objects")
            if edge.kind is causal and objects[src].turn > objects[dst].turn:
                raise ValueError("causal edges must point forward in time")

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
        """Advance the sequential ingestion cursor past a processed turn; an
        index that is not a turn number, an int in [0, 2**63), is a
        ValueError that names it."""
        if not _is_turn(index):
            raise ValueError(
                f"turn index must be a non-negative integer below 2**63, got {_shown(index)}")
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
        # Not CanvasGraph.__init__: its empty scoring index would be thrown away.
        self.objects = dict(graph.objects)
        self.rows = list(graph.rows)
        self.edges = list(graph.edges)
        self.next_turn = graph.next_turn
        self.lock = threading.Lock()
        self._index = graph.scoring_index().fork()
        self._encoded = graph._encoded
        self.line_cache = graph.line_cache
        self.digest_cache = graph.digest_cache

    def add_object(self, *_) -> NoReturn:
        raise ReadOnlyGraphError("a snapshot is read-only; write to the graph it was taken from")

    add_edges = mark_turn_ingested = add_object


def _object_record(obj: CanvasObject, vector) -> dict:
    """obj's record, its embedding as vector(obj.embedding) gives it to the
    encoder: array.tolist for json, np.frombuffer for orjson."""
    return {
        "id": obj.id,
        "kind": obj.kind.value,
        "content": obj.content,
        "quote": obj.quote,
        "source": obj.source.value,
        "turn": obj.turn,
        "confidence": obj.confidence,
        "embedding": vector(obj.embedding),
    }


# NaN and the infinities are not JSON: a record holding one fails to encode
# (ValueError) rather than write a file strict parsers refuse.
_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), allow_nan=False)


def _json(value) -> str:
    return _ENCODER.encode(value)


@functools.cache
def _orjson():
    """The orjson module, or None when it is not installed; imported on the
    first save or load, not with canvasmem."""
    try:
        import orjson
    except ImportError:
        return None
    return orjson


def _plain(values) -> bool:
    """Whether orjson writes each of these numbers (confidences or edge
    weights) as json does: each is 0 or a real number whose magnitude lies
    in [1e-4, 1e16), where orjson writes a float as repr does; their
    magnitudes' sum must lie below 1e16 too.

    Outside that range orjson writes a float in another form (1e16 where
    json writes 1e+16, 0.00001 where it writes 1e-05).
    """
    magnitudes = [*map(abs, filter(None, values))]
    return not magnitudes or (min(magnitudes) >= 1e-4 and math.fsum(magnitudes) < 1e16)


def _record(value) -> dict:
    """The record of a CanvasObject or of an edge tuple: orjson's default
    hook, which builds each record as orjson writes it, its embedding a
    float64 view of the object's array, and the json path's builder of
    edge records. Anything else raises TypeError, which orjson reports as
    it is."""
    if isinstance(value, tuple):
        src, dst, kind, weight, origin = value
        # An enum member's _value_ is its value without the property lookup.
        return {"src": src, "dst": dst, "kind": kind._value_, "weight": weight,
                "origin": origin._value_}
    if value.__class__ is CanvasObject:
        return _object_record(value, np.frombuffer)
    raise TypeError(f"{value.__class__.__name__} is not a record")


def _orjson_vouches(objects: list[CanvasObject], edges: list[CanvasEdge]) -> bool:
    """Whether orjson, given _record as its default hook, writes these
    records as json does, unless it raises TypeError: every edge is a
    CanvasEdge (orjson writes a plain tuple as an array and never hands it
    to the hook), each confidence and edge weight is _plain, and every
    nonzero embedding component's magnitude lies in [1e-4, 1e16).

    The embeddings are float64 arrays, so one numpy pass over their joined
    bytes tests every component of the batch; a zero, -0.0 included,
    orjson writes as json does."""
    weights = [edge[3] for edge in edges if edge.__class__ is CanvasEdge]
    if (len(weights) != len(edges) or not _plain([obj.confidence for obj in objects])
            or not _plain(weights)):
        return False
    if not objects:
        return True
    values = np.frombuffer(b"".join([obj.embedding for obj in objects]))
    magnitudes = np.abs(values[values != 0])
    return not magnitudes.size or bool(magnitudes.min() >= 1e-4 and magnitudes.max() < 1e16)


class _Encoded(NamedTuple):
    """A document holding a graph's records: its bytes, the object and edge
    records and the next_turn it holds, and where the body of its object
    array starts and ends."""

    document: bytes
    objects: int
    edges: int
    next_turn: int
    objects_start: int
    objects_end: int


def _header(next_turn: int) -> bytes:
    """A document's bytes up to its first object record."""
    header = _json({"format": GRAPH_FORMAT, "version": GRAPH_VERSION, "next_turn": next_turn})
    return (header[:-1] + ',"objects":[').encode("utf-8")


_EMPTY_HEADER = _header(0)
# What a document holds between its object array's body and its edge array's.
_EDGES_KEY = b'],"edges":['
_NOTHING_ENCODED = _Encoded(_EMPTY_HEADER + _EDGES_KEY + b"]}", 0, 0, 0,
                            len(_EMPTY_HEADER), len(_EMPTY_HEADER))


def _document(objects: list[CanvasObject], edges: list[CanvasEdge],
              next_turn: int) -> _Encoded:
    """The _Encoded of the whole document holding these records and next_turn.

    orjson writes it in one call when it is installed, _orjson_vouches for
    the records and it raises no TypeError (for a value it cannot write,
    which it hands to _record). Each record is then built by
    _record as orjson writes it, each embedding written from a view of its
    array, so no list of records and no float per component is held beside
    the document. Otherwise json encodes the document from lists of the
    records, each embedding as its array's tolist(). The two write strings
    alike: json with ensure_ascii=False escapes only the quote, the
    backslash and the control characters below U+0020, as orjson does, and
    in the same forms.

    The object array ends at the one '],"edges":[': no string can hold
    those bytes, since JSON escapes each quote inside a string. An edge
    record holds no ']' unless an id does, so the last ']' before the edge
    array's own, found by a one-byte search, is almost always that key's;
    only when it is not does a search for the whole key run."""
    header = _header(next_turn)
    fields = {"format": GRAPH_FORMAT, "version": GRAPH_VERSION, "next_turn": next_turn}
    document = None
    orjson = _orjson()
    if orjson is not None and _orjson_vouches(objects, edges):
        try:
            document = orjson.dumps(
                {**fields, "objects": objects, "edges": edges}, default=_record,
                option=orjson.OPT_PASSTHROUGH_DATACLASS | orjson.OPT_SERIALIZE_NUMPY)
        except TypeError:
            pass
    if document is None:
        document = _json({**fields, "objects": [_object_record(obj, array.tolist)
                                                for obj in objects],
                          "edges": [_record(edge) for edge in edges]}).encode("utf-8")
    objects_end = document.rfind(b"]", 0, -2)
    if not document.startswith(_EDGES_KEY, objects_end):
        objects_end = document.rfind(_EDGES_KEY)
    return _Encoded(document, len(objects), len(edges), next_turn, len(header), objects_end)


def serialize_graph(graph: CanvasGraph) -> bytes:
    """Serialize to versioned UTF-8 JSON; floats keep full round-trip precision.

    The graph caches the last document this returned for it. A save with no
    new record and the same next_turn returns that bytes object itself.
    Any other save encodes the objects and edges added since, under the
    graph's next_turn, as one whole document (_document). When the cache
    holds no record (the first save of a new or a loaded graph, or of one
    holding fewer records than its cache), that document is the save.
    Otherwise the save joins, in one copy, its header and the bodies of
    its arrays to those of the cached document.

    Records encode through orjson when it is installed (it is optional:
    `pip install canvasmem[fast]`), except a batch that orjson could write
    otherwise than json or that it refuses: a float outside
    1e-4 <= |x| < 1e16, or an edge that is not a CanvasEdge. Every
    embedding is a float64 array, which orjson writes from a numpy view of
    it and json from its tolist(), so an int component saves as a float
    (1.0), and a save vouches for a batch's embeddings in one numpy pass
    over their joined bytes. json encodes a batch orjson cannot vouch for,
    so the bytes are the same either way.

    Every record can be saved: CanvasObject and CanvasEdge refuse, when
    built, any other. A next_turn a load would refuse (one that is not an
    int in [0, 2**63]) raises ValueError before the cache is read, which is
    replaced in one assignment.
    """
    next_turn = graph.next_turn
    if not _is_turn(next_turn, _LAST_TURN + 1):
        raise ValueError(
            f"next_turn must be a non-negative integer not above 2**63, got {_shown(next_turn)}")
    cached = graph._encoded
    if len(graph.rows) < cached.objects or len(graph.edges) < cached.edges:
        cached = _NOTHING_ENCODED
    new_objects = graph.rows[cached.objects:]
    new_edges = graph.edges[cached.edges:]
    if not new_objects and not new_edges and next_turn == cached.next_turn:
        return cached.document
    fresh = _document(new_objects, new_edges, next_turn)
    if not cached.objects and not cached.edges:
        graph._encoded = fresh
        return fresh.document
    old, new = memoryview(cached.document), memoryview(fresh.document)
    object_body = (
        old[cached.objects_start:cached.objects_end],
        b"," if cached.objects and new_objects else b"",
        new[fresh.objects_start:fresh.objects_end],
    )
    document = b"".join((
        new[:fresh.objects_start], *object_body, old[cached.objects_end:-2],
        b"," if cached.edges and new_edges else b"",
        new[fresh.objects_end + len(_EDGES_KEY):-2], b"]}",
    ))
    graph._encoded = _Encoded(
        document, cached.objects + len(new_objects), cached.edges + len(new_edges), next_turn,
        fresh.objects_start, fresh.objects_start + sum(map(len, object_body)),
    )
    return document


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


def _build(next_turn: int, object_records, edge_records) -> CanvasGraph:
    """A graph of the records, which each path has parsed, and next_turn.

    An object whose quote equals its content is built with one string for
    both. An object add_object refuses (no embedding, or one of another
    length than the first stored one's) is an invalid record. One loop
    builds each edge, its ends the stored objects' own id strings (found
    with one dict lookup each; an end naming no stored object, or not a
    str, stays as parsed), refuses a repeated edge[:3] with a set that is
    dropped on return, and appends it; one _check_edges call, as in
    add_edges, then checks the ends of them all. The scoring index is left
    to catch up the first time the graph is read."""
    _require(_is_turn(next_turn, _LAST_TURN + 1),
             "next_turn must be a non-negative integer not above 2**63")
    graph = CanvasGraph()
    for raw in object_records:
        _require(isinstance(raw, dict), "each object must be a JSON object")
        try:
            kind = _OBJECT_KINDS[raw["kind"]]
            content, quote = raw["content"], raw["quote"]
            # A quote equal to its content is that one string, as an
            # extractor builds it.
            if quote == content:
                quote = content
            # CanvasObject checks the record, add_object its embedding's length.
            obj = CanvasObject(kind, content, quote, _SOURCES[raw["source"]], raw["turn"],
                               raw["confidence"], raw.get("embedding"))
        except (KeyError, ValueError, TypeError, InvalidObjectError) as exc:
            raise MalformedInputError(f"invalid object record: {exc}") from exc
        if raw.get("id") != obj.id:
            raise MalformedInputError(
                f"object id {raw.get('id')!r} does not match its content hash"
            )
        try:
            added = graph.add_object(obj)
        except (MissingEmbeddingError, DimensionMismatchError) as exc:
            raise MalformedInputError(f"invalid object record: {exc}") from exc
        if added is not AddResult.ADDED:
            raise MalformedInputError(f"duplicate object id {obj.id}")
    edges, keys = graph.edges, set()
    stored_id = {oid: oid for oid in graph.objects}.get
    for raw in edge_records:
        if not isinstance(raw, dict):
            raise MalformedInputError("each edge must be a JSON object")
        try:
            src, dst = raw["src"], raw["dst"]
            # Only str ends are looked up: a str is hashable, so no lookup
            # raises, and a bad record fails the checks below in their order.
            if src.__class__ is str and dst.__class__ is str:
                src, dst = stored_id(src, src), stored_id(dst, dst)
            edge = CanvasEdge(src, dst, _EDGE_KINDS[raw["kind"]], raw["weight"],
                              _EDGE_ORIGINS[raw["origin"]])
            key = edge[:3]
            repeated = key in keys  # TypeError when an endpoint is unhashable
        except (KeyError, ValueError, TypeError) as exc:
            raise MalformedInputError(f"invalid edge record: {exc}") from exc
        if repeated:
            raise MalformedInputError(f"duplicate edge {edge.src!r} -> {edge.dst!r}")
        keys.add(key)
        edges.append(edge)
    try:
        graph._check_edges(edges)
    except ValueError as exc:
        raise MalformedInputError(f"invalid edge record: {exc}") from exc
    graph.next_turn = max(graph.next_turn, next_turn)
    return graph


def _stdlib_load(data: bytes) -> CanvasGraph:
    """deserialize_graph through the standard library's json parser alone."""
    try:
        doc = _DECODER.decode(data.decode("utf-8"))
    except ValueError as exc:
        # UnicodeDecodeError and JSONDecodeError are ValueErrors, and so is
        # int's refusal of an integer literal past its digit limit.
        raise MalformedInputError(f"graph data is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MalformedInputError("graph data is nested too deeply to parse") from exc
    _require(isinstance(doc, dict), "graph document must be a JSON object")
    _require(doc.get("format") == GRAPH_FORMAT, "unrecognized graph format tag")
    version = doc.get("version")
    if version != GRAPH_VERSION:
        raise VersionMismatchError(f"unsupported graph version {version!r}")
    _require(isinstance(doc.get("objects"), list), "objects must be a list")
    _require(isinstance(doc.get("edges"), list), "edges must be a list")
    return _build(doc.get("next_turn"), doc["objects"], doc["edges"])


class _NotCanonical(Exception):
    """The fast load cannot vouch for its result; the stdlib load runs instead."""


# What serialize_graph writes before the first object record.
_CANONICAL_HEADER = re.compile(
    rb'\{"format":"canvas-graph","version":1,"next_turn":(0|[1-9][0-9]*),"objects":\['
)
# The bytes between two records of each array, where a chunk is cut after
# the first byte. Neither can lie inside a JSON string, where a quote is
# escaped; one between values nested in a record is caught when parsed.
_OBJECT_CUT = b'},{"id":"'
_EDGE_CUT = b'},{"src":"'
# The key counts of saved records: an extra key or a missing one leaves
# the record to the stdlib load.
_OBJECT_KEYS = 8
_EDGE_KEYS = 5
# orjson parses an array a chunk of about this many bytes at a time, and
# a chunk's records are dropped once built, so a load holds little more
# than the graph it builds; a whole-document parse would hold every
# record's dict and list beside it. Measured with perfbench over 6
# alternating seed pairs on a 2-core host, one whole-document orjson.loads
# in place of the chunks raised peak_rss_mb from 79.8 to 89.2 MB on
# ingest-long (past the benchmark's 10% bound), from 77.3 to 79.6 on
# query-heavy and from 61.9 to 63.6 on mixed-session, and loaded no faster.
_CHUNK_BYTES = 1 << 16


def _fast_records(orjson, data: bytes, start: int, end: int, cut: bytes, keys: int):
    """The records of the JSON array body data[start:end], parsed by orjson
    a chunk at a time.

    Each chunk ends at a cut. A cut inside a nested value leaves the chunk's
    brackets unbalanced, which orjson rejects, so the chunks parse only when
    each is a run of whole records, and then their records are the array's.
    """
    view = memoryview(data)
    while start < end:
        stop = data.find(cut, start + _CHUNK_BYTES, end)
        stop = end if stop < 0 else stop + 1
        for record in orjson.loads(b"".join((b"[", view[start:stop], b"]"))):
            if type(record) is not dict or len(record) != keys:
                raise _NotCanonical
            yield record
        start = stop + 1


def _fast_load(orjson, data: bytes) -> CanvasGraph:
    """deserialize_graph through orjson, for a file laid out as
    serialize_graph writes it; _NotCanonical, or any error the parse or the
    build raises, leaves the file to the stdlib load."""
    header = _CANONICAL_HEADER.match(data)
    if header is None or not data.endswith(b"]}"):
        raise _NotCanonical
    split = data.rfind(_EDGES_KEY)
    if split < header.end():
        raise _NotCanonical
    objects = _fast_records(orjson, data, header.end(), split, _OBJECT_CUT, _OBJECT_KEYS)
    edges = _fast_records(orjson, data, split + len(_EDGES_KEY), len(data) - 2, _EDGE_CUT,
                          _EDGE_KEYS)
    return _build(int(header[1]), objects, edges)


def deserialize_graph(data: bytes | bytearray | memoryview) -> CanvasGraph:
    """Rebuild a graph from serialize_graph output, given as any bytes-like
    object (a bytes argument is used as it is, not copied).

    Raises TypeError on anything not bytes-like (a str, say),
    MalformedInputError on truncation, schema violations, nesting too deep
    to parse, a record CanvasObject refuses (a quote holding the escape
    \\ud800, an embedding component that is null, a string or 1e400, which
    parses to infinity, or an embedding whose norm lies outside [1e-150,
    1e150], an all-zero one included) or add_object refuses (no
    embedding, or one whose length differs from the first stored one's),
    and VersionMismatchError on an unsupported version number. A loaded
    graph can always be saved and scored, and holds no float object per
    embedding component: each is a float64 of its object's array.

    When orjson is installed (it is optional: `pip install canvasmem[fast]`),
    a file laid out as serialize_graph writes it loads through orjson first:
    one match of the fixed header, then each array parsed in chunks of about
    64 KB cut at record boundaries, each chunk's records built and dropped
    before the next is parsed. That path gives up, and the stdlib json path
    loads the whole file instead, whose result or exception is final, on any
    orjson error, a record whose key count is not a saved record's, or any
    error while building the graph. An integer literal past 64 bits, which
    orjson reads as a float and json as an int, is the same float64 once
    the constructor converts it, so embeddings need no test of their own.
    The two paths give equal graphs, except that a valid file nested deeper
    than the stdlib parser's recursion limit allows, in a value the loader
    ignores (a duplicated key's earlier value), loads only through orjson.
    """
    if not isinstance(data, bytes):
        try:
            data = memoryview(data).tobytes()
        except TypeError:
            raise TypeError(
                f"graph data must be a bytes-like object, not {type(data).__name__}") from None
    orjson = _orjson()
    if orjson is not None:
        try:
            return _fast_load(orjson, data)
        except (_NotCanonical, CanvasError, ValueError, RecursionError):
            # orjson's JSONDecodeError is a ValueError. orjson parses values
            # nested deeper than Python's recursion limit, which a record's
            # error message may then fail to repr.
            pass
    return _stdlib_load(data)
