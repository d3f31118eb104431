"""Relevance scoring: cosine similarity, lexical overlap, and the hybrid blend.

The hybrid score is alpha * clamped_cosine + (1 - alpha) * keyword coverage.
Keyword coverage is the fraction of the query's content-bearing tokens that
also appear in the object's content or quote. Stopwords come from a fixed
50-word list shipped as a package asset.

Scoring a graph is screen-then-verify, and the ScoringIndex owns both
halves: linking, coarse retrieval and the RAG baseline score through it
alone. The index holds every stored embedding in one float64 matrix with
its row norms, the same rows as float32 unit vectors, each row's turn,
each row's content tokens interned to integer ids (a list of ids per row,
next to a float64 column of their counts), and for each token id two
posting lists: the rows whose content holds it and the rows whose content
or quote holds it. A new row is written in one pass, a scalar store per
column and each token interned once, so an ingest pays per object, not
per column. The screen is one float32 matrix-vector product of the unit rows against the
query's float32 unit vector, prepared once with its float64 vector, norm,
token set and token ids. It sits within a margin of cosine_sim that the
index derives from its dimension (see _screen_margin). cosines_from and
top_hybrids keep the rows whose screened score could pass a floor, or
reach the top k, within that margin, and verify those with exact_cosines
and exact_hybrids. These run the operations of cosine_sim and
hybrid_score, in the same order, on the same float64 values (one batched
call of numpy's vector dot kernel, a dot product per row, then the
division, the clamp and the blend as float64 array operations), so every
stored edge weight and every ranked score is bit-identical to the scalar
value. A vector whose norm is too large or too small for the screen to
bound its cosines is screened as +inf, so it is always verified. A vector
cosine_sim cannot score is a fault: preparing a query against an index
that holds one, or preparing such a query, raises cosine_sim's typed
error. There is no other scoring path.

The token half needs no screen. Both token kernels join posting lists
and count each row's hits with one np.bincount (ScanCount): Jaccard joins
the content posting lists of a row's token ids, coverage the
content-or-quote posting lists of the query's ids, so each reads only the
rows sharing a token with the set, not every stored id. Jaccard and
coverage divide those integer counts by exact integer sizes, as
token_jaccard and token_coverage do, so every row's value is the scalar one to the last
bit. Those scalar functions, cosine_sim and hybrid_score are the spec, kept
in the test suite's naive reference engine (tests/reference.py).

The index also holds the graph's adjacency: for each row, the rows an
edge joins to it, in edge order, which the retrieval walk and
CanvasGraph.neighbors() read, so a hop reads only its frontier's edges.
"""

from __future__ import annotations

import hashlib
import math
import re
import sys
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import TYPE_CHECKING, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from .errors import (CanvasError, DimensionMismatchError, MissingEmbeddingError,
                     ReadOnlyGraphError, ZeroVectorError)

if TYPE_CHECKING:
    from .core import CanvasEdge, CanvasObject

DEFAULT_ALPHA = 0.7
MOCK_EMBEDDING_DIM = 256

# The screen bounds the cosines of vectors with a norm in this range: within
# it the float64 norm is accurate to a few ulps, and no product in
# cosine_sim overflows or underflows by enough to move a cosine past the
# margin.
_SCREENABLE_NORMS = (1e-150, 1e150)
_INITIAL_ROWS = 64
# The turn column is int64; larger turns are stored as this (see turn_window).
_TURN_CAP = 2**62

_TOKEN_RE = re.compile(r"[a-z0-9]+")


@runtime_checkable
class EmbedderBackend(Protocol):
    """Anything that maps text to a fixed-dimension embedding vector."""

    def embed(self, text: str) -> list[float]:
        ...


def _read_asset(name: str) -> str:
    return resources.files("canvasmem").joinpath(f"assets/{name}").read_text(encoding="utf-8")


@lru_cache(maxsize=1)
def stopwords() -> frozenset[str]:
    """The fixed stopword list used for keyword scoring and lexical edges."""
    return frozenset(w.strip() for w in _read_asset("stopwords.txt").split() if w.strip())


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens; punctuation is dropped."""
    return _TOKEN_RE.findall(text.lower())


def content_tokens(text: str) -> list[str]:
    """Tokens with stopwords removed; order preserved."""
    stop = stopwords()
    return [tok for tok in tokenize(text) if tok not in stop]


def token_set(text: str) -> frozenset[str]:
    """The distinct content tokens of a text, interned (an index holds many)."""
    return frozenset(map(sys.intern, content_tokens(text)))


def _vector(embedding, dim: Optional[int]) -> tuple[np.ndarray, float]:
    """The float64 vector and its norm. Raises what cosine_sim raises when it
    scores the vector against one of dimension dim (of its own, if None)."""
    vec = np.asarray(embedding, dtype=np.float64)
    if vec.ndim != 1 or (dim is not None and vec.shape[0] != dim):
        raise DimensionMismatchError(f"vector shapes differ: {vec.shape} vs ({dim},)")
    # What np.linalg.norm computes for a 1-D float64 vector, without its
    # dispatch: sqrt of the vector's dot product with itself. A dot product
    # that overflows gives an infinite norm, which the screen cannot bound,
    # so every cosine against the vector is verified exactly.
    with np.errstate(over="ignore"):
        norm = math.sqrt(float(vec.dot(vec)))
    if norm == 0.0:
        raise ZeroVectorError("cosine similarity is undefined for zero vectors")
    return vec, norm


def _boundable(norms):
    """Whether the screen bounds cosines at each of norms (a float or an array)."""
    low, high = _SCREENABLE_NORMS
    return (low <= norms) & (norms <= high)


def _unit(vec: np.ndarray, norm: float) -> Optional[np.ndarray]:
    """fl32(vec / norm), the vector as the screen reads it; None where the
    screen cannot bound its cosines."""
    return (vec / norm).astype(np.float32) if _boundable(norm) else None


def _screen_margin(dim: int) -> float:
    """How far the float32 screen of dim-dimensional rows may sit from cosine_sim.

    With u = 2**-24, float32's unit roundoff, and a, b the exact unit
    vectors of a row and a query:
    - each cast fl32(v / |v|) moves a component by at most u relative (the
      float64 norm and division add a few 2**-53), so the exact dot product
      of the two float32 vectors sits within 2u + u**2 of sum(a_i * b_i),
      as sum(|a_i * b_i|) <= 1 (Cauchy-Schwarz);
    - float32 products and sums, in any order, move each of the dim terms
      by at most (1 + u)**dim - 1 <= dim*u + (dim*u)**2 / 2 relative (for
      dim*u <= 1/64), and the terms' magnitudes sum to at most (1 + u)**2;
    - a component that underflows in float32 moves a cosine by at most
      2**-149 per component, and cosine_sim's own float64 rounding is about
      (2*dim + 4) * 2**-53: both are far below u.
    That sums to less than (dim + 2) * u + (dim*u)**2 plus a fraction of u,
    so (dim + 4) * u + (dim*u)**2 bounds it with u to spare.
    """
    u = 2.0**-24
    return (dim + 4) * u + (dim * u) ** 2


@dataclass(frozen=True)
class PreparedQuery:
    """A query as the index scores it: float64 vector and norm, token set and
    ids, and the float32 unit vector the screen reads.

    token_ids are the ids of the tokens in the index's vocabulary, which a
    fork shares with its owner; a query token outside it counts in
    len(tokens) and matches no row, and so does one the owner interned
    after the fork, whose postings lie past the fork's rows. unit is None when
    the norm lies outside _SCREENABLE_NORMS.
    """

    vector: np.ndarray
    norm: float
    tokens: frozenset[str]
    token_ids: frozenset[int]
    unit: Optional[np.ndarray]


def _capacity(have: int, needed: int) -> int:
    """have, grown by half from at least _INITIAL_ROWS until it holds `needed`."""
    capacity = max(have, _INITIAL_ROWS)
    while capacity < needed:
        capacity += capacity // 2
    return capacity


def _grown(buf: np.ndarray, used: int, capacity: int) -> np.ndarray:
    """buf's first `used` entries in a new buffer of `capacity` entries."""
    grown = np.empty((capacity,) + buf.shape[1:], dtype=buf.dtype)
    grown[:used] = buf[:used]
    return grown


class ScoringIndex:
    """Append-only columnar copy of what scoring reads from each object.

    Row i describes the i-th object stored in a graph: its embedding in a
    contiguous float64 (n, d) matrix that grows by half, the row norm, the
    embedding as a float32 unit vector fl32(vec / norm) in a second (n, d)
    matrix, its turn, and its tokens. Tokens are interned to integer ids.
    The content tokens (for Jaccard links) are a list of ids per row, and
    their counts a float64 size column. Both token sets also have posting
    lists, appended to as rows arrive: for each token id, the rows whose
    content holds it (for Jaccard) and the rows whose content or quote
    holds it (for keyword coverage), in row order.

    A row is written in one pass: one capacity check grows every
    row-aligned column together (the turns, content sizes and, once the
    first vector fixes d, the matrices and norms), then each column gets a
    scalar store and each token is interned once, into the row's content
    ids and the posting lists. A batch of rows is the same rows appended
    one by one.

    cosines_from() and top_hybrids() are what callers score with: each
    screens every row at once and verifies only the rows that can pass.
    cosines() and hybrids() are the screen: one float32 product of the unit
    rows with the query's unit vector, within `margin` (derived from d by
    _screen_margin) of cosine_sim, and +inf at a row whose cosine it cannot
    bound (the row's or the query's norm outside _SCREENABLE_NORMS);
    exact_cosines() and exact_hybrids() verify the rows listed, in one
    call, bit-identical to cosine_sim and hybrid_score from the float64
    matrix and norms. The token kernels are exact, and both join posting
    lists (ScanCount): row_jaccards() counts each row's hits in the content
    posting lists of a row's ids, coverage() in the
    content-plus-quote posting lists of the query's ids, so they read only
    the rows sharing a token with the set. They divide those integer counts
    by sizes that are exact integers, as token_jaccard and token_coverage
    do, so they are the same float64 to the last bit. A row cosine_sim
    could not score (no embedding, not a 1-D vector of the index's
    dimension, a zero norm) is a fault: storing it never raises, but once the index holds one,
    prepare() and prepare_row() raise the first fault's typed error.

    The index also holds the graph's shape: each row's id in an id -> row
    map, and each row's adjacency: the rows an edge joins to it, one per
    edge and in edge order, beside the numbers of those edges. adjacent()
    reads one row's list, so the retrieval walk and CanvasGraph.neighbors()
    read only the edges of the rows they visit; incident() reads the edge
    numbers, so CanvasGraph.add_edges() finds a duplicate among the edges
    of its destination's row alone. These work whether or not the
    embeddings can be screened.

    fork() returns a read-only index (read_only is True; a write raises
    ReadOnlyGraphError) sharing every column, the content id rows, both
    kinds of posting list, the adjacency lists, the token table and the id
    map: the owner keeps appending in place past them, and the fork reads
    only up to its own row count, edge count and vocabulary size (rows the
    owner later added to a posting list are cut off the fork's counts, and
    neighbours it later added to a row's adjacency off the fork's edge
    count).
    """

    def __init__(self):
        self._rows = 0
        self.read_only = False
        self._fault: Optional[Exception] = None
        self._unbounded = 0
        self._matrix: Optional[np.ndarray] = None
        self._norms = np.empty(0)
        self._units = np.empty((0, 0), dtype=np.float32)
        # How far cosines() may sit from cosine_sim: _screen_margin(d), set
        # with the matrix.
        self.margin = 0.0
        self._turns = np.empty(0, dtype=np.int64)
        # Row i's content token ids, and their count as a float64 (exact
        # below 2**53), so that row_jaccards() divides without converting.
        self._content_rows: list[list[int]] = []
        self._sizes = np.empty(0)
        self._content_postings: defaultdict[int, list[int]] = defaultdict(list)
        self._postings: defaultdict[int, list[int]] = defaultdict(list)
        self._vocab: dict[str, int] = {}
        self._row_of: dict[str, int] = {}
        self._edges = 0
        # Row i's neighbour rows, one per edge joining it, and the numbers
        # of those edges, both in edge order.
        self._adjacent: list[list[int]] = []
        self._edge_numbers: list[list[int]] = []

    def __len__(self) -> int:
        return self._rows

    @property
    def edge_count(self) -> int:
        return self._edges

    def extend(
        self,
        objects: Sequence[CanvasObject],
        vectors: Optional[Sequence[tuple[np.ndarray, float]]] = None,
    ) -> None:
        """Add a row for each object. vectors, when given, holds what
        check_vectors() returned for the objects' embeddings, and each row
        takes its (vector, norm) pair from there instead of converting its
        embedding again.

        Tokenizing stops at every non-word character, so the tokens of
        document_text(obj) are those of the content and of the quote: each
        object's content is tokenized once, and its quote only when it
        differs from the content.
        """
        self._reserve(self._rows + len(objects))
        for position, obj in enumerate(objects):
            content = token_set(obj.content)
            document = content if obj.quote == obj.content else content | token_set(obj.quote)
            vector = (self._converted(obj.embedding, obj.id) if vectors is None
                      else vectors[position])
            self._append_row(vector, content, document, obj.turn, obj.id)

    def extend_edges(self, edges: Sequence[CanvasEdge]) -> None:
        """Join the src and dst row of each edge in both rows' adjacency;
        both ends must be rows already."""
        if self.read_only:
            raise ReadOnlyGraphError("a forked scoring index is read-only")
        adjacent, numbers, row_of = self._adjacent, self._edge_numbers, self._row_of
        number = self._edges
        for edge in edges:
            src, dst = row_of[edge.src], row_of[edge.dst]
            # Each edge number goes in before its neighbour, so a fork that
            # reads these lists while they grow finds every neighbour it
            # counts (see adjacent()).
            numbers[src].append(number)
            adjacent[src].append(dst)
            numbers[dst].append(number)
            adjacent[dst].append(src)
            number += 1
            self._edges = number

    def append_vector(
        self,
        embedding,
        content_tokens: frozenset[str] = frozenset(),
        document_tokens: frozenset[str] = frozenset(),
        turn: int = 0,
    ) -> None:
        """Add a row without an id: the embedding, the Jaccard tokens, the
        coverage tokens, the turn."""
        self._reserve(self._rows + 1)
        vector = self._converted(embedding, str(self._rows))
        self._append_row(vector, content_tokens, document_tokens, turn, None)

    def _reserve(self, needed: int) -> None:
        """Grow every row-aligned column together until it holds `needed` rows."""
        if self.read_only:
            raise ReadOnlyGraphError("a forked scoring index is read-only")
        have = len(self._turns)
        if needed <= have:
            return
        capacity, used = _capacity(have, needed), self._rows
        self._turns = _grown(self._turns, used, capacity)
        self._sizes = _grown(self._sizes, used, capacity)
        if self._matrix is not None:
            self._matrix = _grown(self._matrix, used, capacity)
            self._norms = _grown(self._norms, used, capacity)
            self._units = _grown(self._units, used, capacity)

    def _converted(self, embedding, label: str) -> Optional[tuple[np.ndarray, float]]:
        """_vector of the embedding of the next row (label names it in an
        error), or None when cosine_sim could not score it: the index then
        keeps the first such error as its fault."""
        try:
            if embedding is None:
                raise MissingEmbeddingError(f"stored object {label} has no embedding")
            return _vector(embedding, self._dim())
        except (CanvasError, TypeError, ValueError) as fault:
            if self._fault is None:
                self._fault = fault
            return None

    def _append_row(self, vector, content, document, turn: int, oid: Optional[str]) -> None:
        """Write row self._rows, which _reserve() has made room for: vector
        is the row's float64 vector and norm, or None for a fault; content
        holds the Jaccard tokens, document the coverage tokens (content
        itself when the quote adds none)."""
        row = self._rows
        self._turns[row] = min(turn, _TURN_CAP)
        if vector is not None:
            vec, norm = vector
            if self._matrix is None:
                # Every earlier row is a fault, which is never read.
                dim, capacity = vec.shape[0], len(self._turns)
                self._matrix = np.empty((capacity, dim))
                self._norms = np.empty(capacity)
                self._units = np.empty((capacity, dim), dtype=np.float32)
                self.margin = _screen_margin(dim)
            self._matrix[row] = vec
            self._norms[row] = norm
            if _boundable(norm):
                self._units[row] = vec / norm  # the float32 cast rounds as astype does
            else:
                self._unbounded += 1  # cosines() never reads its unit row
        vocab, postings, content_postings = self._vocab, self._postings, self._content_postings
        token_ids = [vocab.setdefault(tok, len(vocab)) for tok in content]
        self._content_rows.append(token_ids)
        self._sizes[row] = len(token_ids)
        for token_id in token_ids:
            content_postings[token_id].append(row)
        if document is content:
            for token_id in token_ids:
                postings[token_id].append(row)
        else:
            for tok in document:
                postings[vocab.setdefault(tok, len(vocab))].append(row)
        self._adjacent.append([])
        self._edge_numbers.append([])
        if oid is not None:
            self._row_of[oid] = row
        self._rows = row + 1

    def fork(self) -> "ScoringIndex":
        """A read-only index of this one's rows and edges as they stand now."""
        twin = ScoringIndex.__new__(ScoringIndex)
        twin.__dict__.update(self.__dict__)
        twin.read_only = True
        return twin

    def row_of(self, oid: str) -> Optional[int]:
        """The row of the object with id oid, or None if the index has no such row."""
        row = self._row_of.get(oid)
        return row if row is not None and row < self._rows else None

    def rows_of(self, oids: Sequence[str]) -> list[Optional[int]]:
        """row_of of each id, in one call."""
        n, get = self._rows, self._row_of.get
        return [row if (row := get(oid)) is not None and row < n else None for oid in oids]

    def adjacent(self, row: int) -> list[int]:
        """The rows an edge joins to row, one per edge, in edge order.

        A fork shares the list with its owner, which may append edges past
        the fork's own while it reads, each edge's number before its
        neighbour. The numbers are read first and the neighbours cut to
        them (see _incident_count), so every neighbour read comes from one
        of this index's edges.
        """
        return self._adjacent[row][:self._incident_count(row)]

    def incident(self, row: int) -> list[int]:
        """The numbers of the edges that join row to another, in edge order:
        edge n is the graph's n-th edge, whichever end of it row is."""
        return self._edge_numbers[row][:self._incident_count(row)]

    def _incident_count(self, row: int) -> int:
        """How many of row's edges are this index's: the length of its list
        of edge numbers, cut with a bisect when the last number is past
        this index's edge count (an edge the owner added after a fork)."""
        numbers = self._edge_numbers[row]
        count = len(numbers)
        if count and numbers[count - 1] >= self._edges:
            count = bisect_left(numbers, self._edges, 0, count)
        return count

    def _dim(self) -> Optional[int]:
        return None if self._matrix is None else self._matrix.shape[1]

    def check_vectors(self, embeddings: Sequence) -> list[tuple[np.ndarray, float]]:
        """The float64 vector and norm of each embedding, as a row of it,
        appended in turn, would hold them: the first one fixes the
        dimension when the index holds no vector yet. Raises the error such
        a row would hold as a fault (DimensionMismatchError,
        ZeroVectorError), so that a caller can refuse the embeddings before
        it stores anything, and can hand each pair to extend() once it has
        stored the object, so that the row converts nothing again."""
        dim = self._dim()
        checked = []
        for embedding in embeddings:
            vector = _vector(embedding, dim)
            dim = vector[0].shape[0]
            checked.append(vector)
        return checked

    def _raise_fault(self) -> None:
        """Raise the typed error of the first stored row cosine_sim could not score."""
        if self._fault is not None:
            raise type(self._fault)(*self._fault.args)

    def prepare(self, embedding: Sequence[float], text: str = "") -> PreparedQuery:
        """The query ready to score against every row.

        Raises the error cosine_sim raises on the first stored fault, else
        on the query vector: MissingEmbeddingError, DimensionMismatchError
        or ZeroVectorError.
        """
        self._raise_fault()
        vec, norm = _vector(embedding, self._dim())
        tokens = token_set(text)
        return PreparedQuery(vec, norm, tokens, frozenset(self._known_ids(tokens)),
                             _unit(vec, norm))

    def prepare_row(self, row: int) -> PreparedQuery:
        """Row's own vectors and norm as a query without tokens: the values
        prepare() makes of the row's embedding, without converting it
        again. Raises the first stored fault's error, as prepare() does."""
        self._raise_fault()
        norm = float(self._norms[row])
        unit = self._units[row] if _boundable(norm) else None
        return PreparedQuery(self._matrix[row], norm, frozenset(), frozenset(), unit)

    def _known_ids(self, tokens: frozenset[str]) -> list[int]:
        return [i for i in map(self._vocab.get, tokens) if i is not None]

    def _joined_counts(self, postings: dict[int, list[int]], token_ids) -> np.ndarray:
        """How many of the posting lists of token_ids (distinct ids) hold
        each row. The owner may have appended rows past this index's own to
        those lists; the [:n] cut drops them. That covers a token the owner
        interned after a fork, too: its lists hold only rows past the fork's."""
        hits: list[int] = []
        for token_id in token_ids:
            hits += postings.get(token_id, ())
        return np.bincount(np.array(hits, dtype=np.intp), minlength=self._rows)[:self._rows]

    def row_jaccards(self, row: int) -> np.ndarray:
        """Jaccard of every row's content tokens and row's own, to the last
        bit: integer counts from the content posting lists of row's interned
        ids, over integer sizes."""
        token_ids = self._content_rows[row]
        n = self._rows
        if not token_ids:
            return np.zeros(n)
        shared = self._joined_counts(self._content_postings, token_ids)
        # Integers below 2**53 add exactly in float64 and divide to the
        # float64 that Python's int / int gives.
        return shared / (self._sizes[:n] + (len(token_ids) - shared))

    def turn_window(self, turn: int, window: int) -> np.ndarray:
        """Mask of the rows whose turn lies at most `window` turns before `turn`.

        Turns past _TURN_CAP are stored as _TURN_CAP, which can only add rows
        to the mask; the caller checks each row's exact turn.
        """
        turn = min(turn, _TURN_CAP)
        turns = self._turns[:self._rows]
        return (turns <= turn) & (turns >= turn - window)

    def cosines(self, query: PreparedQuery) -> np.ndarray:
        """Screened cosine of every row against query, within `margin` of
        cosine_sim, or +inf where either norm lies outside _SCREENABLE_NORMS:
        one float32 product of the unit rows with the query's unit vector."""
        n = self._rows
        if not n or query.unit is None:
            return np.full(n, np.inf)
        units = self._units[:n]
        if not self._unbounded:
            return units @ query.unit
        bounded = _boundable(self._norms[:n])
        approx = np.full(n, np.inf)
        approx[bounded] = units[bounded] @ query.unit
        return approx

    def _bounds_every_row(self, query: PreparedQuery) -> bool:
        """Whether cosines(query) holds no +inf."""
        return not self._unbounded and query.unit is not None

    def cosines_from(self, query: PreparedQuery, floor: float, skip: int) -> dict[int, float]:
        """Each row whose cosine may reach floor, row skip aside, with its
        exact cosine (cosine_sim to the last bit). Every other row's cosine
        is below floor."""
        # A float32 screen compares with floor - margin rounded to float32;
        # rounding is monotone, so every row at or above the float64 cut passes.
        passed = self.cosines(query) >= floor - self.margin
        passed[skip] = False
        rows = passed.nonzero()[0]
        if not rows.size:
            return {}  # most links pass nothing: skip the verify
        return dict(zip(rows.tolist(), self.exact_cosines(query, rows).tolist()))

    def coverage(self, query: PreparedQuery) -> np.ndarray:
        """token_coverage of the query's tokens in every row's content and
        quote, to the last bit: integer counts over an integer size.

        A row's count is how many of the query's posting lists hold it."""
        if not query.tokens:
            return np.zeros(self._rows)
        return self._joined_counts(self._postings, query.token_ids) / len(query.tokens)

    def hybrids(
        self, query: PreparedQuery, alpha: float, keyword: np.ndarray
    ) -> np.ndarray:
        """Screened hybrid_score of every row, within `margin` of the exact
        one, +inf where the cosine is; keyword is the exact weighted keyword
        half, (1 - alpha) * coverage() of every row. The blend runs in
        float64, so it adds no float32 rounding to the screened cosine's."""
        cosines = self.cosines(query)
        # np.clip's Python wrapper costs more than the clamp on small graphs.
        semantic = np.minimum(np.maximum(cosines, 0.0), 1.0).astype(np.float64)
        approx = alpha * semantic + keyword
        if not self._bounds_every_row(query):
            approx[cosines == np.inf] = np.inf
        return approx

    def top_hybrids(
        self, query: PreparedQuery, alpha: float, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The rows that may hold the k best hybrid scores, in row order, and
        their exact hybrid_score, to the last bit.

        Screened scores sit within `margin` of the exact ones, so every
        exact top-k row lies within 2 * margin of the k-th best
        screened score among the rows the screen bounds; the band is those
        rows and every row it cannot bound (every row, when k or fewer are
        bounded). The weighted keyword half is computed once, for both passes.
        """
        keyword = (1.0 - alpha) * self.coverage(query)
        approx = self.hybrids(query, alpha, keyword)
        bounded = approx if self._bounds_every_row(query) else approx[approx < np.inf]
        cut = len(bounded) - k
        kth = np.partition(bounded, cut)[cut] if cut > 0 else -np.inf
        band = np.flatnonzero(approx >= kth - 2 * self.margin)
        return band, self.exact_hybrids(query, band, alpha, keyword)

    def exact_cosines(self, query: PreparedQuery, rows: np.ndarray) -> np.ndarray:
        """cosine_sim of the query and each listed row's embedding, to the last bit.

        The same float64 values and the same operations as cosine_sim: one
        dot product per row, each divided by the product of the two norms.
        The products are one matmul of the rows, stacked as 1 x d matrices,
        with the query as a d x 1 column: numpy computes each 1 x 1 result
        with the vector dot kernel np.dot runs on two 1-D vectors, where a
        plain matrix-vector product may sum in another order.
        """
        stacked = self._matrix.take(rows, axis=0)[:, None, :]
        dots = np.matmul(stacked, query.vector[:, None])[:, 0, 0]
        return dots / (query.norm * self._norms.take(rows))

    def exact_hybrids(
        self,
        query: PreparedQuery,
        rows: np.ndarray,
        alpha: float,
        keyword: np.ndarray,
    ) -> np.ndarray:
        """hybrid_score of the query and each listed row's object, to the last bit.

        The cosine is clamped as min(1.0, max(0.0, cosine)) is, and blended
        as hybrid_score blends it, one float64 array operation at a time;
        the keyword half is keyword, (1 - alpha) * coverage() of every row,
        at those rows.
        """
        cos = self.exact_cosines(query, rows)
        # fmax turns a NaN cosine (an overflowed dot product over an infinite
        # norm product) into 0.0, as max(0.0, nan) does; np.maximum keeps it.
        semantic = np.fmin(np.fmax(cos, 0.0), 1.0)
        return alpha * semantic + keyword[rows]


@lru_cache(maxsize=1 << 12)
def _token_hash(token: str) -> int:
    """The first four bytes of the token's md5, big-endian. A conversation's
    texts share most of their tokens, and an md5 costs several times the
    cache lookup; 4096 tokens (about 0.7 MB) hold a long conversation's
    vocabulary."""
    return int.from_bytes(hashlib.md5(token.encode("utf-8")).digest()[:4], "big")


class MockEmbedder:
    """Deterministic offline embedder: a hashed bag-of-words vector.

    Every token is hashed into one of `dimension` buckets and counted; the
    vector is then L2-normalized. Hash collisions are acceptable, the point
    is determinism across runs and processes.
    """

    def __init__(self, dimension: int = MOCK_EMBEDDING_DIM):
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = dimension

    def embed(self, text: str) -> list[float]:
        counts: dict[int, float] = {}
        for token in tokenize(text):
            bucket = _token_hash(token) % self.dimension
            counts[bucket] = counts.get(bucket, 0.0) + 1.0
        vec = [0.0] * self.dimension
        if not counts:
            # Tokenless input still gets a unit vector so cosine stays defined.
            vec[0] = 1.0
            return vec
        # The sum over the buckets in index order, as over the whole vector:
        # the empty buckets add 0.0, which changes no sum.
        norm = math.sqrt(sum([counts[bucket] * counts[bucket] for bucket in sorted(counts)]))
        for bucket, count in counts.items():
            vec[bucket] = count / norm  # an empty bucket's 0.0 / norm is 0.0
        return vec
