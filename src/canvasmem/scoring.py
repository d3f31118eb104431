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
posting lists: the rows whose content holds it and the rows whose quote
holds it but whose content does not, so each row is posted once per
token. A new row is written in one pass, a scalar store per
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
value. The screen bounds every row and every query: a vector is taken
only with a norm in SCREENABLE_NORMS, computed by vector_norm, the one
norm computation that CanvasObject's constructor runs as well. Every
stored row can be scored: the graph stores only an embedding of its first
row's length, with a norm in that range. A row or query vector the index
cannot score (another dimension, a norm outside the range) raises its
typed error before anything is written or scored. There is no other
scoring path.

The token half needs no screen. Both token kernels join posting lists
and count each row's hits with one np.bincount (ScanCount): Jaccard joins
the content posting lists of a row's token ids, coverage both posting
lists of the query's ids, so each reads only the
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

from .errors import DimensionMismatchError, ReadOnlyGraphError, ZeroVectorError

if TYPE_CHECKING:
    from .core import CanvasEdge, CanvasObject

DEFAULT_ALPHA = 0.7
MOCK_EMBEDDING_DIM = 256

# The norms of the vectors a graph holds and the index scores: within this
# range the float64 norm is accurate to a few ulps, and no product in
# cosine_sim overflows or underflows by enough to move a cosine past the
# screen's margin (see _screen_margin).
SCREENABLE_NORMS = (1e-150, 1e150)
_INITIAL_ROWS = 64

_TOKEN_RE = re.compile(r"[a-z0-9]+")


@runtime_checkable
class EmbedderBackend(Protocol):
    """Anything that maps text to a fixed-dimension embedding vector."""

    def embed(self, text: str) -> list[float]:
        ...


def read_asset(name: str) -> str:
    """The text of the package asset at assets/name: every asset the
    package reads (stopwords, query indicators, prompts) is read here."""
    return resources.files("canvasmem").joinpath(f"assets/{name}").read_text(encoding="utf-8")


@lru_cache(maxsize=1)
def stopwords() -> frozenset[str]:
    """The fixed stopword list used for keyword scoring and lexical edges."""
    return frozenset(w.strip() for w in read_asset("stopwords.txt").split() if w.strip())


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


def vector_norm(vec: np.ndarray) -> float:
    """The norm of a 1-D float64 vector, as np.linalg.norm computes it but
    without its dispatch: sqrt of the vector's dot product with itself.

    A dot product that overflows is inf (numpy warns; where a warning filter
    raises that warning, it reads as inf too), which SCREENABLE_NORMS
    refuses. The floating-point error state is left as it is: setting it
    around the dot product would cost more than the product of a 256-d
    vector.
    """
    try:
        return math.sqrt(float(vec.dot(vec)))
    except RuntimeWarning:
        return math.inf


def _vector(embedding, dim: Optional[int]) -> tuple[np.ndarray, float]:
    """The float64 vector and its norm. Raises DimensionMismatchError if it is
    not 1-D of dimension dim (of its own, if None), and ZeroVectorError if
    its norm lies outside SCREENABLE_NORMS. A stored object's embedding, a
    float64 array, is viewed, not copied."""
    vec = np.asarray(embedding, dtype=np.float64)
    if vec.ndim != 1 or (dim is not None and vec.shape[0] != dim):
        raise DimensionMismatchError(f"vector shapes differ: {vec.shape} vs ({dim},)")
    norm = vector_norm(vec)
    low, high = SCREENABLE_NORMS
    if not low <= norm <= high:
        raise ZeroVectorError(
            "cosine similarity is undefined for zero vectors" if norm == 0.0
            else f"vector norm must lie in [{low!r}, {high!r}], got {norm!r}")
    return vec, norm


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
    after the fork, whose postings lie past the fork's rows. unit is
    fl32(vector / norm); the norm lies in SCREENABLE_NORMS, so the screen
    bounds every cosine it reads.
    """

    vector: np.ndarray
    norm: float
    tokens: frozenset[str]
    token_ids: frozenset[int]
    unit: np.ndarray


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
    their counts a float64 size column. Each row is posted once per token,
    as rows arrive and in row order: for each token id, the rows whose
    content holds it (for Jaccard and keyword coverage), and the rows whose
    quote holds it but whose content does not (for keyword coverage alone;
    empty while every quote is its content).

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
    _screen_margin) of cosine_sim at every row, since every row's and every
    query's norm lies in SCREENABLE_NORMS;
    exact_cosines() and exact_hybrids() verify the rows listed, in one
    call, bit-identical to cosine_sim and hybrid_score from the float64
    matrix and norms. The token kernels are exact, and both join posting
    lists (ScanCount): row_jaccards() counts each row's hits in the content
    posting lists of a row's ids, coverage() in both posting lists of the
    query's ids, so they read only
    the rows sharing a token with the set. They divide those integer counts
    by sizes that are exact integers, as token_jaccard and token_coverage
    do, so they are the same float64 to the last bit. A vector the index
    cannot score (not a 1-D vector of the index's dimension, a norm outside
    SCREENABLE_NORMS) raises its typed error when it is prepared as a
    query, or before a row of it is written.

    The index also holds the graph's shape: each row's id in an id -> row
    map, and each row's adjacency: the rows an edge joins to it, one per
    edge and in edge order, beside the numbers of those edges. adjacent()
    reads one row's list, so the retrieval walk and CanvasGraph.neighbors()
    read only the edges of the rows they visit; incident() reads the edge
    numbers, so CanvasGraph.add_edges() finds a duplicate among the edges
    of its destination's row alone.

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
        self._quote_postings: defaultdict[int, list[int]] = defaultdict(list)
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

    def extend(self, objects: Sequence[CanvasObject]) -> None:
        """Add a row for each object, its embedding converted once. This is
        the one writer of a stored object's row: CanvasGraph.scoring_index()
        calls it to catch up with the graph's rows.

        Tokenizing stops at every non-word character, so the tokens of
        document_text(obj) are those of the content and of the quote: each
        object's content is tokenized once, and its quote only when it
        differs from the content.
        """
        self._reserve(self._rows + len(objects))
        for obj in objects:
            content = token_set(obj.content)
            quote_only = () if obj.quote == obj.content else token_set(obj.quote) - content
            self._append_row(_vector(obj.embedding, self._dim()), content, quote_only, obj.turn,
                             obj.id)

    def extend_edges(self, edges: Sequence[CanvasEdge]) -> None:
        """Join the src and dst row of each edge in both rows' adjacency;
        both ends must be rows already.

        Every edge's rows are looked up before any list grows, so an end
        that is not a row raises KeyError with nothing added, and the edge
        count is stored once, after the last edge."""
        if self.read_only:
            raise ReadOnlyGraphError("a forked scoring index is read-only")
        row_of = self._row_of
        srcs = [row_of[edge.src] for edge in edges]
        dsts = [row_of[edge.dst] for edge in edges]
        adjacent, numbers = self._adjacent, self._edge_numbers
        number = self._edges
        for src, dst in zip(srcs, dsts):
            # Each edge number goes in before its neighbour, so a fork that
            # reads these lists while they grow finds every neighbour it
            # counts (see adjacent()).
            numbers[src].append(number)
            adjacent[src].append(dst)
            numbers[dst].append(number)
            adjacent[dst].append(src)
            number += 1
        self._edges = number

    def append_vectors(self, embeddings: Sequence) -> None:
        """Add a row without an id or tokens, at turn 0, for each embedding,
        all of them or none: every embedding is converted before any row is
        written, so one the index cannot score raises its typed error
        (DimensionMismatchError, ZeroVectorError) with nothing written."""
        self._reserve(self._rows + len(embeddings))
        dim, vectors = self._dim(), []
        for embedding in embeddings:
            vector = _vector(embedding, dim)
            dim = vector[0].shape[0]
            vectors.append(vector)
        for vector in vectors:
            self._append_row(vector, (), (), 0, None)

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

    def _append_row(self, vector, content, quote_only, turn: int, oid: Optional[str]) -> None:
        """Write row self._rows, which _reserve() has made room for: vector
        is the row's float64 vector and norm, content holds the content
        tokens, quote_only the quote's tokens the content lacks."""
        row = self._rows
        self._turns[row] = turn
        vec, norm = vector
        if self._matrix is None:  # the first row fixes the dimension
            dim, capacity = vec.shape[0], len(self._turns)
            self._matrix = np.empty((capacity, dim))
            self._norms = np.empty(capacity)
            self._units = np.empty((capacity, dim), dtype=np.float32)
            self.margin = _screen_margin(dim)
        self._matrix[row] = vec
        self._norms[row] = norm
        self._units[row] = vec / norm  # the float32 cast rounds as astype does
        vocab, content_postings = self._vocab, self._content_postings
        token_ids = [vocab.setdefault(tok, len(vocab)) for tok in content]
        self._content_rows.append(token_ids)
        self._sizes[row] = len(token_ids)
        for token_id in token_ids:
            content_postings[token_id].append(row)
        for tok in quote_only:
            self._quote_postings[vocab.setdefault(tok, len(vocab))].append(row)
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

    def prepare(self, embedding: Sequence[float], text: str = "") -> PreparedQuery:
        """The query ready to score against every row.

        Raises DimensionMismatchError for a query vector of another
        dimension than the stored rows', and ZeroVectorError for one whose
        norm lies outside SCREENABLE_NORMS.
        """
        vec, norm = _vector(embedding, self._dim())
        tokens = token_set(text)
        return PreparedQuery(vec, norm, tokens, frozenset(self._known_ids(tokens)),
                             (vec / norm).astype(np.float32))

    def prepare_row(self, row: int) -> PreparedQuery:
        """Row's own vectors and norm as a query without tokens: the values
        prepare() makes of the row's embedding, without converting it
        again."""
        return PreparedQuery(self._matrix[row], float(self._norms[row]), frozenset(),
                             frozenset(), self._units[row])

    def _known_ids(self, tokens: frozenset[str]) -> list[int]:
        return [i for i in map(self._vocab.get, tokens) if i is not None]

    def _joined_counts(self, token_ids, *postings: dict[int, list[int]]) -> np.ndarray:
        """How many of the posting lists of token_ids (distinct ids), in
        every map of postings, hold each row. The owner may have appended
        rows past this index's own to those lists; the [:n] cut drops them.
        That covers a token the owner interned after a fork, too: its lists
        hold only rows past the fork's."""
        hits: list[int] = []
        for token_id in token_ids:
            for lists in postings:
                hits += lists.get(token_id, ())
        return np.bincount(np.array(hits, dtype=np.intp), minlength=self._rows)[:self._rows]

    def row_jaccards(self, row: int) -> np.ndarray:
        """Jaccard of every row's content tokens and row's own, to the last
        bit: integer counts from the content posting lists of row's interned
        ids, over integer sizes."""
        token_ids = self._content_rows[row]
        n = self._rows
        if not token_ids:
            return np.zeros(n)
        shared = self._joined_counts(token_ids, self._content_postings)
        # Integers below 2**53 add exactly in float64 and divide to the
        # float64 that Python's int / int gives.
        return shared / (self._sizes[:n] + (len(token_ids) - shared))

    def turn_window(self, turn: int, window: int) -> np.ndarray:
        """Mask of the rows whose turn lies at most `window` turns before
        `turn`. A turn lies below 2**63, so the int64 column holds it as it is."""
        turns = self._turns[:self._rows]
        return (turns <= turn) & (turns >= turn - window)

    def cosines(self, query: PreparedQuery) -> np.ndarray:
        """Screened cosine of every row against query, within `margin` of
        cosine_sim: one float32 product of the unit rows with the query's
        unit vector."""
        return self._units[:self._rows] @ query.unit

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

        A row's count is how many of the query's content and quote-only
        posting lists hold it. A row's content tokens and its quote-only
        tokens are disjoint, so it counts each query token once."""
        if not query.tokens:
            return np.zeros(self._rows)
        return self._joined_counts(query.token_ids, self._content_postings,
                                   self._quote_postings) / len(query.tokens)

    def hybrids(
        self, query: PreparedQuery, alpha: float, keyword: np.ndarray
    ) -> np.ndarray:
        """Screened hybrid_score of every row, within `margin` of the exact
        one; keyword is the exact weighted keyword half, (1 - alpha) *
        coverage() of every row. The blend runs in float64, so it adds no
        float32 rounding to the screened cosine's."""
        # np.clip's Python wrapper costs more than the clamp on small graphs.
        semantic = np.minimum(np.maximum(self.cosines(query), 0.0), 1.0).astype(np.float64)
        return alpha * semantic + keyword

    def top_hybrids(
        self, query: PreparedQuery, alpha: float, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The rows that may hold the k best hybrid scores, in row order, and
        their exact hybrid_score, to the last bit.

        Screened scores sit within `margin` of the exact ones, so every
        exact top-k row lies within 2 * margin of the k-th best screened
        score; the band is those rows (every row, when there are k or
        fewer). The weighted keyword half is computed once, for both passes.
        """
        keyword = (1.0 - alpha) * self.coverage(query)
        approx = self.hybrids(query, alpha, keyword)
        cut = len(approx) - k
        kth = np.partition(approx, cut)[cut] if cut > 0 else -np.inf
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
        # Every norm lies in SCREENABLE_NORMS, so no dot product overflows to
        # a NaN cosine; fmax would turn one into 0.0, as max(0.0, nan) does.
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
