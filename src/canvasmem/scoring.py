"""Relevance scoring: cosine similarity, lexical overlap, and the hybrid blend.

The hybrid score is alpha * clamped_cosine + (1 - alpha) * keyword_score.
Keyword score measures query coverage: the fraction of the query's
content-bearing tokens that also appear in the object's content or quote.
Stopwords come from a fixed 50-word list shipped as a package asset.

Scoring a graph is screen-then-verify. A ScoringIndex holds every stored
embedding in one float64 matrix with its row norms and cached token sets,
so a single matrix-vector product gives an approximate cosine of each
object against a query prepared once (its float64 vector, norm and token
set). Callers keep only the objects whose approximate score could pass
their cut within SCREEN_MARGIN and verify those from the index:
exact_cosine and exact_hybrid run the operations of cosine_sim and
hybrid_score, in the same order, on the same float64 values, so every
stored edge weight and every ranked score is bit-identical to the scalar
value. The scalar functions stay the public API, the fallback for an index
that cannot screen (which raises their typed errors), and the oracle.
"""

from __future__ import annotations

import hashlib
import math
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import TYPE_CHECKING, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from .errors import DimensionMismatchError, MissingEmbeddingError, ZeroVectorError

if TYPE_CHECKING:
    from .core import CanvasObject

DEFAULT_ALPHA = 0.7
MOCK_EMBEDDING_DIM = 256

# How far a screened score may sit below a cut and still be verified. The
# matrix-vector cosine differs from cosine_sim by rounding only, about
# d * 1e-16 for d-dimensional embeddings, so this leaves a wide berth.
SCREEN_MARGIN = 1e-9
# Vectors with a norm outside this range are not screened: within it no
# product overflows and underflow cannot move a cosine by SCREEN_MARGIN.
_SCREENABLE_NORMS = (1e-150, 1e150)
_INITIAL_ROWS = 64

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


@dataclass
class HybridWeights:
    """Blend weight for the hybrid score; alpha weights the semantic half."""

    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")


def cosine_sim(a: Sequence[float], b: Sequence[float]) -> float:
    """Cosine similarity of two equal-length vectors.

    Raises DimensionMismatchError on length disagreement and ZeroVectorError
    when either vector has zero magnitude.
    """
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.shape != vb.shape or va.ndim != 1:
        raise DimensionMismatchError(f"vector shapes differ: {va.shape} vs {vb.shape}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise ZeroVectorError("cosine similarity is undefined for zero vectors")
    return float(np.dot(va, vb) / (na * nb))


def token_set(text: str) -> frozenset[str]:
    """The distinct content tokens of a text, interned (an index holds many)."""
    return frozenset(map(sys.intern, content_tokens(text)))


def document_text(obj: CanvasObject) -> str:
    """What keyword coverage reads of an object: its content and its quote."""
    return obj.content + " " + obj.quote


def token_coverage(query: frozenset[str], target: frozenset[str]) -> float:
    """Fraction of the query tokens found in target; 0.0 for an empty query."""
    if not query:
        return 0.0
    return len(query & target) / len(query)


def token_jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    """Jaccard overlap of two token sets; 0.0 when either is empty."""
    if not a or not b:
        return 0.0
    shared = len(a & b)
    return shared / (len(a) + len(b) - shared)


def keyword_score(query_text: str, obj: CanvasObject) -> float:
    """Fraction of the query's content tokens found in obj.content or obj.quote."""
    return token_coverage(token_set(query_text), token_set(document_text(obj)))


def keyword_jaccard(text_a: str, text_b: str) -> float:
    """Jaccard overlap of two texts on stopword-stripped tokens."""
    return token_jaccard(token_set(text_a), token_set(text_b))


def hybrid_score(
    query_embedding: Sequence[float],
    query_text: str,
    obj: CanvasObject,
    weights: HybridWeights | None = None,
) -> float:
    """Blend of clamped cosine similarity and keyword coverage, in [0, 1]."""
    if weights is None:
        weights = HybridWeights()
    if obj.embedding is None:
        raise MissingEmbeddingError(f"object {obj.id} has no embedding")
    semantic = cosine_sim(query_embedding, obj.embedding)
    semantic = min(1.0, max(0.0, semantic))
    lexical = keyword_score(query_text, obj)
    return weights.alpha * semantic + (1.0 - weights.alpha) * lexical


def _screenable(embedding, dim: Optional[int]) -> Optional[tuple[np.ndarray, float]]:
    """The vector and its norm, or None when the screen cannot bound its cosines."""
    if embedding is None:
        return None
    try:
        vec = np.asarray(embedding, dtype=np.float64)
    except (TypeError, ValueError):
        return None
    if vec.ndim != 1 or (dim is not None and vec.shape[0] != dim):
        return None
    norm = float(np.linalg.norm(vec))
    low, high = _SCREENABLE_NORMS
    if not low <= norm <= high:
        return None
    return vec, norm


@dataclass(frozen=True)
class PreparedQuery:
    """A query as the index scores it: float64 vector, its norm, its token set."""

    vector: np.ndarray
    norm: float
    tokens: frozenset[str]


class ScoringIndex:
    """Append-only columnar copy of what scoring reads from each object.

    Row i describes the i-th object stored in a graph: its embedding in a
    contiguous float64 (n, d) matrix that grows by half, the row norm,
    the content tokens (for Jaccard links) and the content-plus-quote tokens
    (for keyword coverage).

    cosines() and hybrids() screen every row at once, within SCREEN_MARGIN;
    exact_cosine() and exact_hybrid() verify one row, bit-identical to
    cosine_sim and hybrid_score. A row the index cannot screen (no
    embedding, not a 1-D vector of the index's dimension, a zero or extreme
    norm) is a fault; while the index holds one, prepare() returns None and
    the caller scores every row with the scalar functions, which raise the
    same typed errors they always have.

    fork() shares the matrix copy-on-write: the owner keeps appending in
    place past the rows the fork sees, and a fork copies its rows on its
    first append.
    """

    def __init__(self):
        self._matrix: Optional[np.ndarray] = None
        self._norms = np.empty(0)
        self._owner = True
        self._faults = 0
        self.content_tokens: list[frozenset[str]] = []
        self.document_tokens: list[frozenset[str]] = []

    def __len__(self) -> int:
        return len(self.content_tokens)

    def append(self, obj: CanvasObject) -> None:
        content = token_set(obj.content)
        document = token_set(document_text(obj))
        self.append_vector(obj.embedding, content, content if document == content else document)

    def append_vector(
        self,
        embedding,
        content_tokens: frozenset[str] = frozenset(),
        document_tokens: frozenset[str] = frozenset(),
    ) -> None:
        """Add a row: the embedding, the Jaccard tokens and the coverage tokens."""
        row = len(self)
        dim = None if self._matrix is None else self._matrix.shape[1]
        screenable = _screenable(embedding, dim)
        if screenable is None:
            self._faults += 1
        else:
            vec, norm = screenable
            self._reserve(row + 1, vec.shape[0])
            self._matrix[row] = vec
            self._norms[row] = norm
        self.content_tokens.append(content_tokens)
        self.document_tokens.append(document_tokens)

    def _reserve(self, rows: int, dim: int) -> None:
        """Make rows writable in place: grow, and copy what another index shares."""
        if self._matrix is not None and self._owner and rows <= len(self._matrix):
            return
        capacity = len(self._matrix) if self._matrix is not None else _INITIAL_ROWS
        while capacity < rows:
            capacity += capacity // 2
        matrix = np.empty((capacity, dim))
        norms = np.empty(capacity)
        if self._matrix is not None:
            kept = len(self)
            matrix[:kept] = self._matrix[:kept]
            norms[:kept] = self._norms[:kept]
        self._matrix, self._norms, self._owner = matrix, norms, True

    def fork(self) -> "ScoringIndex":
        """An index with the same rows whose appends never reach this one."""
        twin = ScoringIndex()
        twin._matrix, twin._norms, twin._owner = self._matrix, self._norms, False
        twin._faults = self._faults
        twin.content_tokens = list(self.content_tokens)
        twin.document_tokens = list(self.document_tokens)
        return twin

    def prepare(self, embedding: Sequence[float], text: str = "") -> Optional[PreparedQuery]:
        """The query ready to score against every row, or None if unscreenable.

        None means the index holds a fault or no rows, or the query vector
        itself cannot be screened; the caller then takes the scalar path.
        """
        if self._faults or self._matrix is None:
            return None
        screenable = _screenable(embedding, self._matrix.shape[1])
        if screenable is None:
            return None
        vec, norm = screenable
        return PreparedQuery(vec, norm, token_set(text))

    def cosines(self, query: Sequence[float] | PreparedQuery) -> Optional[np.ndarray]:
        """Approximate cosine of every row against query, or None if unscreenable."""
        if not isinstance(query, PreparedQuery):
            query = self.prepare(query)
            if query is None:
                return None
        n = len(self)
        return (self._matrix[:n] @ query.vector) / (self._norms[:n] * query.norm)

    def hybrids(self, query: PreparedQuery, weights: HybridWeights) -> np.ndarray:
        """Approximate hybrid_score of every row; the keyword half is exact."""
        coverage = np.fromiter(
            (token_coverage(query.tokens, tokens) for tokens in self.document_tokens),
            dtype=np.float64,
            count=len(self),
        )
        semantic = np.clip(self.cosines(query), 0.0, 1.0)
        return weights.alpha * semantic + (1.0 - weights.alpha) * coverage

    def exact_cosine(self, query: PreparedQuery, row: int) -> float:
        """cosine_sim of the query and row's embedding, to the last bit.

        The same float64 values and the same operations as cosine_sim: one
        dot product, divided by the product of the two norms.
        """
        return float(np.dot(query.vector, self._matrix[row]) / (query.norm * self._norms[row]))

    def exact_hybrid(self, query: PreparedQuery, row: int, weights: HybridWeights) -> float:
        """hybrid_score of the query and row's object, to the last bit."""
        semantic = min(1.0, max(0.0, self.exact_cosine(query, row)))
        lexical = token_coverage(query.tokens, self.document_tokens[row])
        return weights.alpha * semantic + (1.0 - weights.alpha) * lexical


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
        vec = [0.0] * self.dimension
        for token in tokenize(text):
            digest = hashlib.md5(token.encode("utf-8")).digest()
            bucket = int.from_bytes(digest[:4], "big") % self.dimension
            vec[bucket] += 1.0
        norm = math.sqrt(sum(v * v for v in vec))
        if norm == 0.0:
            # Tokenless input still gets a unit vector so cosine stays defined.
            vec[0] = 1.0
            return vec
        return [v / norm for v in vec]
