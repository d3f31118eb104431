"""Exception types shared across the engine.

Every error raised on a contract boundary derives from CanvasError so
callers can catch engine failures without catching programming mistakes.
"""


class CanvasError(Exception):
    """Base class for all engine errors."""


class InvalidObjectError(CanvasError):
    """An object violates a structural invariant (empty quote, bad confidence)."""


class MalformedInputError(CanvasError):
    """Serialized graph data is truncated or violates the schema."""


class VersionMismatchError(CanvasError):
    """Serialized graph data declares an unsupported format version."""


class DimensionMismatchError(CanvasError):
    """Two vectors of different dimensionality were compared."""


class ZeroVectorError(CanvasError):
    """A vector scored by cosine similarity has a norm of zero, or one outside
    the range [1e-150, 1e150] within which the scoring screen bounds cosines."""


class MissingEmbeddingError(CanvasError):
    """An operation that requires embeddings met an object without one."""


class ReadOnlyGraphError(CanvasError):
    """A write reached a snapshot or its scoring index, which are read-only."""


class SequenceError(CanvasError):
    """A turn arrived out of order during sequential ingestion."""


class BackendFailureError(CanvasError):
    """A pluggable backend raised while processing a turn or query."""

    def __init__(self, message: str, role: str = "", turn: int | None = None):
        super().__init__(message)
        self.role = role
        self.turn = turn


class EmptyKeywordsError(CanvasError):
    """Keyword coverage was requested with an empty keyword list."""


class RemoteBackendError(CanvasError):
    """Base class for remote client failures; carries the originating role."""

    def __init__(self, message: str, role: str = ""):
        super().__init__(message)
        self.role = role


class AuthFailureError(RemoteBackendError):
    """The API key environment variable is unset or the server rejected it."""


class TransportTimeoutError(RemoteBackendError):
    """The request timed out or transient failures exhausted the retry budget."""


class MalformedResponseError(RemoteBackendError):
    """The remote service returned a payload that violates the wire contract."""
