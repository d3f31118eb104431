"""Typed conversation memory with a semantic graph and budgeted retrieval.

The pipeline turns chat turns into small typed objects, each grounded in a
verbatim quote, links them into a graph by similarity, causality, and
temporal adjacency, and answers questions by injecting a token-budgeted
selection of objects back into context. Everything runs offline against
deterministic mock backends; remote backends plug in through the same
protocols.
"""

from .backends import (
    BackendBundle,
    BackendConfig,
    EchoAnswerer,
    FirstSentenceSummarizer,
    RemoteAnswerer,
    RemoteEmbedder,
    RemoteExtractor,
    RemoteReranker,
    RemoteSummarizer,
    mock_bundle,
)
from .benchmark import (
    BenchmarkCase,
    PlantedFact,
    RAG_PRESETS,
    Variant,
    exact_match,
    fuzzy_match_score,
    generate_case,
    generate_cases,
    keyword_coverage,
    retrieval_recall_eval,
    run_condition,
    threshold_sweep,
)
from .config import EngineConfig, build_bundle, load_config
from .core import (
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
from .engine import CanvasEngine, IngestReport
from .errors import (
    AuthFailureError,
    BackendFailureError,
    CanvasError,
    DimensionMismatchError,
    EmptyKeywordsError,
    InvalidObjectError,
    MalformedInputError,
    MalformedResponseError,
    MissingEmbeddingError,
    ReadOnlyGraphError,
    RemoteBackendError,
    SequenceError,
    TransportTimeoutError,
    VersionMismatchError,
    ZeroVectorError,
)
from .extraction import Candidate, ConversationTurn, MockExtractor, extract_turn, quote_matches
from .graph_build import LinkThresholds, link_object
from .retrieval import (
    QueryClass,
    RetrievalConfig,
    RetrievalResult,
    classify_query,
    retrieve,
    retrieve_detailed,
)
from .scoring import MockEmbedder

__version__ = "0.1.0"

__all__ = [
    "AuthFailureError",
    "BackendBundle",
    "BackendConfig",
    "BackendFailureError",
    "BenchmarkCase",
    "Candidate",
    "CanvasEdge",
    "CanvasEngine",
    "CanvasError",
    "CanvasGraph",
    "CanvasObject",
    "ConversationTurn",
    "DimensionMismatchError",
    "EchoAnswerer",
    "EdgeKind",
    "EdgeOrigin",
    "EmptyKeywordsError",
    "EngineConfig",
    "FirstSentenceSummarizer",
    "IngestReport",
    "InvalidObjectError",
    "LinkThresholds",
    "MalformedInputError",
    "MalformedResponseError",
    "MissingEmbeddingError",
    "MockEmbedder",
    "MockExtractor",
    "ObjectKind",
    "PlantedFact",
    "QueryClass",
    "RAG_PRESETS",
    "ReadOnlyGraphError",
    "RemoteAnswerer",
    "RemoteBackendError",
    "RemoteEmbedder",
    "RemoteExtractor",
    "RemoteReranker",
    "RemoteSummarizer",
    "RetrievalConfig",
    "RetrievalResult",
    "SequenceError",
    "Source",
    "TransportTimeoutError",
    "Variant",
    "VersionMismatchError",
    "ZeroVectorError",
    "build_bundle",
    "classify_query",
    "deserialize_graph",
    "exact_match",
    "extract_turn",
    "fuzzy_match_score",
    "generate_case",
    "generate_cases",
    "keyword_coverage",
    "link_object",
    "load_config",
    "mock_bundle",
    "normalize_text",
    "object_id",
    "quote_matches",
    "retrieval_recall_eval",
    "retrieve",
    "retrieve_detailed",
    "run_condition",
    "serialize_graph",
    "threshold_sweep",
]
