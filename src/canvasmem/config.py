"""Engine configuration: built-in defaults, config file, then flag overrides.

Config files are YAML with the same shape that EngineConfig.to_dict emits,
so a result file's embedded config can be fed straight back in to reproduce
a run. Secrets never appear here: backends carry the name of an API key
environment variable, not the key.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Union

import yaml

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
)
from .core import ObjectKind
from .extraction import MockExtractor
from .graph_build import LinkThresholds
from .retrieval import QueryClass, RetrievalConfig
from .scoring import HybridWeights, MockEmbedder

MOCK = "mock"
PASSTHROUGH = "passthrough"

_K_KEYS = {
    "k_simple": QueryClass.SIMPLE,
    "k_temporal": QueryClass.TEMPORAL,
    "k_multi_hop": QueryClass.MULTI_HOP,
}

RoleSetting = Union[str, BackendConfig]
_BACKEND_KEYS = frozenset(f.name for f in fields(BackendConfig))
_THRESHOLD_KEYS = frozenset(f.name for f in fields(LinkThresholds))
_RETRIEVAL_KEYS = frozenset({
    "alpha", "coarse_k", "hops", "budget_tokens", "causal_indicators", "temporal_indicators",
}) | frozenset(_K_KEYS)


def _section(data: dict, name: str, known: frozenset[str]) -> dict:
    """The mapping under data[name] (empty if absent); unknown keys are an error."""
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"config section {name!r} must be a mapping")
    unknown = [key for key in section if key not in known]
    if unknown:
        raise ValueError(
            f"config section {name!r} has unknown keys: {', '.join(map(repr, unknown))}"
        )
    return section


@dataclass
class BenchOptions:
    """Benchmark harness defaults; see the benchmark module for semantics."""

    n_turns: int = 50
    compression_turn: int = 40
    facts_per_case: int = 6
    stories_per_case: int = 4
    recent_turns: int = 5
    native_token_limit: int = 800
    rag_preset: str = "rag-default"
    cases: int = 20

    def __post_init__(self):
        if self.n_turns < 1 or not 1 <= self.compression_turn <= self.n_turns:
            raise ValueError("compression_turn must fall inside the conversation")
        if self.facts_per_case < 1 or self.stories_per_case < 1:
            raise ValueError("cases need at least one planted fact or story")
        if self.recent_turns < 1 or self.native_token_limit < 1 or self.cases < 1:
            raise ValueError("recent_turns, native_token_limit, and cases must be positive")


_BENCH_KEYS = frozenset(f.name for f in fields(BenchOptions))


@dataclass
class BackendSelection:
    """Which implementation serves each role: a mock tag or remote settings."""

    extractor: RoleSetting = MOCK
    embedder: RoleSetting = MOCK
    reranker: RoleSetting = PASSTHROUGH
    answerer: RoleSetting = MOCK
    summarizer: RoleSetting = MOCK


_ROLE_KEYS = frozenset(f.name for f in fields(BackendSelection))


@dataclass
class EngineConfig:
    """Everything tunable, aggregated."""

    gleaning: bool = True
    thresholds: LinkThresholds = field(default_factory=LinkThresholds)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    backends: BackendSelection = field(default_factory=BackendSelection)
    bench: BenchOptions = field(default_factory=BenchOptions)

    def to_dict(self) -> dict:
        """Full resolved configuration, suitable for embedding in result files."""
        return {
            "gleaning": self.gleaning,
            "thresholds": {
                "theta_ref": self.thresholds.theta_ref,
                "theta_causal": self.thresholds.theta_causal,
                "keyword_edge_min": self.thresholds.keyword_edge_min,
                "temporal_window": self.thresholds.temporal_window,
                "causal_pairs": [[a.value, b.value] for a, b in self.thresholds.causal_pairs],
            },
            "retrieval": {
                "alpha": self.retrieval.weights.alpha,
                "coarse_k": self.retrieval.coarse_k,
                "hops": self.retrieval.hops,
                "budget_tokens": self.retrieval.budget_tokens,
                "k_simple": self.retrieval.k_map[QueryClass.SIMPLE],
                "k_temporal": self.retrieval.k_map[QueryClass.TEMPORAL],
                "k_multi_hop": self.retrieval.k_map[QueryClass.MULTI_HOP],
                "causal_indicators": list(self.retrieval.causal_indicators),
                "temporal_indicators": list(self.retrieval.temporal_indicators),
            },
            "backends": {
                role: (setting if isinstance(setting, str) else setting.to_dict())
                for role, setting in (
                    ("extractor", self.backends.extractor),
                    ("embedder", self.backends.embedder),
                    ("reranker", self.backends.reranker),
                    ("answerer", self.backends.answerer),
                    ("summarizer", self.backends.summarizer),
                )
            },
            "bench": asdict(self.bench),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EngineConfig":
        """The config that data describes; an unknown key at any level is a ValueError."""
        unknown = [key for key in data if key not in _TOP_LEVEL_KEYS]
        if unknown:
            raise ValueError(f"config has unknown keys: {', '.join(map(repr, unknown))}")
        thresholds_d = dict(_section(data, "thresholds", _THRESHOLD_KEYS))
        pairs = thresholds_d.pop("causal_pairs", None)
        if pairs is not None:
            thresholds_d["causal_pairs"] = tuple((ObjectKind(a), ObjectKind(b)) for a, b in pairs)
        thresholds = LinkThresholds(**thresholds_d)
        retrieval_d = _section(data, "retrieval", _RETRIEVAL_KEYS)
        base_retrieval = (
            RetrievalConfig.preset(data["preset"]) if "preset" in data else RetrievalConfig()
        )
        k_map = dict(base_retrieval.k_map)
        for key, klass in _K_KEYS.items():
            if key in retrieval_d:
                k_map[klass] = retrieval_d[key]
        retrieval = RetrievalConfig(
            weights=HybridWeights(alpha=retrieval_d.get("alpha", base_retrieval.weights.alpha)),
            k_map=k_map,
            coarse_k=retrieval_d.get("coarse_k", base_retrieval.coarse_k),
            hops=retrieval_d.get("hops", base_retrieval.hops),
            budget_tokens=retrieval_d.get("budget_tokens", base_retrieval.budget_tokens),
            causal_indicators=tuple(
                retrieval_d.get("causal_indicators", base_retrieval.causal_indicators)
            ),
            temporal_indicators=tuple(
                retrieval_d.get("temporal_indicators", base_retrieval.temporal_indicators)
            ),
        )
        backends_d = _section(data, "backends", _ROLE_KEYS)

        def role(name: str, default: str) -> RoleSetting:
            raw = backends_d.get(name, default)
            if isinstance(raw, str):
                return raw
            if isinstance(raw, dict):
                unknown = [key for key in raw if key not in _BACKEND_KEYS]
                if unknown:
                    raise ValueError(
                        f"backend role {name!r} has unknown keys: {', '.join(map(repr, unknown))}"
                    )
                return BackendConfig(**raw)
            raise ValueError(f"backend role {name!r} must be a tag or a mapping")

        backends = BackendSelection(
            extractor=role("extractor", MOCK),
            embedder=role("embedder", MOCK),
            reranker=role("reranker", PASSTHROUGH),
            answerer=role("answerer", MOCK),
            summarizer=role("summarizer", MOCK),
        )
        bench = BenchOptions(**_section(data, "bench", _BENCH_KEYS))
        return cls(
            gleaning=data.get("gleaning", True),
            thresholds=thresholds,
            retrieval=retrieval,
            backends=backends,
            bench=bench,
        )


# What to_dict emits, plus the retrieval preset a config file or flag may name.
_TOP_LEVEL_KEYS = frozenset(f.name for f in fields(EngineConfig)) | {"preset"}


def deep_merge(base: dict, override: dict) -> dict:
    """Recursive dict merge; override wins, nested dicts merge key by key."""
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = deep_merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> EngineConfig:
    """Layered load: built-in defaults, then the file, then explicit overrides."""
    data: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            loaded = yaml.safe_load(handle)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {path} must contain a mapping")
        data = deep_merge(data, loaded)
    if overrides:
        data = deep_merge(data, overrides)
    return EngineConfig.from_dict(data)


def build_bundle(config: EngineConfig) -> BackendBundle:
    """Instantiate the backend for every role according to the selection."""
    sel = config.backends

    def bad(role: str, value: RoleSetting):
        return ValueError(f"unsupported {role} backend setting {value!r}")

    if sel.extractor == MOCK:
        extractor = MockExtractor()
    elif isinstance(sel.extractor, BackendConfig):
        extractor = RemoteExtractor(sel.extractor)
    else:
        raise bad("extractor", sel.extractor)
    if sel.embedder == MOCK:
        embedder = MockEmbedder()
    elif isinstance(sel.embedder, BackendConfig):
        embedder = RemoteEmbedder(sel.embedder)
    else:
        raise bad("embedder", sel.embedder)
    if sel.reranker == PASSTHROUGH:
        reranker = None
    elif isinstance(sel.reranker, BackendConfig):
        reranker = RemoteReranker(sel.reranker)
    else:
        raise bad("reranker", sel.reranker)
    if sel.answerer == MOCK:
        answerer = EchoAnswerer()
    elif isinstance(sel.answerer, BackendConfig):
        answerer = RemoteAnswerer(sel.answerer)
    else:
        raise bad("answerer", sel.answerer)
    if sel.summarizer == MOCK:
        summarizer = FirstSentenceSummarizer()
    elif isinstance(sel.summarizer, BackendConfig):
        summarizer = RemoteSummarizer(sel.summarizer)
    else:
        raise bad("summarizer", sel.summarizer)
    return BackendBundle(
        extractor=extractor,
        embedder=embedder,
        reranker=reranker,
        answerer=answerer,
        summarizer=summarizer,
    )
