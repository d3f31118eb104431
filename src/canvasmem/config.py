"""Engine configuration: built-in defaults, config file, then flag overrides.

Config files are YAML with the same shape that EngineConfig.to_dict emits,
so a result file's embedded config can be fed straight back in to reproduce
a run. Each section of the file is one dataclass (LinkThresholds,
RetrievalConfig, BackendSelection, BenchOptions), and its keys are that
dataclass's fields: to_dict writes each section with dataclasses.asdict (a
tuple as a list, an enum as its value), and from_dict hands the checked
keys straight to the dataclass, whose __post_init__ checks the ranges. A
new setting is one field. A key that to_dict does not write, a value of
another type than the one it writes there, or a value out of its range, is
a ValueError naming the section and the key. PyYAML is imported only where
YAML is parsed: a config file here, a --set value in the CLI.
EngineConfig.from_dict and a run with neither never load it.

Each backend role takes its offline tag or a mapping of remote settings.
The tags, what each builds and the remote client a mapping builds are
declared once, in backends.ROLES, which the defaults here, build_bundle and
mock_bundle all read: changing a role's offline backend is one edit to its
entry in that table. An embedder or reranker mapping must name its model:
BackendConfig's default model is a chat model. Secrets never appear here:
backends carry the name of an API key environment variable, not the key.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from typing import Any, Optional

from .backends import ROLES, BackendBundle, BackendConfig, RoleSetting, build_role
from .core import ObjectKind
from .graph_build import LinkThresholds
from .retrieval import RetrievalConfig

# The sections of a config file, each the fields of one EngineConfig dataclass.
_SECTIONS = ("thresholds", "retrieval", "backends", "bench")
_BACKEND_DEFAULTS = BackendConfig().to_dict()
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
               dict: "a mapping"}


def _plain(value: Any) -> Any:
    """value as a config file holds it: each tuple a list, each enum its value."""
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


def _fits(value: Any, default: Any) -> bool:
    """Whether value has the type of default: a bool exactly, an int but not a bool,
    any number for a float, and a list whose items each fit the default's first."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(item, default[0]) for item in value)
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _type_name(default: Any) -> str:
    if isinstance(default, list):
        return "a list of " + ("string pairs" if isinstance(default[0], list) else "strings")
    return _TYPE_NAMES[type(default)]


def _checked(where: str, values: Any, defaults: dict, typed: bool = True) -> dict:
    """values, which must be a mapping with only keys of defaults and, when typed,
    values of their defaults' types; otherwise a ValueError naming where and the key."""
    if not isinstance(values, dict):
        raise ValueError(f"{where} must be a mapping")
    unknown = [key for key in values if key not in defaults]
    if unknown:
        raise ValueError(f"{where} has unknown keys: {', '.join(map(repr, unknown))}")
    for key, value in values.items():
        if typed and not _fits(value, defaults[key]):
            raise ValueError(
                f"{where} key {key!r} must be {_type_name(defaults[key])}, got {value!r}"
            )
    return values


@contextmanager
def _section(name: str):
    """Prefix a ValueError raised inside with config section name; the
    settings' own range checks name the key."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"config section {name!r}: {exc}") from exc


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


@dataclass
class BackendSelection:
    """Which implementation serves each role: its offline tag or remote settings."""

    extractor: RoleSetting = ROLES["extractor"].offline_tag
    embedder: RoleSetting = ROLES["embedder"].offline_tag
    reranker: RoleSetting = ROLES["reranker"].offline_tag
    answerer: RoleSetting = ROLES["answerer"].offline_tag
    summarizer: RoleSetting = ROLES["summarizer"].offline_tag


@dataclass
class EngineConfig:
    """Everything tunable, aggregated."""

    gleaning: bool = True
    thresholds: LinkThresholds = field(default_factory=LinkThresholds)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    backends: BackendSelection = field(default_factory=BackendSelection)
    bench: BenchOptions = field(default_factory=BenchOptions)

    def to_dict(self) -> dict:
        """Full resolved configuration, suitable for embedding in result files:
        each section is its dataclass's fields, tuples written as lists and
        enums as their values."""
        return {
            "gleaning": self.gleaning,
            **{name: _plain(asdict(getattr(self, name))) for name in _SECTIONS},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EngineConfig":
        """The config that data describes. Every key must be one that to_dict
        writes (or "preset"), with a value of the type to_dict writes there;
        anything else is a ValueError naming the section and the key."""
        defaults = cls().to_dict()
        # "preset" names a RetrievalConfig.preset; "standard" stands for its type.
        _checked("config", data, {**defaults, "preset": "standard"})

        def section(name: str, typed: bool = True) -> dict:
            values = _checked(f"config section {name!r}", data.get(name, {}), defaults[name], typed)
            return {key: tuple(v) if isinstance(v, list) else v for key, v in values.items()}

        thresholds_d = section("thresholds")
        if "causal_pairs" in thresholds_d:
            try:
                thresholds_d["causal_pairs"] = tuple(
                    (ObjectKind(a), ObjectKind(b)) for a, b in thresholds_d["causal_pairs"]
                )
            except ValueError as exc:
                raise ValueError(f"config section 'thresholds' key 'causal_pairs': {exc}") from exc
        with _section("thresholds"):
            thresholds = LinkThresholds(**thresholds_d)
        base_retrieval = (
            RetrievalConfig.preset(data["preset"]) if "preset" in data else RetrievalConfig()
        )
        with _section("retrieval"):
            retrieval = replace(base_retrieval, **section("retrieval"))

        def role(name: str, raw: Any) -> RoleSetting:
            if isinstance(raw, str):
                return raw
            where = f"config section 'backends' role {name!r}"
            if not isinstance(raw, dict):
                raise ValueError(f"{where} must be a tag or a mapping")
            _checked(where, raw, _BACKEND_DEFAULTS)
            if ROLES[name].remote.needs_model and "model" not in raw:
                raise ValueError(f"{where} needs a 'model' key: the default "
                                 f"{_BACKEND_DEFAULTS['model']!r} is a chat model")
            return BackendConfig(**raw)

        backends = BackendSelection(**{
            name: role(name, raw) for name, raw in section("backends", typed=False).items()
        })
        with _section("bench"):
            bench = BenchOptions(**section("bench"))
        return cls(data.get("gleaning", True), thresholds, retrieval, backends, bench)


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
        import yaml

        with open(path, "r", encoding="utf-8") as handle:
            try:
                loaded = yaml.safe_load(handle)
            except yaml.YAMLError as exc:
                raise ValueError(f"config file {path} is not valid YAML: {exc}") from exc
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
    return BackendBundle(**{role: build_role(role, getattr(config.backends, role)) for role in ROLES})
