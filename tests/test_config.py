from __future__ import annotations

import dataclasses
import json

import pytest

from canvasmem.backends import (
    ROLES,
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
from canvasmem.cli import main
from canvasmem.config import (
    BackendSelection,
    BenchOptions,
    EngineConfig,
    build_bundle,
    deep_merge,
    load_config,
)
from canvasmem.core import ObjectKind
from canvasmem.extraction import MockExtractor
from canvasmem.graph_build import LinkThresholds
from canvasmem.retrieval import QueryClass, RetrievalConfig
from canvasmem.scoring import MockEmbedder


def test_defaults_roundtrip_through_dict():
    config = EngineConfig()
    clone = EngineConfig.from_dict(config.to_dict())
    assert clone.to_dict() == config.to_dict()
    assert clone.thresholds.theta_ref == 0.5
    assert clone.retrieval.hops == 1
    assert clone.bench.native_token_limit == 800


def test_from_dict_partial_override_keeps_other_defaults():
    config = EngineConfig.from_dict({
        "gleaning": False,
        "thresholds": {"theta_ref": 0.7, "theta_causal": 0.6},
        "retrieval": {"hops": 3, "k_multi_hop": 25},
    })
    assert config.gleaning is False
    assert config.thresholds.theta_ref == 0.7
    assert config.thresholds.temporal_window == 3
    assert config.retrieval.hops == 3
    assert config.retrieval.k_multi_hop == 25
    assert config.retrieval.k_map[QueryClass.SIMPLE] == 10
    assert config.bench.cases == 20


@pytest.mark.parametrize("key, value, loaded", [
    ("theta_ref", 0.6, 0.6),
    ("theta_causal", 0.4, 0.4),
    ("keyword_edge_min", 0.3, 0.3),
    ("temporal_window", 5, 5),
    ("causal_pairs", [["KEY_FACT", "DECISION"]], ((ObjectKind.KEY_FACT, ObjectKind.DECISION),)),
    ("keyword_edge_min", 1, 1),  # an int is a number
])
def test_a_partial_thresholds_section_keeps_every_other_default(key, value, loaded):
    config = EngineConfig.from_dict({"thresholds": {key: value}})
    assert config.thresholds == dataclasses.replace(LinkThresholds(), **{key: loaded})


def test_from_dict_preset_key_changes_hops():
    config = EngineConfig.from_dict({"preset": "locomo"})
    assert config.retrieval.hops == 4
    with pytest.raises(ValueError):
        EngineConfig.from_dict({"preset": "no-such-preset"})


def test_from_dict_causal_pairs_roundtrip():
    pairs = [["KEY_FACT", "DECISION"]]
    config = EngineConfig.from_dict({"thresholds": {"causal_pairs": pairs}})
    assert config.thresholds.causal_pairs == ((ObjectKind.KEY_FACT, ObjectKind.DECISION),)


def test_from_dict_rejects_bad_backend_shape():
    with pytest.raises(ValueError):
        EngineConfig.from_dict({"backends": {"embedder": 42}})


def test_deep_merge_nested_and_scalar():
    base = {"a": {"x": 1, "y": 2}, "b": 3}
    override = {"a": {"y": 20, "z": 30}, "c": 4}
    merged = deep_merge(base, override)
    assert merged == {"a": {"x": 1, "y": 20, "z": 30}, "b": 3, "c": 4}
    # Inputs are untouched.
    assert base == {"a": {"x": 1, "y": 2}, "b": 3}
    assert override == {"a": {"y": 20, "z": 30}, "c": 4}


def test_deep_merge_scalar_replaces_dict():
    assert deep_merge({"a": {"x": 1}}, {"a": 5}) == {"a": 5}


def test_load_config_defaults_without_file():
    config = load_config()
    assert config.to_dict() == EngineConfig().to_dict()


def test_load_config_file_then_overrides(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(
        "gleaning: false\n"
        "retrieval:\n"
        "  hops: 2\n"
        "  budget_tokens: 900\n",
        encoding="utf-8",
    )
    config = load_config(str(path), overrides={"retrieval": {"hops": 5}})
    assert config.gleaning is False
    assert config.retrieval.hops == 5  # override beats the file
    assert config.retrieval.budget_tokens == 900  # file beats the default


def test_load_config_empty_file_is_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("", encoding="utf-8")
    assert load_config(str(path)).to_dict() == EngineConfig().to_dict()


def test_load_config_rejects_non_mapping(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- just\n- a\n- list\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_config(str(path))


def test_build_bundle_mock_roles():
    bundle = build_bundle(EngineConfig())
    assert isinstance(bundle.extractor, MockExtractor)
    assert isinstance(bundle.embedder, MockEmbedder)
    assert bundle.reranker is None  # passthrough keeps retrieval-stage order
    assert isinstance(bundle.answerer, EchoAnswerer)
    assert isinstance(bundle.summarizer, FirstSentenceSummarizer)


def test_build_bundle_remote_roles():
    remote = {"endpoint": "https://example.invalid/v1", "api_key_env": "X_KEY"}
    config = EngineConfig.from_dict({"backends": {
        "extractor": dict(remote, model="extract-1"),
        "embedder": dict(remote, model="embed-1"),
        "reranker": dict(remote, model="rerank-1"),
        "answerer": dict(remote, model="answer-1"),
        "summarizer": dict(remote, model="sum-1"),
    }})
    bundle = build_bundle(config)
    assert isinstance(bundle.extractor, RemoteExtractor)
    assert isinstance(bundle.embedder, RemoteEmbedder)
    assert isinstance(bundle.reranker, RemoteReranker)
    assert isinstance(bundle.answerer, RemoteAnswerer)
    assert isinstance(bundle.summarizer, RemoteSummarizer)
    assert bundle.extractor.config.model == "extract-1"


def test_build_bundle_rejects_unknown_tag():
    for name, role in ROLES.items():
        config = EngineConfig()
        setattr(config.backends, name, "telepathy")
        with pytest.raises(ValueError, match=f"{name}.*'telepathy'.*'{role.offline_tag}'"):
            build_bundle(config)


def test_the_role_table_names_every_selection_and_bundle_field_in_order():
    assert list(ROLES) == [f.name for f in dataclasses.fields(BackendSelection)]
    assert list(ROLES) == [f.name for f in dataclasses.fields(BackendBundle)]
    assert EngineConfig().to_dict()["backends"] == {
        name: role.offline_tag for name, role in ROLES.items()
    }


def test_mock_bundle_and_the_default_config_build_the_same_backends():
    mock, built = mock_bundle(), build_bundle(EngineConfig())
    for name in ROLES:
        assert type(getattr(mock, name)) is type(getattr(built, name)), name


def test_backend_config_into_selection_roundtrip():
    config = EngineConfig()
    config.backends.reranker = BackendConfig(
        endpoint="https://example.invalid/v1", api_key_env="KEY_ENV"
    )
    data = config.to_dict()
    assert data["backends"]["reranker"]["endpoint"] == "https://example.invalid/v1"
    clone = EngineConfig.from_dict(data)
    assert isinstance(clone.backends.reranker, BackendConfig)
    assert clone.backends.reranker.api_key_env == "KEY_ENV"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"compression_turn": 0},
        {"n_turns": 10, "compression_turn": 11},
        {"facts_per_case": 0},
        {"recent_turns": 0},
        {"native_token_limit": 0},
        {"cases": 0},
    ],
)
def test_bench_options_validation(kwargs):
    with pytest.raises(ValueError):
        BenchOptions(**kwargs)


@pytest.mark.parametrize("key", ["concurrency", "endpont"])
def test_unknown_backend_key_is_a_value_error_naming_it(key):
    data = {"backends": {"embedder": {"endpoint": "https://example.invalid/v1", key: 4}}}
    with pytest.raises(ValueError, match=f"'embedder'.*'{key}'"):
        EngineConfig.from_dict(data)


@pytest.mark.parametrize("name", ["embedder", "reranker"])
def test_an_embedder_or_reranker_mapping_without_a_model_is_a_value_error(name):
    # The default model is a chat model, which /embeddings or /rerank would
    # be sent.
    remote = {"endpoint": "https://example.invalid/v1", "api_key_env": "X_KEY"}
    with pytest.raises(ValueError, match=rf"^config section 'backends' role '{name}' needs a "
                                         rf"'model' key: the default 'gpt-4o-mini' is a chat"):
        EngineConfig.from_dict({"backends": {name: remote}})
    config = EngineConfig.from_dict({"backends": {name: dict(remote, model="m-1")}})
    assert getattr(config.backends, name).model == "m-1"


@pytest.mark.parametrize("name", ["extractor", "answerer", "summarizer"])
def test_a_chat_role_mapping_without_a_model_takes_the_chat_default(name):
    config = EngineConfig.from_dict({"backends": {name: {"api_key_env": "X_KEY"}}})
    assert getattr(config.backends, name).model == "gpt-4o-mini"
    assert [role for role, spec in ROLES.items() if spec.remote.needs_model] == [
        "embedder", "reranker"]


@pytest.mark.parametrize("data, section, key", [
    ({"bench": {"case": 3}}, "bench", "case"),
    ({"thresholds": {"theta_reff": 0.3}}, "thresholds", "theta_reff"),
    ({"retrieval": {"hop": 2, "hops": 2}}, "retrieval", "hop"),
    ({"backends": {"embeder": "mock"}}, "backends", "embeder"),
    # A value of another type than the one to_dict writes under its key.
    ({"retrieval": {"hops": "two"}}, "retrieval", "hops"),
    ({"bench": {"cases": "lots"}}, "bench", "cases"),
    ({"bench": {"rag_preset": 3}}, "bench", "rag_preset"),
    ({"thresholds": {"temporal_window": True}}, "thresholds", "temporal_window"),
    ({"thresholds": {"theta_ref": "high"}}, "thresholds", "theta_ref"),
    ({"thresholds": {"causal_pairs": [["KEY_FACT"]]}}, "thresholds", "causal_pairs"),
    ({"thresholds": {"causal_pairs": [["KEY_FACT", "NOTE"]]}}, "thresholds", "causal_pairs"),
    ({"retrieval": {"causal_indicators": "why"}}, "retrieval", "causal_indicators"),
    ({"retrieval": {"temporal_indicators": ["when", 3]}}, "retrieval", "temporal_indicators"),
    ({"retrieval": {"k_simple": 0.5}}, "retrieval", "k_simple"),
    ({"retrieval": {"alpha": False}}, "retrieval", "alpha"),
    ({"backends": {"embedder": {"timeout_s": "slow"}}}, "backends", "timeout_s"),
    ({"backends": {"embedder": {"max_retries": 2.5}}}, "backends", "max_retries"),
])
def test_unknown_section_key_is_a_value_error_naming_section_and_key(data, section, key):
    with pytest.raises(ValueError, match=f"'{section}'.*'{key}'"):
        EngineConfig.from_dict(data)


@pytest.mark.parametrize("data, section, key", [
    ({"retrieval": {"k_simple": 0}}, "retrieval", "k_simple"),
    ({"retrieval": {"k_temporal": -1}}, "retrieval", "k_temporal"),
    ({"retrieval": {"k_multi_hop": 0}}, "retrieval", "k_multi_hop"),
    ({"retrieval": {"alpha": 2}}, "retrieval", "alpha"),
    ({"retrieval": {"alpha": -0.5}}, "retrieval", "alpha"),
    ({"retrieval": {"coarse_k": 0}}, "retrieval", "coarse_k"),
    ({"retrieval": {"hops": -1}}, "retrieval", "hops"),
    ({"retrieval": {"budget_tokens": -1}}, "retrieval", "budget_tokens"),
    ({"thresholds": {"theta_ref": 0.3}}, "thresholds", "theta_ref"),
    ({"thresholds": {"theta_causal": 0.6}}, "thresholds", "theta_causal"),
    ({"thresholds": {"theta_ref": 1.0}}, "thresholds", "theta_ref"),
    ({"thresholds": {"keyword_edge_min": 1.5}}, "thresholds", "keyword_edge_min"),
    ({"thresholds": {"temporal_window": 0}}, "thresholds", "temporal_window"),
    ({"bench": {"cases": 0}}, "bench", "cases"),
    ({"bench": {"n_turns": 10, "compression_turn": 11}}, "bench", "compression_turn"),
    ({"retrieval": {"causal_indicators": [""]}}, "retrieval", "causal_indicators"),
    ({"retrieval": {"temporal_indicators": ["when", "why?"]}}, "retrieval", "temporal_indicators"),
])
def test_an_out_of_range_value_is_a_value_error_naming_section_and_key(data, section, key):
    with pytest.raises(ValueError, match=rf"^config section '{section}': .*\b{key}\b") as caught:
        EngineConfig.from_dict(data)
    assert "missing" not in str(caught.value)


@pytest.mark.parametrize("key", ["k_simple", "k_temporal", "k_multi_hop"])
def test_retrieval_config_names_a_non_positive_k(key):
    with pytest.raises(ValueError, match=rf"^{key} must be at least 1, got 0$"):
        RetrievalConfig(**{key: 0})


# A non-default value of every field of every section, as to_dict writes it.
_NON_DEFAULT = {
    "thresholds": {
        "theta_ref": 0.6, "theta_causal": 0.4, "keyword_edge_min": 0.25, "temporal_window": 5,
        "causal_pairs": [["KEY_FACT", "TODO"]],
    },
    "retrieval": {
        "alpha": 0.4, "coarse_k": 7, "hops": 3, "budget_tokens": 500, "k_simple": 4,
        "k_temporal": 5, "k_multi_hop": 6, "causal_indicators": ["hence"],
        "temporal_indicators": ["whenever"],
    },
    "backends": {
        name: BackendConfig(model=f"{name}-1", api_key_env="KEY_ENV").to_dict() for name in ROLES
    },
    "bench": {
        "n_turns": 60, "compression_turn": 25, "facts_per_case": 3, "stories_per_case": 2,
        "recent_turns": 4, "native_token_limit": 400, "rag_preset": "rag-small", "cases": 3,
    },
}
_SECTION_TYPES = {"thresholds": LinkThresholds, "retrieval": RetrievalConfig,
                  "backends": BackendSelection, "bench": BenchOptions}


@pytest.mark.parametrize("section", list(_SECTION_TYPES))
def test_a_sections_keys_are_its_dataclasss_fields(section):
    names = [f.name for f in dataclasses.fields(_SECTION_TYPES[section])]
    assert list(EngineConfig().to_dict()[section]) == names


@pytest.mark.parametrize("section, key", [
    (section, f.name) for section, kind in _SECTION_TYPES.items() for f in dataclasses.fields(kind)
])
def test_every_field_loads_a_non_default_value_and_writes_it_back(section, key):
    value = _NON_DEFAULT[section][key]
    assert value != EngineConfig().to_dict()[section][key]
    config = EngineConfig.from_dict({section: {key: value}})
    assert config.to_dict()[section][key] == value
    assert getattr(getattr(config, section), key) != getattr(getattr(EngineConfig(), section), key)


@pytest.mark.parametrize("section", ["thresholds", "retrieval", "backends", "bench"])
def test_a_section_that_is_not_a_mapping_is_a_value_error(section):
    with pytest.raises(ValueError, match=f"'{section}'"):
        EngineConfig.from_dict({section: [1, 2]})


def test_every_key_the_config_writes_loads_back():
    config = EngineConfig()
    config.backends.reranker = BackendConfig(
        endpoint="https://example.invalid/v1", api_key_env="KEY_ENV"
    )
    data = config.to_dict()
    assert EngineConfig.from_dict(data).to_dict() == data
    for section in ("thresholds", "retrieval", "backends", "bench"):
        for key, value in data[section].items():
            assert EngineConfig.from_dict({section: {key: value}}).to_dict()[section][key] == value


@pytest.mark.parametrize("data, key", [
    ({"threshold": {"theta_ref": 0.9}}, "threshold"),
    ({"gleening": False}, "gleening"),
    ({"presets": "locomo"}, "presets"),
    ({"gleaning": "false"}, "gleaning"),
    ({"gleaning": 1}, "gleaning"),
    ({"preset": ["locomo"]}, "preset"),
])
def test_unknown_top_level_key_is_a_value_error_naming_it(data, key):
    with pytest.raises(ValueError, match=f"'{key}'"):
        EngineConfig.from_dict(data)


def test_top_level_keys_are_those_to_dict_writes_plus_preset():
    assert set(EngineConfig().to_dict()) | {"preset"} == {
        "gleaning", "thresholds", "retrieval", "backends", "bench", "preset",
    }
    config = EngineConfig.from_dict({"preset": "locomo", "gleaning": False})
    assert config.retrieval.hops == 4 and config.gleaning is False


def test_a_result_files_embedded_config_loads_back(tmp_path):
    out = tmp_path / "run.jsonl"
    assert main(["bench", "run", "--cases", "1", "--conditions", "canvas",
                 "--set", "retrieval.hops=4", "--set", "retrieval.alpha=0.6",
                 "--output", str(out)]) == 0
    embedded = json.loads(out.read_text(encoding="utf-8").splitlines()[0])["config"]
    config = EngineConfig.from_dict(embedded)
    assert config.to_dict() == embedded
    assert config.retrieval.hops == 4 and config.retrieval.alpha == 0.6
