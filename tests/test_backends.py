from __future__ import annotations

import json

import pytest
import requests

from canvasmem.backends import (
    BackendConfig,
    EchoAnswerer,
    FirstSentenceSummarizer,
    RemoteAnswerer,
    RemoteEmbedder,
    RemoteExtractor,
    RemoteReranker,
    RemoteSummarizer,
    ROLES,
    TransportStats,
    build_role,
    http_transport,
    mock_bundle,
)
from canvasmem.core import ObjectKind, Source
from canvasmem.errors import (
    AuthFailureError,
    MalformedResponseError,
    TransportTimeoutError,
)
from canvasmem.extraction import ConversationTurn, ExtractionPass, extract_turn

from conftest import graph_of, make_obj


@pytest.fixture
def config(monkeypatch):
    monkeypatch.setenv("CANVASMEM_TEST_KEY", "sk-unit-test")
    return BackendConfig(
        endpoint="https://example.invalid/v1",
        api_key_env="CANVASMEM_TEST_KEY",
        retry_backoff_s=0.0,
    )


class ScriptedTransport:
    """Replays queued (status, body) responses and records every request."""

    def __init__(self, *responses):
        self.queue = list(responses)
        self.requests: list[tuple[str, dict, dict]] = []

    def __call__(self, url, payload, headers, timeout_s):
        self.requests.append((url, payload, headers))
        item = self.queue.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def _chat_body(text):
    return {"choices": [{"message": {"content": text}}]}


def test_chat_roundtrip(config):
    transport = ScriptedTransport((200, _chat_body("hello back")))
    client = RemoteAnswerer(config, transport)
    reply = client._chat("hello", 0.25)
    assert reply == "hello back"
    assert client.stats.calls == 1 and client.stats.retries == 0
    url, payload, headers = transport.requests[0]
    assert url == "https://example.invalid/v1/chat/completions"
    assert payload["temperature"] == 0.25
    assert payload["messages"] == [{"role": "user", "content": "hello"}]
    assert headers["Authorization"] == "Bearer sk-unit-test"


def test_missing_api_key_fails_before_any_network_call(config, monkeypatch):
    monkeypatch.delenv("CANVASMEM_TEST_KEY")
    transport = ScriptedTransport()
    client = RemoteAnswerer(config, transport)
    with pytest.raises(AuthFailureError) as excinfo:
        client.answer("q", "ctx")
    assert transport.requests == []
    assert client.stats.calls == 0
    assert excinfo.value.role == "answerer"


def test_server_auth_rejection_is_typed(config):
    transport = ScriptedTransport((401, {"error": "nope"}))
    with pytest.raises(AuthFailureError):
        RemoteAnswerer(config, transport).answer("q", "ctx")


def test_transient_5xx_retries_then_succeeds(config):
    transport = ScriptedTransport(
        (503, None),
        (200, _chat_body("eventually fine")),
    )
    client = RemoteAnswerer(config, transport)
    assert client.answer("q", "ctx") == "eventually fine"
    assert client.stats.calls == 2 and client.stats.retries == 1


def test_exhausted_retries_raise_timeout_error(config):
    transport = ScriptedTransport((500, None), (502, None), (503, None))
    client = RemoteAnswerer(config, transport)
    with pytest.raises(TransportTimeoutError):
        client.answer("q", "ctx")
    # max_retries=2 means three attempts in total.
    assert client.stats.calls == 3 and client.stats.retries == 2


def test_transport_timeouts_are_retried(config):
    transport = ScriptedTransport(
        requests.Timeout("too slow"),
        (200, _chat_body("made it")),
    )
    assert RemoteAnswerer(config, transport).answer("q", "ctx") == "made it"


def test_connection_errors_are_retried_then_typed(config):
    transport = ScriptedTransport(
        requests.ConnectionError("connection refused"),
        requests.ConnectionError("connection reset"),
        (200, _chat_body("made it")),
    )
    client = RemoteAnswerer(config, transport)
    assert client.answer("q", "ctx") == "made it"
    assert client.stats.calls == 3 and client.stats.retries == 2

    transport = ScriptedTransport(*[requests.ConnectionError("connection refused")] * 3)
    client = RemoteEmbedder(config, transport)
    with pytest.raises(TransportTimeoutError) as caught:
        client.embed("hello")
    assert caught.value.role == "embedder"
    assert client.stats.calls == 3 and client.stats.retries == 2
    assert transport.queue == []


def test_non_retryable_4xx_is_malformed_response(config):
    transport = ScriptedTransport((422, {"error": "bad request"}))
    with pytest.raises(MalformedResponseError):
        RemoteAnswerer(config, transport).answer("q", "ctx")


def test_chat_missing_content_is_malformed(config):
    transport = ScriptedTransport((200, {"choices": []}))
    with pytest.raises(MalformedResponseError):
        RemoteAnswerer(config, transport).answer("q", "ctx")


def test_a_client_owns_fresh_stats_and_defaults_to_the_http_transport(config):
    first, second = RemoteAnswerer(config), RemoteAnswerer(config)
    assert first.transport is http_transport
    assert first.stats == TransportStats() and first.stats is not second.stats


def _call_role(name, client):
    turn = ConversationTurn(index=0, user_text="hello there")
    calls = {
        "extractor": lambda: client.extract(turn, [], ExtractionPass.FIRST),
        "embedder": lambda: client.embed("hello"),
        "reranker": lambda: client.rerank("q", [("id-a", "text a")]),
        "answerer": lambda: client.answer("q", "ctx"),
        "summarizer": lambda: client.summarize("a long transcript"),
    }
    return calls[name]()


@pytest.mark.parametrize("name", sorted(ROLES))
def test_each_remote_client_names_its_role_and_its_errors_carry_it(config, name):
    client_type = ROLES[name].remote
    assert client_type.role == name
    built = build_role(name, config)
    assert type(built) is client_type and built.config is config

    transport = ScriptedTransport((401, {"error": "nope"}), (200, {"unexpected": True}))
    client = client_type(config, transport)
    with pytest.raises(AuthFailureError) as rejected:
        _call_role(name, client)
    assert rejected.value.role == name
    with pytest.raises(MalformedResponseError) as malformed:
        _call_role(name, client)
    assert malformed.value.role == name
    assert client.stats.calls == 2 and client.stats.retries == 0


def test_remote_embed_posts_one_text(config):
    transport = ScriptedTransport((200, {"data": [{"index": 0, "embedding": [0.6, 0.8]}]}))
    client = RemoteEmbedder(config, transport)
    assert client.embed("hi") == [0.6, 0.8]
    url, payload, _ = transport.requests[0]
    assert url == "https://example.invalid/v1/embeddings"
    assert payload == {"model": config.model, "input": ["hi"]}
    assert client.stats.calls == 1


@pytest.mark.parametrize(
    "body, message",
    [
        ({"data": []}, None),  # missing index
        ({"data": [{"index": 1, "embedding": [1.0]}]}, None),  # index out of range
        ({"data": [
            {"index": 0, "embedding": [1.0, 0.0]},
            {"index": 0, "embedding": [0.0, 1.0]},
        ]}, None),  # duplicate index
        ({"data": [{"index": 0, "embedding": []}]}, "^embedding has no components$"),
        ({"wrong": []}, None),
        ({"data": [{"index": 0, "embedding": [1.0, float("nan")]}]}, None),  # a NaN component
        ({"data": [{"index": 0, "embedding": ["-Infinity", 1.0]}]}, None),  # an infinite component
    ],
)
def test_remote_embed_malformed_bodies(config, body, message):
    transport = ScriptedTransport((200, body))
    with pytest.raises(MalformedResponseError, match=message):
        RemoteEmbedder(config, transport).embed("first")


def test_remote_rerank_orders_scores_by_document(config):
    transport = ScriptedTransport((200, {"results": [
        {"index": 1, "relevance_score": 0.9},
        {"index": 0, "relevance_score": 0.1},
    ]}))
    ranked = RemoteReranker(config, transport).rerank("q", [("id-a", "doc a"), ("id-b", "doc b")])
    assert ranked == [("id-a", 0.1), ("id-b", 0.9)]
    _, payload, _ = transport.requests[0]
    assert payload == {"model": config.model, "query": "q", "documents": ["doc a", "doc b"]}


def test_remote_rerank_of_no_candidates_skips_network(config):
    transport = ScriptedTransport()
    client = RemoteReranker(config, transport)
    assert client.rerank("q", []) == []
    assert transport.requests == [] and client.stats.calls == 0


def test_remote_rerank_missing_document_is_malformed(config):
    transport = ScriptedTransport((200, {"results": [
        {"index": 0, "relevance_score": 0.5},
    ]}))
    with pytest.raises(MalformedResponseError):
        RemoteReranker(config, transport).rerank("q", [("id-a", "doc a"), ("id-b", "doc b")])


@pytest.mark.parametrize("score", ["NaN", float("nan"), "Infinity"])
def test_remote_rerank_rejects_a_score_that_is_not_finite(config, score):
    transport = ScriptedTransport((200, {"results": [
        {"index": 0, "relevance_score": 0.5},
        {"index": 1, "relevance_score": score},
    ]}))
    with pytest.raises(MalformedResponseError, match="not finite"):
        RemoteReranker(config, transport).rerank("q", [("id-a", "doc a"), ("id-b", "doc b")])


def test_a_json_number_too_large_for_a_double_is_malformed(config):
    # json.loads reads 1e400 as inf, but an integer literal stays an int
    # that float() cannot convert.
    huge = 10 ** 400
    embed = ScriptedTransport((200, {"data": [{"index": 0, "embedding": [huge, 1.0]}]}))
    with pytest.raises(MalformedResponseError, match="bad embedding record"):
        RemoteEmbedder(config, embed).embed("first")
    rerank = ScriptedTransport((200, {"results": [{"index": 0, "relevance_score": huge}]}))
    with pytest.raises(MalformedResponseError, match="bad rerank record"):
        RemoteReranker(config, rerank).rerank("q", [("id-a", "doc a")])


def test_remote_answerer_fills_prompt(config):
    transport = ScriptedTransport((200, _chat_body("42")))
    answer = RemoteAnswerer(config, transport).answer("what is it?", "the context block")
    assert answer == "42"
    _, payload, _ = transport.requests[0]
    prompt = payload["messages"][0]["content"]
    assert "the context block" in prompt
    assert "what is it?" in prompt
    assert payload["temperature"] == config.temperature_generation


def test_remote_summarizer_uses_its_own_temperature(config):
    transport = ScriptedTransport((200, _chat_body("short version")))
    summary = RemoteSummarizer(config, transport).summarize("a long transcript")
    assert summary == "short version"
    _, payload, _ = transport.requests[0]
    assert payload["temperature"] == RemoteSummarizer.SUMMARIZE_TEMPERATURE


def _extractor_reply(records):
    return _chat_body("```json\n" + json.dumps(records) + "\n```")


def test_remote_extractor_parses_fenced_json(config):
    turn = ConversationTurn(index=3, user_text="we will cache responses in redis")
    transport = ScriptedTransport((200, _extractor_reply([
        {
            "kind": "decision",
            "content": "cache responses in redis",
            "quote": "cache responses in redis",
            "source": "USER",
            "confidence": 0.8,
        }
    ])))
    objects = RemoteExtractor(config, transport).extract(turn, [], ExtractionPass.FIRST)
    assert len(objects) == 1
    obj = objects[0]
    assert obj.kind is ObjectKind.DECISION
    assert obj.source is Source.USER
    assert obj.turn == 3
    assert obj.confidence == 0.8
    _, payload, _ = transport.requests[0]
    assert payload["temperature"] == config.temperature_extraction


_GLEAN_PROMPT = """\
Review the turn below a second time. A first extraction pass already ran;
what it found is listed below. Find only what it missed, looking
specifically for:

1. entities that the turn mentions only through pronouns
2. statements whose subject is left implicit
3. cause-and-effect relationships that are implied rather than stated
4. dates, durations, deadlines, and other time expressions

Artifacts already on the canvas from earlier turns, then those the first
pass extracted from this turn:
DECISION: cache responses in redis
KEY_FACT: cache entries expire after five minutes

Turn 1:
User: cache entries expire after five minutes, so the ttl is short
Assistant: noted

Return a JSON array of additional artifacts only, same schema:
  {"kind": "KEY_FACT", "content": "...", "quote": "...", "source": "user", "confidence": 0.9}

"quote" must be copied verbatim from the turn text. Return [] when nothing
was missed.
"""


def test_the_glean_prompt_lists_the_first_pass_finds_after_the_canvas(config):
    graph = graph_of(make_obj(kind=ObjectKind.DECISION, content="cache responses in redis"))
    turn = ConversationTurn(index=1, user_text="cache entries expire after five minutes, "
                            "so the ttl is short", assistant_text="noted")
    transport = ScriptedTransport(
        (200, _extractor_reply([{"kind": "KEY_FACT",
                                 "content": "cache entries expire after five minutes",
                                 "quote": "cache entries expire after five minutes"}])),
        (200, _extractor_reply([])),
    )
    objects = extract_turn(RemoteExtractor(config, transport), turn, graph)
    assert [obj.content for obj in objects] == ["cache entries expire after five minutes"]
    glean = transport.requests[1][1]["messages"][0]["content"]
    assert glean == _GLEAN_PROMPT


def test_remote_extractor_infers_source_from_quote(config):
    turn = ConversationTurn(
        index=0,
        user_text="nothing of note",
        assistant_text="the api key rotates monthly",
    )
    transport = ScriptedTransport((200, _extractor_reply([
        {"kind": "KEY_FACT", "content": "api key rotates monthly",
         "quote": "api key rotates monthly"},
    ])))
    objects = RemoteExtractor(config, transport).extract(turn, [], ExtractionPass.FIRST)
    assert objects[0].source is Source.ASSISTANT


def test_remote_extractor_drops_bad_records_keeps_good(config):
    turn = ConversationTurn(index=0, user_text="the build takes nine minutes")
    transport = ScriptedTransport((200, _extractor_reply([
        {"kind": "NOT_A_KIND", "content": "x", "quote": "x"},
        "not even an object",
        {"kind": "KEY_FACT", "content": None, "quote": "build takes nine minutes"},
        {"kind": "KEY_FACT", "content": "build takes nine minutes", "quote": 9},
        {"kind": "KEY_FACT", "content": ["build", "takes"], "quote": "build takes nine minutes"},
        {"kind": "KEY_FACT", "content": "build takes nine minutes",
         "quote": "build takes nine minutes"},
    ])))
    objects = RemoteExtractor(config, transport).extract(turn, [], ExtractionPass.FIRST)
    assert [(o.kind, o.content) for o in objects] == [
        (ObjectKind.KEY_FACT, "build takes nine minutes")]


def test_remote_extractor_drops_a_record_whose_content_holds_a_lone_surrogate(config):
    # json.dumps writes the surrogate as the escape \ud800, which the
    # reply's parse reads back as a lone surrogate.
    turn = ConversationTurn(index=0, user_text="the build takes nine minutes")
    transport = ScriptedTransport((200, _extractor_reply([
        {"kind": "KEY_FACT", "content": "build \ud800 takes", "quote": "build takes"},
        {"kind": "KEY_FACT", "content": "build takes nine minutes",
         "quote": "build takes nine minutes"},
    ])))
    objects = RemoteExtractor(config, transport).extract(turn, [], ExtractionPass.FIRST)
    assert [(o.kind, o.content) for o in objects] == [
        (ObjectKind.KEY_FACT, "build takes nine minutes")]


def test_remote_extractor_rejects_non_array_reply(config):
    turn = ConversationTurn(index=0, user_text="hello there")
    transport = ScriptedTransport((200, _chat_body('{"kind": "KEY_FACT"}')))
    with pytest.raises(MalformedResponseError):
        RemoteExtractor(config, transport).extract(turn, [], ExtractionPass.FIRST)
    transport = ScriptedTransport((200, _chat_body("not json at all")))
    with pytest.raises(MalformedResponseError):
        RemoteExtractor(config, transport).extract(turn, [], ExtractionPass.FIRST)


def test_remote_extractor_clamps_confidence(config):
    turn = ConversationTurn(index=0, user_text="the build takes nine minutes")
    transport = ScriptedTransport((200, _extractor_reply([
        {"kind": "KEY_FACT", "content": "build takes nine minutes",
         "quote": "build takes nine minutes", "confidence": 7.5},
    ])))
    objects = RemoteExtractor(config, transport).extract(turn, [], ExtractionPass.FIRST)
    assert objects[0].confidence == 1.0


def test_backend_config_dump_never_contains_key_material(config, monkeypatch):
    monkeypatch.setenv("CANVASMEM_TEST_KEY", "sk-super-secret")
    dumped = json.dumps(config.to_dict())
    assert "sk-super-secret" not in dumped
    assert config.api_key_env in dumped


def test_echo_answerer_returns_context_and_counts():
    echo = EchoAnswerer()
    assert echo.answer("q1", "context block one") == "context block one"
    assert echo.answer("q2", "context block two") == "context block two"
    assert echo.calls == 2


def test_first_sentence_summarizer_drops_later_sentences():
    text = (
        "User: Morning everyone. KEY_FACT: the api key rotates monthly\n"
        "Assistant: Noted with thanks. I filed it away for later."
    )
    summary = FirstSentenceSummarizer().summarize(text)
    assert summary == "User: Morning everyone.\nAssistant: Noted with thanks."
    assert "rotates" not in summary


def test_first_sentence_summarizer_keeps_unpunctuated_lines():
    assert FirstSentenceSummarizer().summarize("no punctuation here") == "no punctuation here"


def test_mock_bundle_wiring():
    bundle = mock_bundle()
    assert bundle.reranker is None
    assert bundle.answerer.answer("q", "ctx") == "ctx"
    turn = ConversationTurn(index=0, user_text="KEY_FACT: water the plant")
    assert bundle.extractor.extract(turn, [], ExtractionPass.FIRST)[0].content == "water the plant"
    assert len(bundle.embedder.embed("hello")) == 256
