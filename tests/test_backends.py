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
    TransportStats,
    mock_bundle,
    remote_chat,
    remote_embed,
    remote_rerank,
)
from canvasmem.core import ObjectKind, Source
from canvasmem.errors import (
    AuthFailureError,
    MalformedResponseError,
    TransportTimeoutError,
)
from canvasmem.extraction import ConversationTurn, ExtractionPass


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


def test_remote_chat_roundtrip(config):
    transport = ScriptedTransport((200, _chat_body("hello back")))
    stats = TransportStats()
    reply = remote_chat(config, "hello", temperature=0.25, transport=transport, stats=stats)
    assert reply == "hello back"
    assert stats.calls == 1 and stats.retries == 0
    url, payload, headers = transport.requests[0]
    assert url == "https://example.invalid/v1/chat/completions"
    assert payload["temperature"] == 0.25
    assert payload["messages"] == [{"role": "user", "content": "hello"}]
    assert headers["Authorization"] == "Bearer sk-unit-test"


def test_missing_api_key_fails_before_any_network_call(config, monkeypatch):
    monkeypatch.delenv("CANVASMEM_TEST_KEY")
    transport = ScriptedTransport()
    with pytest.raises(AuthFailureError) as excinfo:
        remote_chat(config, "hello", transport=transport)
    assert transport.requests == []
    assert excinfo.value.role == "chat"


def test_server_auth_rejection_is_typed(config):
    transport = ScriptedTransport((401, {"error": "nope"}))
    with pytest.raises(AuthFailureError):
        remote_chat(config, "hello", transport=transport)


def test_transient_5xx_retries_then_succeeds(config):
    transport = ScriptedTransport(
        (503, None),
        (200, _chat_body("eventually fine")),
    )
    stats = TransportStats()
    assert remote_chat(config, "hello", transport=transport, stats=stats) == "eventually fine"
    assert stats.calls == 2 and stats.retries == 1


def test_exhausted_retries_raise_timeout_error(config):
    transport = ScriptedTransport((500, None), (502, None), (503, None))
    stats = TransportStats()
    with pytest.raises(TransportTimeoutError):
        remote_chat(config, "hello", transport=transport, stats=stats)
    # max_retries=2 means three attempts in total.
    assert stats.calls == 3 and stats.retries == 2


def test_transport_timeouts_are_retried(config):
    transport = ScriptedTransport(
        requests.Timeout("too slow"),
        (200, _chat_body("made it")),
    )
    assert remote_chat(config, "hello", transport=transport) == "made it"


def test_connection_errors_are_retried_then_typed(config):
    transport = ScriptedTransport(
        requests.ConnectionError("connection refused"),
        requests.ConnectionError("connection reset"),
        (200, _chat_body("made it")),
    )
    stats = TransportStats()
    assert remote_chat(config, "hello", transport=transport, stats=stats) == "made it"
    assert stats.calls == 3 and stats.retries == 2

    transport = ScriptedTransport(*[requests.ConnectionError("connection refused")] * 3)
    stats = TransportStats()
    with pytest.raises(TransportTimeoutError) as caught:
        remote_embed(config, ["hello"], transport=transport, stats=stats)
    assert caught.value.role == "embedder"
    assert stats.calls == 3 and stats.retries == 2
    assert transport.queue == []


def test_non_retryable_4xx_is_malformed_response(config):
    transport = ScriptedTransport((422, {"error": "bad request"}))
    with pytest.raises(MalformedResponseError):
        remote_chat(config, "hello", transport=transport)


def test_chat_missing_content_is_malformed(config):
    transport = ScriptedTransport((200, {"choices": []}))
    with pytest.raises(MalformedResponseError):
        remote_chat(config, "hello", transport=transport)


def test_remote_embed_reorders_by_index(config):
    transport = ScriptedTransport((200, {"data": [
        {"index": 1, "embedding": [0.0, 1.0]},
        {"index": 0, "embedding": [1.0, 0.0]},
    ]}))
    vectors = remote_embed(config, ["first", "second"], transport=transport)
    assert vectors == [[1.0, 0.0], [0.0, 1.0]]


def test_remote_embed_empty_batch_skips_network(config):
    transport = ScriptedTransport()
    assert remote_embed(config, [], transport=transport) == []
    assert transport.requests == []


@pytest.mark.parametrize(
    "body",
    [
        {"data": [{"index": 0, "embedding": [1.0]}]},  # count mismatch
        {"data": [
            {"index": 0, "embedding": [1.0, 0.0]},
            {"index": 0, "embedding": [0.0, 1.0]},
        ]},  # duplicate index
        {"data": [
            {"index": 0, "embedding": [1.0, 0.0]},
            {"index": 1, "embedding": [0.0, 1.0, 0.5]},
        ]},  # inconsistent dimension
        {"wrong": []},
        {"data": [
            {"index": 0, "embedding": [1.0, float("nan")]},
            {"index": 1, "embedding": [0.0, 1.0]},
        ]},  # a NaN component
        {"data": [
            {"index": 0, "embedding": [1.0, 0.0]},
            {"index": 1, "embedding": ["-Infinity", 1.0]},
        ]},  # an infinite component
    ],
)
def test_remote_embed_malformed_bodies(config, body):
    transport = ScriptedTransport((200, body))
    with pytest.raises(MalformedResponseError):
        remote_embed(config, ["first", "second"], transport=transport)


def test_remote_rerank_orders_scores_by_document(config):
    transport = ScriptedTransport((200, {"results": [
        {"index": 1, "relevance_score": 0.9},
        {"index": 0, "relevance_score": 0.1},
    ]}))
    scores = remote_rerank(config, "q", ["doc a", "doc b"], transport=transport)
    assert scores == [0.1, 0.9]


def test_remote_rerank_missing_document_is_malformed(config):
    transport = ScriptedTransport((200, {"results": [
        {"index": 0, "relevance_score": 0.5},
    ]}))
    with pytest.raises(MalformedResponseError):
        remote_rerank(config, "q", ["doc a", "doc b"], transport=transport)


@pytest.mark.parametrize("score", ["NaN", float("nan"), "Infinity"])
def test_remote_rerank_rejects_a_score_that_is_not_finite(config, score):
    transport = ScriptedTransport((200, {"results": [
        {"index": 0, "relevance_score": 0.5},
        {"index": 1, "relevance_score": score},
    ]}))
    with pytest.raises(MalformedResponseError, match="not finite"):
        remote_rerank(config, "q", ["doc a", "doc b"], transport=transport)


def test_a_json_number_too_large_for_a_double_is_malformed(config):
    # json.loads reads 1e400 as inf, but an integer literal stays an int
    # that float() cannot convert.
    huge = 10 ** 400
    embed = ScriptedTransport((200, {"data": [{"index": 0, "embedding": [huge, 1.0]}]}))
    with pytest.raises(MalformedResponseError, match="bad embedding record"):
        remote_embed(config, ["first"], transport=embed)
    rerank = ScriptedTransport((200, {"results": [{"index": 0, "relevance_score": huge}]}))
    with pytest.raises(MalformedResponseError, match="bad rerank record"):
        remote_rerank(config, "q", ["doc a"], transport=rerank)


def test_remote_embedder_and_reranker_adapters(config):
    embed_transport = ScriptedTransport((200, {"data": [{"index": 0, "embedding": [0.6, 0.8]}]}))
    assert RemoteEmbedder(config, embed_transport).embed("hi") == [0.6, 0.8]

    rerank_transport = ScriptedTransport((200, {"results": [
        {"index": 0, "relevance_score": 0.2},
        {"index": 1, "relevance_score": 0.7},
    ]}))
    ranked = RemoteReranker(config, rerank_transport).rerank(
        "q", [("id-a", "text a"), ("id-b", "text b")]
    )
    assert ranked == [("id-a", 0.2), ("id-b", 0.7)]


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
        {"kind": "KEY_FACT", "content": "build takes nine minutes",
         "quote": "build takes nine minutes"},
    ])))
    objects = RemoteExtractor(config, transport).extract(turn, [], ExtractionPass.FIRST)
    assert [o.kind for o in objects] == [ObjectKind.KEY_FACT]


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
