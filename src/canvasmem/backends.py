"""Pluggable model backends: remote clients and deterministic offline mocks.

Remote calls speak a small JSON-over-HTTP protocol (see README for the wire
shapes). All remote failures surface as typed errors carrying the role that
failed: AuthFailureError, TransportTimeoutError, MalformedResponseError.
Transient failures (5xx replies, timeouts, dropped connections) are retried
a bounded number of times; the calls are idempotent reads, so a retry never
duplicates a side effect.

The default wiring is mock everything: the whole engine and benchmark run
offline with no network access. The HTTP client, requests, is imported only
when a remote client sends a request, so an offline process never loads it.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import re
import time
from dataclasses import asdict, dataclass, field
from importlib import resources
from typing import (
    Any, Callable, NamedTuple, Optional, Protocol, Sequence, Union, runtime_checkable,
)

from .core import CanvasObject, ObjectKind, Source
from .errors import (
    AuthFailureError,
    InvalidObjectError,
    MalformedResponseError,
    TransportTimeoutError,
)
from .extraction import (
    ConversationTurn, ExtractionPass, ExtractorBackend, MockExtractor, quote_matches,
)
from .retrieval import RerankerBackend
from .scoring import EmbedderBackend, MockEmbedder

logger = logging.getLogger(__name__)

DEFAULT_CHAT_MODEL = "gpt-4o-mini"
DEFAULT_EMBED_MODEL = "text-embedding-3-small"
DEFAULT_API_KEY_ENV = "CANVASMEM_API_KEY"

# transport(url, payload, headers, timeout_s) -> (status_code, parsed_body)
Transport = Callable[[str, dict, dict, float], tuple[int, Any]]


@dataclass
class BackendConfig:
    """Connection settings for one remote role.

    Only the name of the API key environment variable is stored; the key
    value itself never lands in a config dump or a result file.
    """

    endpoint: str = "https://api.openai.com/v1"
    model: str = DEFAULT_CHAT_MODEL
    api_key_env: str = DEFAULT_API_KEY_ENV
    timeout_s: float = 30.0
    max_retries: int = 2
    retry_backoff_s: float = 0.5
    temperature_extraction: float = 0.1
    temperature_generation: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TransportStats:
    """Call accounting, mostly so tests can watch the retry path."""

    calls: int = 0
    retries: int = 0


def http_transport(url: str, payload: dict, headers: dict, timeout_s: float) -> tuple[int, Any]:
    """Default transport: a blocking JSON POST via requests."""
    import requests

    response = requests.post(url, json=payload, headers=headers, timeout=timeout_s)
    try:
        body = response.json()
    except ValueError:
        body = None
    return response.status_code, body


def _resolve_key(config: BackendConfig, role: str) -> str:
    key = os.environ.get(config.api_key_env, "").strip()
    if not key:
        raise AuthFailureError(
            f"environment variable {config.api_key_env} is unset or empty", role=role
        )
    return key


def _request(
    config: BackendConfig,
    path: str,
    payload: dict,
    role: str,
    transport: Transport | None = None,
    stats: TransportStats | None = None,
) -> Any:
    """POST with auth, bounded retries on transient failures, typed errors."""
    import requests

    key = _resolve_key(config, role)
    send = transport if transport is not None else http_transport
    url = config.endpoint.rstrip("/") + path
    headers = {"Authorization": f"Bearer {key}"}
    attempts = config.max_retries + 1
    last_status: int | None = None
    for attempt in range(attempts):
        if attempt > 0:
            if stats is not None:
                stats.retries += 1
            if config.retry_backoff_s > 0:
                time.sleep(config.retry_backoff_s * attempt)
        if stats is not None:
            stats.calls += 1
        try:
            status, body = send(url, payload, headers, config.timeout_s)
        except (requests.Timeout, requests.ConnectionError) as exc:
            last_status = None
            logger.warning("%s request failed in transit (attempt %d/%d): %s",
                           role, attempt + 1, attempts, exc)
            continue
        if status in (401, 403):
            raise AuthFailureError(f"server rejected credentials (HTTP {status})", role=role)
        if status >= 500:
            last_status = status
            logger.warning("%s request got HTTP %d (attempt %d/%d)", role, status, attempt + 1, attempts)
            continue
        if not 200 <= status < 300:
            raise MalformedResponseError(f"server rejected request (HTTP {status})", role=role)
        return body
    raise TransportTimeoutError(
        f"gave up after {attempts} attempts (last transient status: {last_status})", role=role
    )


def remote_chat(
    config: BackendConfig,
    prompt: str,
    role: str = "chat",
    temperature: float | None = None,
    transport: Transport | None = None,
    stats: TransportStats | None = None,
) -> str:
    """One chat completion; returns the first choice's message text."""
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": config.temperature_generation if temperature is None else temperature,
    }
    body = _request(config, "/chat/completions", payload, role, transport, stats)
    try:
        text = body["choices"][0]["message"]["content"]
    except (TypeError, KeyError, IndexError) as exc:
        raise MalformedResponseError(f"chat response missing message content: {exc}", role=role) from exc
    if not isinstance(text, str):
        raise MalformedResponseError("chat message content is not a string", role=role)
    return text


def _indexed_records(
    body: Any, key: str, count: int, read: Callable[[Any], Any], what: str, role: str
) -> list:
    """The values of the reply's records under key, each at the position
    its "index" names; read(record) gives a record's value. Every index must
    lie in range and be used once, and a missing one is an error."""
    try:
        records = body[key]
    except (TypeError, KeyError) as exc:
        raise MalformedResponseError(f"{what} response has no {key} list", role=role) from exc
    if not isinstance(records, list):
        raise MalformedResponseError(f"{what} {key} is not a list", role=role)
    values: list = [None] * count
    for record in records:
        try:
            index = record["index"]
            value = read(record)
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise MalformedResponseError(f"bad {what} record: {exc}", role=role) from exc
        if not isinstance(index, int) or not 0 <= index < count or values[index] is not None:
            raise MalformedResponseError(f"bad {what} index {index!r}", role=role)
        values[index] = value
    if None in values:
        raise MalformedResponseError(
            f"{what} response is missing index {values.index(None)}", role=role)
    return values


def remote_embed(
    config: BackendConfig,
    texts: Sequence[str],
    role: str = "embedder",
    transport: Transport | None = None,
    stats: TransportStats | None = None,
) -> list[list[float]]:
    """Embed a batch of texts; output order matches input order."""
    if not texts:
        return []
    payload = {"model": config.model, "input": list(texts)}
    body = _request(config, "/embeddings", payload, role, transport, stats)

    def read(record: Any) -> list[float]:
        vector = [float(v) for v in record["embedding"]]
        if not all(map(math.isfinite, vector)):
            raise MalformedResponseError("embedding has a non-finite component", role=role)
        return vector

    vectors = _indexed_records(body, "data", len(texts), read, "embedding", role)
    if not vectors[0] or any(len(vector) != len(vectors[0]) for vector in vectors):
        raise MalformedResponseError("embedding dimensions are inconsistent", role=role)
    return vectors


def remote_rerank(
    config: BackendConfig,
    query: str,
    documents: Sequence[str],
    role: str = "reranker",
    transport: Transport | None = None,
    stats: TransportStats | None = None,
) -> list[float]:
    """Relevance scores for documents against the query, in document order."""
    if not documents:
        return []
    payload = {"model": config.model, "query": query, "documents": list(documents)}
    body = _request(config, "/rerank", payload, role, transport, stats)

    def read(record: Any) -> float:
        score = float(record["relevance_score"])
        if not math.isfinite(score):
            raise MalformedResponseError(f"rerank score {score!r} is not finite", role=role)
        return score

    return _indexed_records(body, "results", len(documents), read, "rerank", role)


@functools.cache
def _prompt_asset(name: str) -> str:
    return resources.files("canvasmem").joinpath(f"assets/prompts/{name}").read_text(encoding="utf-8")


@runtime_checkable
class AnswerBackend(Protocol):
    """Answers a question given a retrieved context block."""

    def answer(self, question: str, context: str) -> str:
        ...


@runtime_checkable
class SummarizerBackend(Protocol):
    """Compresses rendered transcript text into a summary."""

    def summarize(self, text: str) -> str:
        ...


class RemoteClient:
    """What every remote role client holds: its settings, transport and call accounting."""

    def __init__(self, config: BackendConfig, transport: Transport | None = None,
                 stats: TransportStats | None = None):
        self.config = config
        self.transport = transport
        self.stats = stats

    def _chat(self, prompt: str, role: str, temperature: float) -> str:
        return remote_chat(self.config, prompt, role=role, temperature=temperature,
                           transport=self.transport, stats=self.stats)


class RemoteEmbedder(RemoteClient):
    """EmbedderBackend backed by the remote embeddings endpoint."""

    def embed(self, text: str) -> list[float]:
        return remote_embed(self.config, [text], transport=self.transport, stats=self.stats)[0]


class RemoteReranker(RemoteClient):
    """RerankerBackend backed by the remote rerank endpoint."""

    def rerank(self, query_text: str, candidates: Sequence[tuple[str, str]]) -> list[tuple[str, float]]:
        documents = [text for _, text in candidates]
        scores = remote_rerank(self.config, query_text, documents,
                               transport=self.transport, stats=self.stats)
        return [(cid, score) for (cid, _), score in zip(candidates, scores)]


class RemoteAnswerer(RemoteClient):
    """AnswerBackend that fills the answer prompt and calls chat."""

    def answer(self, question: str, context: str) -> str:
        prompt = _prompt_asset("answer.txt").format(context=context, question=question)
        return self._chat(prompt, "answerer", self.config.temperature_generation)


class RemoteSummarizer(RemoteClient):
    """SummarizerBackend that fills the summarize prompt and calls chat."""

    SUMMARIZE_TEMPERATURE = 0.1

    def summarize(self, text: str) -> str:
        prompt = _prompt_asset("summarize.txt").format(text=text)
        return self._chat(prompt, "summarizer", self.SUMMARIZE_TEMPERATURE)


_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)


class RemoteExtractor(RemoteClient):
    """ExtractorBackend that prompts a chat model and parses its JSON reply.

    Individually malformed records are dropped with a log line; only an
    unparseable response as a whole raises MalformedResponseError.
    """

    def extract(self, turn: ConversationTurn, prior_digest: Sequence[str],
                pass_: ExtractionPass) -> list[CanvasObject]:
        digest = "\n".join(prior_digest) if prior_digest else "(none)"
        if pass_ is ExtractionPass.FIRST:
            prompt = _prompt_asset("extraction_first.txt").format(
                digest=digest, index=turn.index, user=turn.user_text,
                assistant=turn.assistant_text)
        else:
            prompt = _prompt_asset("extraction_glean.txt").format(
                digest=digest, first_pass="(see canvas)", index=turn.index,
                user=turn.user_text, assistant=turn.assistant_text)
        reply = self._chat(prompt, "extractor", self.config.temperature_extraction)
        return _parse_extraction_reply(reply, turn)


def _parse_extraction_reply(reply: str, turn: ConversationTurn) -> list[CanvasObject]:
    text = reply.strip()
    fenced = _FENCE_RE.search(text)
    if fenced:
        text = fenced.group(1).strip()
    try:
        records = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedResponseError(f"extractor reply is not JSON: {exc}", role="extractor") from exc
    if not isinstance(records, list):
        raise MalformedResponseError("extractor reply is not a JSON array", role="extractor")
    objects: list[CanvasObject] = []
    for record in records:
        obj = _record_to_object(record, turn)
        if obj is not None:
            objects.append(obj)
    return objects


def _record_to_object(record: Any, turn: ConversationTurn) -> CanvasObject | None:
    if not isinstance(record, dict):
        logger.debug("dropping non-object extraction record: %r", record)
        return None
    try:
        kind = ObjectKind(str(record["kind"]).strip().upper())
        content = str(record["content"])
        quote = str(record["quote"])
    except (KeyError, ValueError) as exc:
        logger.debug("dropping malformed extraction record (%s): %r", exc, record)
        return None
    raw_source = str(record.get("source", "")).strip().upper()
    if raw_source in (Source.USER.value, Source.ASSISTANT.value):
        source = Source(raw_source)
    else:
        # Infer the speaker from wherever the quote actually appears.
        source = Source.USER if quote_matches(quote, turn.user_text) else Source.ASSISTANT
    try:
        confidence = float(record.get("confidence", 1.0))
    except (TypeError, ValueError):
        confidence = 1.0
    confidence = min(1.0, max(0.0, confidence))
    try:
        return CanvasObject(kind=kind, content=content, quote=quote,
                            source=source, turn=turn.index, confidence=confidence)
    except InvalidObjectError as exc:
        logger.debug("dropping invalid extraction record (%s): %r", exc, record)
        return None


class EchoAnswerer:
    """Offline answering mock: returns the context unchanged.

    This makes benchmark metrics measure exactly what each memory strategy
    put into the context, with no language model in the loop.
    """

    def __init__(self):
        self.calls = 0

    def answer(self, question: str, context: str) -> str:
        self.calls += 1
        return context


class FirstSentenceSummarizer:
    """Offline summarizer mock: keeps only the first sentence of every line.

    Deliberately lossy. Anything stated after the first sentence of a turn
    disappears, which is how real summarizers lose verbatim detail.
    """

    _SENTENCE_RE = re.compile(r"(.+?[.!?])(?:\s|$)")

    def summarize(self, text: str) -> str:
        kept: list[str] = []
        for line in text.splitlines():
            prefix = ""
            body = line
            for tag in ("User: ", "Assistant: "):
                if line.startswith(tag):
                    prefix, body = tag, line[len(tag):]
                    break
            match = self._SENTENCE_RE.match(body.strip())
            kept.append(prefix + (match.group(1) if match else body.strip()))
        return "\n".join(kept)


class Role(NamedTuple):
    """How one backend role is served: its offline tag, what that tag builds, and
    the client a remote mapping builds."""

    offline_tag: str
    offline: Optional[Callable[[], Any]]  # None: passthrough, the role stays empty
    remote: type[RemoteClient]


# The one declaration of the backend roles. The config defaults, build_bundle
# and mock_bundle all read it.
ROLES: dict[str, Role] = {
    "extractor": Role("mock", MockExtractor, RemoteExtractor),
    "embedder": Role("mock", MockEmbedder, RemoteEmbedder),
    "reranker": Role("passthrough", None, RemoteReranker),
    "answerer": Role("mock", EchoAnswerer, RemoteAnswerer),
    "summarizer": Role("mock", FirstSentenceSummarizer, RemoteSummarizer),
}

RoleSetting = Union[str, BackendConfig]


def build_role(name: str, setting: RoleSetting) -> Any:
    """The backend serving role name: the remote client for a mapping, else the
    offline backend its tag names (None for passthrough)."""
    role = ROLES[name]
    if isinstance(setting, BackendConfig):
        return role.remote(setting)
    if setting != role.offline_tag:
        raise ValueError(
            f"unsupported {name} backend setting {setting!r}; "
            f"use {role.offline_tag!r} or an endpoint mapping"
        )
    return None if role.offline is None else role.offline()


@dataclass
class BackendBundle:
    """Every pluggable role in one place, for the benchmark and the CLI."""

    extractor: ExtractorBackend
    embedder: EmbedderBackend
    reranker: Optional[RerankerBackend]
    answerer: AnswerBackend
    summarizer: SummarizerBackend


def mock_bundle() -> BackendBundle:
    """The all-offline bundle; no role touches the network."""
    return BackendBundle(**{name: build_role(name, role.offline_tag) for name, role in ROLES.items()})
