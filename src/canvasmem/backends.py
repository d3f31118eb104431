"""Pluggable model backends: remote clients and deterministic offline mocks.

Each remote role is one client, a RemoteClient subclass built as
RemoteClient(config, transport=None). It owns its BackendConfig, its
transport (http_transport unless one is given), its TransportStats (the
request attempts it made and the retries among them) and its role name,
a class attribute. Its calls speak a small JSON-over-HTTP protocol (see
README for the wire shapes), and every failure surfaces as a typed error
carrying that role: AuthFailureError, TransportTimeoutError,
MalformedResponseError. Transient failures (5xx replies, timeouts, dropped
connections) are retried a bounded number of times; the calls are
idempotent reads, so a retry never repeats a side effect. The counters
are exact for one thread; threads that share a client share its counts.

RemoteExtractor drops, with a debug log line, each reply record that is
malformed or whose fields a Candidate refuses (a content or quote holding a
lone surrogate, which JSON's \\ud800 escape can carry), and keeps the rest,
so every candidate it returns can be stored and saved.

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
from dataclasses import asdict, dataclass
from typing import (
    Any, Callable, NamedTuple, Optional, Protocol, Sequence, Union, runtime_checkable,
)

from .core import ObjectKind, Source
from .errors import (
    AuthFailureError,
    InvalidObjectError,
    MalformedResponseError,
    TransportTimeoutError,
)
from .extraction import (
    Candidate, ConversationTurn, ExtractionPass, ExtractorBackend, MockExtractor, quote_matches,
)
from .retrieval import RerankerBackend
from .scoring import EmbedderBackend, MockEmbedder, read_asset

logger = logging.getLogger(__name__)

DEFAULT_CHAT_MODEL = "gpt-4o-mini"
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
    """A remote client's call accounting: every request attempt, and the
    retries among them."""

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


@functools.cache
def _prompt_asset(name: str) -> str:
    return read_asset(f"prompts/{name}")


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
    """One remote role's client: its settings, its transport (http_transport
    unless one is given), its call accounting, and the role name its typed
    errors carry."""

    role: str
    # Whether a mapping for this role must name its model: BackendConfig's
    # default is a chat model, which an embeddings or rerank endpoint
    # would be sent by mistake.
    needs_model = False

    def __init__(self, config: BackendConfig, transport: Transport | None = None):
        self.config = config
        self.transport = http_transport if transport is None else transport
        self.stats = TransportStats()

    def _post(self, path: str, payload: dict) -> Any:
        """POST with auth, bounded retries on transient failures, typed errors."""
        import requests

        config, role = self.config, self.role
        key = os.environ.get(config.api_key_env, "").strip()
        if not key:
            raise AuthFailureError(
                f"environment variable {config.api_key_env} is unset or empty", role=role
            )
        url = config.endpoint.rstrip("/") + path
        headers = {"Authorization": f"Bearer {key}"}
        attempts = config.max_retries + 1
        last_status: int | None = None
        for attempt in range(attempts):
            if attempt > 0:
                self.stats.retries += 1
                if config.retry_backoff_s > 0:
                    time.sleep(config.retry_backoff_s * attempt)
            self.stats.calls += 1
            try:
                status, body = self.transport(url, payload, headers, config.timeout_s)
            except (requests.Timeout, requests.ConnectionError) as exc:
                last_status = None
                logger.warning("%s request failed in transit (attempt %d/%d): %s",
                               role, attempt + 1, attempts, exc)
                continue
            if status in (401, 403):
                raise AuthFailureError(f"server rejected credentials (HTTP {status})", role=role)
            if status >= 500:
                last_status = status
                logger.warning("%s request got HTTP %d (attempt %d/%d)",
                               role, status, attempt + 1, attempts)
                continue
            if not 200 <= status < 300:
                raise MalformedResponseError(f"server rejected request (HTTP {status})", role=role)
            return body
        raise TransportTimeoutError(
            f"gave up after {attempts} attempts (last transient status: {last_status})", role=role
        )

    def _chat(self, prompt: str, temperature: float) -> str:
        """One chat completion; returns the first choice's message text."""
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
        }
        body = self._post("/chat/completions", payload)
        try:
            text = body["choices"][0]["message"]["content"]
        except (TypeError, KeyError, IndexError) as exc:
            raise MalformedResponseError(
                f"chat response missing message content: {exc}", role=self.role) from exc
        if not isinstance(text, str):
            raise MalformedResponseError("chat message content is not a string", role=self.role)
        return text

    def _records(self, body: Any, key: str, count: int, read: Callable[[Any], Any],
                 what: str) -> list:
        """The values of the reply's records under key, each at the position
        its "index" names; read(record) gives a record's value. Every index
        must lie in range and be used once, and a missing one is an error."""
        role = self.role
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


class RemoteEmbedder(RemoteClient):
    """EmbedderBackend backed by the remote embeddings endpoint."""

    role = "embedder"
    needs_model = True

    def embed(self, text: str) -> list[float]:
        body = self._post("/embeddings", {"model": self.config.model, "input": [text]})

        def read(record: Any) -> list[float]:
            vector = [float(v) for v in record["embedding"]]
            if not all(map(math.isfinite, vector)):
                raise MalformedResponseError("embedding has a non-finite component", role=self.role)
            return vector

        [vector] = self._records(body, "data", 1, read, "embedding")
        if not vector:
            raise MalformedResponseError("embedding has no components", role=self.role)
        return vector


class RemoteReranker(RemoteClient):
    """RerankerBackend backed by the remote rerank endpoint: relevance scores
    for the candidates' texts against the query, in candidate order."""

    role = "reranker"
    needs_model = True

    def rerank(self, query_text: str, candidates: Sequence[tuple[str, str]]) -> list[tuple[str, float]]:
        if not candidates:
            return []
        documents = [text for _, text in candidates]
        body = self._post("/rerank", {"model": self.config.model, "query": query_text,
                                      "documents": documents})

        def read(record: Any) -> float:
            score = float(record["relevance_score"])
            if not math.isfinite(score):
                raise MalformedResponseError(f"rerank score {score!r} is not finite", role=self.role)
            return score

        scores = self._records(body, "results", len(documents), read, "rerank")
        return [(cid, score) for (cid, _), score in zip(candidates, scores)]


class RemoteAnswerer(RemoteClient):
    """AnswerBackend that fills the answer prompt and calls chat."""

    role = "answerer"

    def answer(self, question: str, context: str) -> str:
        prompt = _prompt_asset("answer.txt").format(context=context, question=question)
        return self._chat(prompt, self.config.temperature_generation)


class RemoteSummarizer(RemoteClient):
    """SummarizerBackend that fills the summarize prompt and calls chat."""

    role = "summarizer"
    SUMMARIZE_TEMPERATURE = 0.1

    def summarize(self, text: str) -> str:
        prompt = _prompt_asset("summarize.txt").format(text=text)
        return self._chat(prompt, self.SUMMARIZE_TEMPERATURE)


_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)


class RemoteExtractor(RemoteClient):
    """ExtractorBackend that prompts a chat model and parses its JSON reply.

    Individually malformed records are dropped with a log line; only an
    unparseable response as a whole raises MalformedResponseError.
    """

    role = "extractor"

    def extract(self, turn: ConversationTurn, prior_digest: Sequence[str],
                pass_: ExtractionPass) -> list[Candidate]:
        digest = "\n".join(prior_digest) if prior_digest else "(none)"
        template = ("extraction_first.txt" if pass_ is ExtractionPass.FIRST
                    else "extraction_glean.txt")
        prompt = _prompt_asset(template).format(
            digest=digest, index=turn.index, user=turn.user_text, assistant=turn.assistant_text)
        reply = self._chat(prompt, self.config.temperature_extraction)
        return _parse_extraction_reply(reply, turn)


def _parse_extraction_reply(reply: str, turn: ConversationTurn) -> list[Candidate]:
    text = reply.strip()
    fenced = _FENCE_RE.search(text)
    if fenced:
        text = fenced.group(1).strip()
    try:
        records = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedResponseError(f"extractor reply is not JSON: {exc}", role=RemoteExtractor.role) from exc
    if not isinstance(records, list):
        raise MalformedResponseError("extractor reply is not a JSON array", role=RemoteExtractor.role)
    candidates: list[Candidate] = []
    for record in records:
        candidate = _record_to_candidate(record, turn)
        if candidate is not None:
            candidates.append(candidate)
    return candidates


def _record_to_candidate(record: Any, turn: ConversationTurn) -> Candidate | None:
    if not isinstance(record, dict):
        logger.debug("dropping non-object extraction record: %r", record)
        return None
    try:
        kind = ObjectKind(str(record["kind"]).strip().upper())
        content, quote = record["content"], record["quote"]
        if not isinstance(content, str) or not isinstance(quote, str):
            raise ValueError("content and quote must be strings")
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
        return Candidate(kind=kind, content=content, quote=quote,
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
