"""Turn-level artifact extraction with a second gleaning pass.

extract_turn runs the backend once, then (when gleaning is enabled) a second
time so implicit material gets a chance to surface. Both passes see a digest
of the DIGEST_CAP latest objects by turn (prior_digest); the gleaning pass
additionally sees what the first pass produced. Candidates whose quote is
not a contiguous substring of the source message (case-insensitive,
whitespace-normalized) are dropped regardless of backend: grounding is
enforced here, not trusted. A candidate whose turn is not the turn's index
is dropped too: stored, it would move the graph's turn cursor past the
turns still to come. Both drops count as an IngestReport's dropped_quotes,
when extract_turn is handed the report to count into.

A backend returns Candidate records: checked fields with no id and no
embedding. The engine builds each stored CanvasObject once, from a
candidate and the embedder's vector.
"""

from __future__ import annotations

import logging
import re
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

from .core import (CanvasGraph, ObjectKind, Source, _is_turn, _shown, check_fields,
                   normalize_text)
from .errors import BackendFailureError, SequenceError

if TYPE_CHECKING:
    from .engine import IngestReport

logger = logging.getLogger(__name__)

DIGEST_CAP = 50

# "KIND: ", the start of each digest line, for every kind.
_DIGEST_PREFIXES = {kind: f"{kind.value}: " for kind in ObjectKind}

MARKER_RE = re.compile(r"\b(DECISION|TODO|KEY_FACT|REMINDER|INSIGHT|GLEAN):")
GLEAN_MARKER = "GLEAN"


class ExtractionPass(str, Enum):
    FIRST = "FIRST"
    GLEAN = "GLEAN"


@dataclass
class ConversationTurn:
    """One user/assistant exchange. At least one side must say something."""

    index: int
    user_text: str = ""
    assistant_text: str = ""

    def __post_init__(self):
        if not _is_turn(self.index):
            raise ValueError("turn index must be a non-negative integer below 2**63, "
                             f"got {_shown(self.index)}")
        if not isinstance(self.user_text, str) or not isinstance(self.assistant_text, str):
            raise ValueError("turn texts must be strings")
        if not self.user_text.strip() and not self.assistant_text.strip():
            raise ValueError(f"turn {self.index} is empty on both sides")

    def text_for(self, source: Source) -> str:
        return self.user_text if source is Source.USER else self.assistant_text


@dataclass(frozen=True, slots=True)
class Candidate:
    """One artifact an extractor found in a turn, before it is stored.

    Its fields are checked when it is built, by core.check_fields, the
    checks CanvasObject runs on the same fields, so a record the object's
    constructor would refuse never leaves the extractor that built it. It
    has no id and no embedding: the engine builds the stored CanvasObject
    from it and the embedder's vector, and that object's id hashes
    (kind, normalized content, turn).
    """

    kind: ObjectKind
    content: str
    quote: str
    source: Source
    turn: int
    confidence: float = 1.0

    def __post_init__(self):
        check_fields(self.kind, self.content, self.quote, self.source, self.turn,
                     self.confidence)


@runtime_checkable
class ExtractorBackend(Protocol):
    """Finds the candidates of one turn's pass. A candidate it cannot
    build (a Candidate raises InvalidObjectError) fails the turn, as any
    error the backend raises does."""

    def extract(
        self,
        turn: ConversationTurn,
        prior_digest: Sequence[str],
        pass_: ExtractionPass,
    ) -> list[Candidate]:
        ...


def quote_matches(quote: str, text: str) -> bool:
    """True when the quote is a contiguous substring of the text after
    lowercasing and whitespace normalization on both sides."""
    needle = normalize_text(quote)
    return bool(needle) and needle in _normalized_source(text)


@lru_cache(maxsize=4)
def _normalized_source(text: str) -> str:
    """normalize_text of a source message. Every candidate of both passes is
    checked against its turn's user or assistant text, so each side is
    normalized once per turn."""
    return normalize_text(text)


def prior_digest(graph: CanvasGraph) -> list[str]:
    """Kind-and-content lines for the DIGEST_CAP latest objects by turn,
    stored in any turn order, objects of one turn in their stored order.

    graph.digest_cache holds the number of rows it covers and, for the
    DIGEST_CAP latest of those rows by (turn, row), their keys and lines in
    key order. Each row stored since goes to its place with bisect, latest
    first, and one that cannot enter a full cache is skipped, so a first
    digest after a load of rows in turn order is one comparison a row. The
    cache is replaced in one assignment, never changed in place, so a
    snapshot that shares it never sees it move.
    """
    covered, keys, lines = graph.digest_cache
    rows = graph.rows
    if covered != len(rows):
        keys, lines = list(keys), list(lines)
        for row in reversed(range(covered, len(rows))):
            obj = rows[row]
            key = (obj.turn, row)
            if len(keys) < DIGEST_CAP or key > keys[0]:
                at = bisect_right(keys, key)
                keys.insert(at, key)
                lines.insert(at, _DIGEST_PREFIXES[obj.kind] + obj.content)
                del keys[:-DIGEST_CAP], lines[:-DIGEST_CAP]
        graph.digest_cache = (len(rows), tuple(keys), tuple(lines))
    return list(lines)


def _run_pass(
    backend: ExtractorBackend,
    turn: ConversationTurn,
    digest: Sequence[str],
    pass_: ExtractionPass,
) -> tuple[list[Candidate], int]:
    """The pass's grounded candidates of this turn, and how many it dropped."""
    try:
        candidates = backend.extract(turn, digest, pass_)
    except Exception as exc:
        raise BackendFailureError(
            f"extractor failed on turn {turn.index} ({pass_.value} pass): {exc}",
            role="extractor",
            turn=turn.index,
        ) from exc
    survivors = []
    for candidate in candidates:
        if candidate.turn != turn.index:
            logger.debug("dropped a candidate for turn %d on turn %d: %r",
                         candidate.turn, turn.index, candidate.quote)
        elif not quote_matches(candidate.quote, turn.text_for(candidate.source)):
            logger.debug("dropped ungrounded quote on turn %d: %r", turn.index, candidate.quote)
        else:
            survivors.append(candidate)
    return survivors, len(candidates) - len(survivors)


def extract_turn(
    backend: ExtractorBackend,
    turn: ConversationTurn,
    prior: CanvasGraph,
    gleaning_enabled: bool = True,
    report: IngestReport | None = None,
) -> list[Candidate]:
    """The grounded candidates of one turn, deduplicated across both passes.

    Two candidates are one when they share (kind, normalized content): all
    survivors are of this turn, so that key decides the id of the object
    each becomes, and the first one found is kept.

    Turns must arrive sequentially: after the first ingested turn, turn.index
    has to equal prior.next_turn. A fresh graph accepts any starting index so
    logs may number turns from 0 or 1. The candidates both passes dropped
    are added to report.dropped_quotes, when a report is given.
    """
    if prior.next_turn != 0 and turn.index != prior.next_turn:
        raise SequenceError(
            f"expected turn {prior.next_turn}, got {turn.index}; turns must be sequential"
        )
    digest = prior_digest(prior)
    merged: dict[tuple[ObjectKind, str], Candidate] = {}
    passes = [ExtractionPass.FIRST, ExtractionPass.GLEAN] if gleaning_enabled else [
        ExtractionPass.FIRST]
    for pass_ in passes:
        if pass_ is ExtractionPass.GLEAN:
            digest = digest + [_DIGEST_PREFIXES[candidate.kind] + candidate.content
                               for candidate in merged.values()]
        survivors, dropped = _run_pass(backend, turn, digest, pass_)
        # Counted per pass, so a glean pass that fails still leaves the
        # first pass's drops counted.
        if report is not None:
            report.dropped_quotes += dropped
        for candidate in survivors:
            merged.setdefault((candidate.kind, normalize_text(candidate.content)), candidate)
    return list(merged.values())


@lru_cache(maxsize=4)
def _marked_payloads(text: str) -> tuple[tuple[str, str], ...]:
    """The marker and payload of each non-empty marker payload in text, in
    order. Every marker bounds the previous payload, even markers a pass
    does not emit for. Both passes read both sides of a turn, so each side
    is parsed once per turn."""
    found = []
    for line in text.splitlines():
        matches = list(MARKER_RE.finditer(line))
        for pos, match in enumerate(matches):
            end = matches[pos + 1].start() if pos + 1 < len(matches) else len(line)
            payload = line[match.end():end].strip()
            if payload:
                found.append((match.group(1), payload))
    return tuple(found)


class MockExtractor:
    """Deterministic offline extractor that scans for explicit markers.

    First pass: a line like "DECISION: use redis for caching" yields a
    DECISION object whose content and quote are both the marker payload.
    Gleaning pass: "GLEAN: ..." yields a KEY_FACT the first pass ignores.
    Confidence is always 1.0 so mock runs stay reproducible. The two passes
    of a turn read one parse of each side's markers.
    """

    def extract(
        self,
        turn: ConversationTurn,
        prior_digest: Sequence[str],
        pass_: ExtractionPass,
    ) -> list[Candidate]:
        glean = pass_ is ExtractionPass.GLEAN
        found: list[Candidate] = []
        for source in (Source.USER, Source.ASSISTANT):
            for marker, payload in _marked_payloads(turn.text_for(source)):
                if (marker == GLEAN_MARKER) != glean:
                    continue
                kind = ObjectKind.KEY_FACT if glean else ObjectKind(marker)
                found.append(
                    Candidate(
                        kind=kind,
                        content=payload,
                        quote=payload,
                        source=source,
                        turn=turn.index,
                        confidence=1.0,
                    )
                )
        return found
