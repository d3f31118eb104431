"""Ingestion pipeline: extract, embed, store, and link, one turn at a time.

The engine owns the graph and is the single writer. A turn that makes the
extractor backend fail is logged, counted, and skipped; ingestion continues
with the next turn. An embedder error propagates before anything of the turn
is stored, and so do add_object's InvalidObjectError for a candidate it
would refuse (an embedding that is not a list, say) and the scoring index's
typed error for an embedding it could not score (a vector of another
dimension than the stored ones, or a zero vector), so the same turn can be
retried.

Each candidate's embedding is converted to a float64 vector and norm once,
by check_vectors, and a stored object's index row is written from that
pair. Objects are stored, indexed and linked one at a time, in the
extractor's order, so a candidate links only to the rows stored before it.
A link's edges join the graph and its index in one add_edges call.

Readers query snapshot() output, a read-only graph: a write to it raises
ReadOnlyGraphError. It copies the objects dict and the rows and edges lists
and shares the stored objects (immutable by contract: a change would show
through every snapshot), the scoring index's columns and the encode cache.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .core import AddResult, CanvasGraph, CanvasObject
from .errors import BackendFailureError
from .extraction import (
    ConversationTurn,
    ExtractionDiagnostics,
    ExtractorBackend,
    extract_turn,
)
from .graph_build import LinkThresholds, link_object
from .scoring import EmbedderBackend

logger = logging.getLogger(__name__)


@dataclass
class IngestReport:
    """What one ingest() call did to the graph."""

    turns_ingested: int = 0
    turns_skipped: int = 0
    objects_added: int = 0
    duplicates: int = 0
    dropped_quotes: int = 0
    edges_added: int = 0


class CanvasEngine:
    """Drives sequential ingestion and hands out read snapshots."""

    def __init__(
        self,
        extractor: ExtractorBackend,
        embedder: EmbedderBackend,
        thresholds: LinkThresholds | None = None,
        gleaning: bool = True,
    ):
        self.extractor = extractor
        self.embedder = embedder
        self.thresholds = thresholds if thresholds is not None else LinkThresholds()
        self.gleaning = gleaning
        self.graph = CanvasGraph()
        self.diagnostics = ExtractionDiagnostics()

    def ingest_turn(self, turn: ConversationTurn) -> list[CanvasObject]:
        """Process one turn; returns the objects that were newly added."""
        with self.graph.lock:
            return self._ingest_turn_locked(turn)

    def _ingest_turn_locked(self, turn: ConversationTurn) -> list[CanvasObject]:
        try:
            candidates = extract_turn(
                self.extractor, turn, self.graph, self.gleaning, self.diagnostics
            )
        except BackendFailureError as exc:
            logger.warning("skipping turn %d: %s", turn.index, exc)
            self.diagnostics.failed_turns += 1
            self.graph.mark_turn_ingested(turn.index)
            return []
        # Embed and validate every candidate before storing any: an embedder
        # error or an object add_object would refuse then leaves the graph
        # and its turn cursor as they were, so the turn can be retried, and
        # no object is assigned to once it is stored.
        for obj in candidates:
            if obj.embedding is None:
                obj.embedding = self.embedder.embed(obj.content)
            obj.validate()
        # A vector the index could not score would make every later ingest
        # and query raise; refuse it while the turn can still be retried.
        # Each stored object's index row takes its checked vector and norm.
        vectors = self.graph.scoring_index().check_vectors([obj.embedding for obj in candidates])
        added: list[CanvasObject] = []
        for obj, vector in zip(candidates, vectors):
            if self.graph.add_object(obj, vector) is AddResult.ADDED:
                link_object(self.graph, obj, self.thresholds)
                added.append(obj)
            else:
                self.diagnostics.duplicates += 1
        self.graph.mark_turn_ingested(turn.index)
        return added

    def ingest(self, turns: Iterable[ConversationTurn]) -> IngestReport:
        """Ingest turns in order and summarize what happened."""
        report = IngestReport()
        edges_before = len(self.graph.edges)
        dropped_before = self.diagnostics.dropped_quotes
        duplicates_before = self.diagnostics.duplicates
        failed_before = self.diagnostics.failed_turns
        for turn in turns:
            added = self.ingest_turn(turn)
            report.objects_added += len(added)
            report.turns_ingested += 1
        report.turns_skipped = self.diagnostics.failed_turns - failed_before
        report.turns_ingested -= report.turns_skipped
        report.duplicates = self.diagnostics.duplicates - duplicates_before
        report.dropped_quotes = self.diagnostics.dropped_quotes - dropped_before
        report.edges_added = len(self.graph.edges) - edges_before
        return report

    def snapshot(self) -> CanvasGraph:
        """Consistent read copy of the graph; safe to use while ingesting."""
        with self.graph.lock:
            return self.graph.snapshot()
