"""Ingestion pipeline: extract, embed, store, and link, one turn at a time.

The engine owns the graph and is the single writer. It counts what each
turn did into one IngestReport, `report`. A turn's dropped candidates join
it only when the turn is stored or skipped, so a turn that raises and is
retried counts them once. A turn that makes the extractor backend fail is
logged, counted as skipped, and ingestion continues with the next turn.
An embedder error propagates before anything of the turn is stored, and
so do the InvalidObjectError of a stored object's constructor (an
embedding that is not a list, a component that is no number, such as
None or a string, one no save could write, a NaN or an infinity, or a
norm outside [1e-150, 1e150], a zero vector's included, which the
scoring screen cannot bound) and the DimensionMismatchError that core
raises for an embedding of another length than the stored ones (or, on
an empty graph, than the turn's first), so the same turn can be retried. An extractor that builds a
Candidate its checks refuse (a quote holding a lone surrogate) fails its
turn as any extractor error does. So every object the engine stores can be
saved and scored.

The engine builds each stored object once, from a candidate and the
embedder's vector for its content, so a stored object is checked and its
id hashed once, by its own constructor, and its embedding's length is
checked by core.

Each object's embedding is converted to a float64 array once, by its
constructor. Before it stores any of a turn's objects, the engine checks
them all with CanvasGraph.check_embeddings, which raises what add_object
would, so a turn is stored whole or not at all. Objects are then stored
and linked one at a time, in the extractor's order, so a candidate links
only to the rows stored before it. link_object's catch-up of the scoring
index writes each object's row, the only path by which a row is written:
it views that array, without a copy, and computes its norm once. A link's
edges join the graph and its index in one add_edges call.

Readers query snapshot() output, a read-only graph: a write to it raises
ReadOnlyGraphError. It copies the objects dict and the rows and edges lists
and shares the stored objects (immutable by contract: a change would show
through every snapshot), the scoring index's columns and the encode cache.
"""

from __future__ import annotations

import logging
from dataclasses import astuple, dataclass
from typing import Iterable

from .core import CanvasGraph, CanvasObject
from .errors import BackendFailureError
from .extraction import ConversationTurn, ExtractorBackend, extract_turn
from .graph_build import LinkThresholds, link_object
from .scoring import EmbedderBackend

logger = logging.getLogger(__name__)


@dataclass
class IngestReport:
    """What ingest did to a graph: an engine's running totals, or one
    ingest() call's share of them. dropped_quotes counts the candidates
    extract_turn dropped (ungrounded, or for another turn)."""

    turns_ingested: int = 0
    turns_skipped: int = 0
    objects_added: int = 0
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
        self.report = IngestReport()

    def ingest_turn(self, turn: ConversationTurn) -> list[CanvasObject]:
        """Process one turn; returns the objects that were newly added."""
        with self.graph.lock:
            return self._ingest_turn_locked(turn)

    def _ingest_turn_locked(self, turn: ConversationTurn) -> list[CanvasObject]:
        report = self.report
        # extract_turn counts the turn's drops here; they join `report` only
        # when the turn is stored or skipped, never for a try that raises.
        this_turn = IngestReport()
        try:
            candidates = extract_turn(self.extractor, turn, self.graph, self.gleaning, this_turn)
        except BackendFailureError as exc:
            logger.warning("skipping turn %d: %s", turn.index, exc)
            report.turns_skipped += 1
            report.dropped_quotes += this_turn.dropped_quotes
            self.graph.mark_turn_ingested(turn.index)
            return []
        # Build every object to store before storing any: an embedder error
        # or an embedding the constructor refuses then leaves the graph and
        # its turn cursor as they were, so the turn can be retried.
        stored = [
            CanvasObject(candidate.kind, candidate.content, candidate.quote, candidate.source,
                         candidate.turn, candidate.confidence,
                         self.embedder.embed(candidate.content))
            for candidate in candidates
        ]
        # add_object would refuse an embedding of another dimension midway
        # through the turn; refuse the turn's objects before storing any, so
        # that it can be retried.
        self.graph.check_embeddings(stored)
        # Every object is new: extract_turn merges the candidates by (kind,
        # normalized content) and keeps only those of this turn, which no
        # stored object has reached, and an id hashes its turn.
        for obj in stored:
            self.graph.add_object(obj)
            # link_object's catch-up writes obj's index row.
            report.edges_added += len(link_object(self.graph, obj, self.thresholds))
        self.graph.mark_turn_ingested(turn.index)
        report.turns_ingested += 1
        report.objects_added += len(stored)
        report.dropped_quotes += this_turn.dropped_quotes
        return stored

    def ingest(self, turns: Iterable[ConversationTurn]) -> IngestReport:
        """Ingest turns in order; returns what these turns added to `report`."""
        before = astuple(self.report)
        for turn in turns:
            self.ingest_turn(turn)
        return IngestReport(*(now - then for now, then in zip(astuple(self.report), before)))

    def snapshot(self) -> CanvasGraph:
        """Consistent read copy of the graph; safe to use while ingesting."""
        with self.graph.lock:
            return self.graph.snapshot()
