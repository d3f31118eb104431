from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np
import pytest

import canvasmem.core
import canvasmem.scoring
from canvasmem.core import CanvasObject, object_id, serialize_graph
from canvasmem.engine import CanvasEngine, IngestReport
from canvasmem.errors import (BackendFailureError, DimensionMismatchError, InvalidObjectError,
                              SequenceError)
from canvasmem.extraction import ConversationTurn, ExtractionPass, MockExtractor
from canvasmem.scoring import MockEmbedder

from conftest import CountingEmbedder, make_candidate, seeded_turns, whole_document


def _engine(extractor=None, gleaning=True):
    return CanvasEngine(
        extractor=extractor if extractor is not None else MockExtractor(),
        embedder=MockEmbedder(),
        gleaning=gleaning,
    )


def _turn(index, user="", assistant=""):
    return ConversationTurn(index=index, user_text=user, assistant_text=assistant)


def test_ingest_builds_objects_edges_and_report():
    engine = _engine()
    report = engine.ingest([
        _turn(
            0,
            user="KEY_FACT: the api gateway times out after 30 seconds",
            # Same fact restated by the other speaker collapses in extraction.
            assistant="Right. KEY_FACT: the api gateway times out after 30 seconds",
        ),
        _turn(1, user="DECISION: we will cache responses in redis"),
        _turn(2, user="small talk only"),
    ])
    assert report == IngestReport(
        turns_ingested=3,
        turns_skipped=0,
        objects_added=2,
        dropped_quotes=0,
        edges_added=report.edges_added,
    )
    assert report.edges_added >= 1  # temporal fact -> decision link
    assert len(engine.graph.objects) == 2
    assert engine.graph.next_turn == 3


def test_every_stored_object_gets_an_embedding():
    engine = _engine()
    engine.ingest([_turn(0, user="KEY_FACT: the deploy freeze starts friday")])
    for obj in engine.graph.objects.values():
        assert obj.embedding is not None
        assert len(obj.embedding) == 256


class _FlakyExtractor:
    """Fails on one configured turn index, delegates otherwise."""

    def __init__(self, fail_on: int):
        self.fail_on = fail_on
        self.inner = MockExtractor()

    def extract(self, turn, prior_digest, pass_):
        if turn.index == self.fail_on:
            raise BackendFailureError("synthetic outage", role="extractor", turn=turn.index)
        return self.inner.extract(turn, prior_digest, pass_)


def test_failed_turn_is_skipped_and_ingestion_continues():
    engine = _engine(extractor=_FlakyExtractor(fail_on=1))
    report = engine.ingest([
        _turn(0, user="KEY_FACT: the api gateway times out after 30 seconds"),
        _turn(1, user="KEY_FACT: this one never makes it in"),
        _turn(2, user="DECISION: we will cache responses in redis"),
    ])
    assert report.turns_ingested == 2
    assert report.turns_skipped == 1
    assert report.objects_added == 2
    assert engine.report.turns_skipped == 1
    # The failed turn still advances the cursor, so ordering stays intact.
    assert engine.graph.next_turn == 3


class _FabricatingExtractor(_FlakyExtractor):
    """_FlakyExtractor, plus on each first pass one candidate whose quote
    the turn never said."""

    def extract(self, turn, prior_digest, pass_):
        found = super().extract(turn, prior_digest, pass_)
        if pass_ is ExtractionPass.FIRST:
            found.append(make_candidate(content=f"made up {turn.index}", quote="never said",
                                        turn=turn.index))
        return found


def test_the_report_counts_every_turn_and_ingest_returns_its_own_share():
    engine = _engine(extractor=_FabricatingExtractor(fail_on=7))
    turns = seeded_turns(3, 12)
    for turn in turns[:4]:
        engine.ingest_turn(turn)
    assert engine.report == IngestReport(turns_ingested=4, turns_skipped=0,
                                         objects_added=len(engine.graph.objects),
                                         dropped_quotes=4, edges_added=len(engine.graph.edges))
    objects, edges = len(engine.graph.objects), len(engine.graph.edges)
    report = engine.ingest(turns[4:])
    assert report == IngestReport(turns_ingested=7, turns_skipped=1,
                                  objects_added=len(engine.graph.objects) - objects,
                                  dropped_quotes=7,
                                  edges_added=len(engine.graph.edges) - edges)
    assert report.objects_added > 0 and report.edges_added > 0
    assert engine.report == IngestReport(turns_ingested=11, turns_skipped=1,
                                         objects_added=len(engine.graph.objects),
                                         dropped_quotes=11,
                                         edges_added=len(engine.graph.edges))


def test_a_retried_turn_counts_its_dropped_candidates_once():
    engine = CanvasEngine(_FabricatingExtractor(fail_on=-1), CountingEmbedder(fail_on_call=1))
    turn = _turn(0, user="KEY_FACT: the api gateway times out after 30 seconds")
    with pytest.raises(BackendFailureError):
        engine.ingest_turn(turn)
    assert engine.report == IngestReport()
    engine.ingest_turn(turn)
    assert engine.report == IngestReport(turns_ingested=1, objects_added=1, dropped_quotes=1)


def test_out_of_order_turn_raises():
    engine = _engine()
    engine.ingest([_turn(0, user="small talk")])
    with pytest.raises(SequenceError):
        engine.ingest_turn(_turn(5, user="way ahead"))


def test_snapshot_is_isolated_from_later_ingestion():
    engine = _engine()
    engine.ingest([_turn(0, user="KEY_FACT: the retention window is 90 days")])
    frozen = engine.snapshot()
    engine.ingest([_turn(1, user="KEY_FACT: uploads are capped at 100 megabytes")])
    assert len(frozen.objects) == 1
    assert len(engine.graph.objects) == 2


def test_gleaning_flag_disables_second_pass():
    text = "KEY_FACT: the first pass fact GLEAN: the gleaned extra fact"
    with_glean = _engine(gleaning=True)
    with_glean.ingest([_turn(0, user=text)])
    without = _engine(gleaning=False)
    without.ingest([_turn(0, user=text)])
    contents = {o.content for o in with_glean.graph.objects.values()}
    assert "the gleaned extra fact" in contents
    assert len(without.graph.objects) == 1


def test_embedder_error_leaves_the_graph_untouched_and_the_turn_retryable():
    engine = CanvasEngine(MockExtractor(), CountingEmbedder(fail_on_call=2))
    turn = _turn(0, user="KEY_FACT: the api gateway times out after 30 seconds\n"
                         "DECISION: we will cache responses in redis")
    with pytest.raises(BackendFailureError):
        engine.ingest_turn(turn)
    graph = engine.graph
    assert (graph.objects, graph.rows, graph.edges, graph.next_turn) == ({}, [], [], 0)
    added = engine.ingest_turn(turn)
    clean = _engine()
    clean.ingest_turn(turn)
    assert len(added) == 2
    assert graph == clean.graph
    assert graph.next_turn == 1


class _SpoilingEmbedder:
    """MockEmbedder whose call number `spoil_on` (from 1) returns
    spoil(vector) instead, while `spoiling` is set."""

    def __init__(self, spoil, spoil_on):
        self.inner, self.spoil, self.spoil_on = MockEmbedder(), spoil, spoil_on
        self.calls, self.spoiling = 0, True

    def embed(self, text):
        self.calls += 1
        vector = self.inner.embed(text)
        return self.spoil(vector) if self.spoiling and self.calls == self.spoil_on else vector


@pytest.mark.parametrize("spoil, error, earlier_turns", [
    (lambda vector: vector[:-1], DimensionMismatchError, 1),
    # With no vector stored yet, the turn's first vector fixes the dimension.
    (lambda vector: vector + [0.5], DimensionMismatchError, 0),
    # The engine's check of each embedded candidate refuses an embedding
    # that is not a list, one no save can write, a zero vector and a
    # component that is no number.
    (lambda vector: [0.0] * len(vector), InvalidObjectError, 1),
    (np.asarray, InvalidObjectError, 1),
    (lambda vector: vector[:-1] + [math.nan], InvalidObjectError, 1),
    (lambda vector: [math.inf] + vector[1:], InvalidObjectError, 1),
    (lambda vector: vector[:-1] + [None], InvalidObjectError, 1),
    (lambda vector: ["a word"] + vector[1:], InvalidObjectError, 1),
], ids=["short", "first-turn", "zero", "numpy", "nan", "inf", "none", "string"])
def test_an_unscorable_embedding_stores_nothing_and_the_turn_is_retryable(
        spoil, error, earlier_turns):
    turns = [
        _turn(0, user="KEY_FACT: the api gateway times out after 30 seconds"),
        _turn(1, user="KEY_FACT: redis holds the session cache\n"
                      "DECISION: we will cache responses in redis"),
    ]
    embedder = _SpoilingEmbedder(spoil, spoil_on=earlier_turns + 2)
    engine = CanvasEngine(MockExtractor(), embedder)
    engine.ingest(turns[1 - earlier_turns:1])
    graph = engine.graph
    saved = serialize_graph(graph)
    before = (list(graph.rows), list(graph.edges), graph.next_turn)
    turn = turns[1] if earlier_turns else _turn(0, user=turns[1].user_text)
    with pytest.raises(error):
        engine.ingest_turn(turn)
    assert (graph.rows, graph.edges, graph.next_turn) == before
    assert serialize_graph(graph) == whole_document(graph) == saved
    embedder.spoiling = False
    assert len(engine.ingest_turn(turn)) == 2
    clean = _engine()
    clean.ingest(turns[1 - earlier_turns:1] + [turn])
    assert graph == clean.graph
    assert serialize_graph(graph) == whole_document(graph)
    # The graph still scores: a later query reads every row.
    assert graph.scoring_index().prepare(MockEmbedder().embed("redis"), "redis")


class _SurrogateQuoteExtractor:
    """Builds, on each first pass, a candidate whose quote holds a lone
    surrogate, as an extractor decoding a JSON \\ud800 escape might."""

    def extract(self, turn, prior_digest, pass_):
        if pass_ is not ExtractionPass.FIRST:
            return []
        return [make_candidate(quote="lone \ud800 quote", turn=turn.index)]


def test_a_candidate_the_constructor_refuses_fails_its_turn_as_an_extractor_error():
    engine = _engine()
    engine.ingest_turn(_turn(0, user="KEY_FACT: the api gateway times out after 30 seconds"))
    graph = engine.graph
    before = (list(graph.rows), list(graph.edges))
    engine.extractor = _SurrogateQuoteExtractor()
    # The quote is grounded in its turn, so only the constructor refuses it.
    assert engine.ingest_turn(_turn(1, user="the cache lives in redis: lone \ud800 quote")) == []
    assert engine.report.turns_skipped == 1
    assert (graph.rows, graph.edges, graph.next_turn) == (*before, 2)
    assert serialize_graph(graph) == whole_document(graph)
    engine.extractor = MockExtractor()
    later = _turn(2, user="DECISION: we will cache responses in redis")
    assert len(engine.ingest_turn(later)) == 1
    assert serialize_graph(graph) == whole_document(graph)


def test_each_candidate_links_only_to_rows_stored_before_it():
    engine = _engine()
    engine.ingest_turn(_turn(0, user="KEY_FACT: redis holds the session cache\n"
                                      "DECISION: we will keep the session cache in redis"))
    first, second = engine.graph.rows
    # Stored, indexed and linked one at a time: the first candidate's link
    # ran before the second was stored, so every edge points to the second.
    assert engine.graph.edges
    assert {(edge.src, edge.dst) for edge in engine.graph.edges} == {(first.id, second.id)}


def test_ingest_converts_each_stored_embedding_once(monkeypatch):
    calls = []
    vector = canvasmem.scoring._vector
    monkeypatch.setattr(canvasmem.scoring, "_vector",
                        lambda embedding, dim: calls.append(embedding) or vector(embedding, dim))
    engine = _engine()
    engine.ingest(seeded_turns(5, 40))
    rows = engine.graph.rows
    assert len(rows) > 20 and engine.report.objects_added == len(rows)
    assert calls == [obj.embedding for obj in rows]
    assert len(engine.graph.scoring_index()) == len(rows)
    assert calls == [obj.embedding for obj in rows]


def test_ingest_builds_and_hashes_each_stored_object_once(monkeypatch):
    checked, hashed = [], []
    validate, hash_id = CanvasObject.validate, canvasmem.core.object_id
    monkeypatch.setattr(CanvasObject, "validate", lambda obj: checked.append(obj) or validate(obj))
    monkeypatch.setattr(canvasmem.core, "object_id",
                        lambda *fields: hashed.append(fields) or hash_id(*fields))
    engine = _engine()
    engine.ingest(seeded_turns(5, 40))
    rows = engine.graph.rows
    assert len(rows) > 20 and checked == rows
    assert hashed == [(obj.kind, obj.content, obj.turn) for obj in rows]


class _ScriptedExtractor:
    """Returns the same candidates on every call."""

    def __init__(self, candidates):
        self.candidates = candidates

    def extract(self, turn, prior_digest, pass_):
        return list(self.candidates) if pass_ is ExtractionPass.FIRST else []


def test_each_stored_object_is_its_candidate_with_the_embedders_vector():
    text = ("KEY_FACT: the api gateway times out after 30 seconds\n"
            "DECISION: we will cache responses in redis")
    candidates = MockExtractor().extract(_turn(0, user=text), [], ExtractionPass.FIRST)
    assert len(candidates) == 2
    # An embedder that fails on the second candidate stores nothing.
    failing = CanvasEngine(_ScriptedExtractor(candidates), CountingEmbedder(fail_on_call=2))
    with pytest.raises(BackendFailureError):
        failing.ingest_turn(_turn(0, user=text))
    assert failing.graph.rows == []
    engine = CanvasEngine(_ScriptedExtractor(candidates), MockEmbedder())
    added = engine.ingest_turn(_turn(0, user=text))
    assert added == engine.graph.rows
    assert [obj.id for obj in added] == [object_id(c.kind, c.content, c.turn) for c in candidates]
    assert [(obj.kind, obj.content, obj.quote, obj.source, obj.turn, obj.confidence)
            for obj in added] == [astuple(c) for c in candidates]
    assert all(list(obj.embedding) == MockEmbedder().embed(obj.content) for obj in added)
