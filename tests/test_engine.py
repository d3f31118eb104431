from __future__ import annotations

import numpy as np
import pytest

import canvasmem.scoring
from canvasmem.engine import CanvasEngine, IngestReport
from canvasmem.errors import (BackendFailureError, DimensionMismatchError, InvalidObjectError,
                              SequenceError, ZeroVectorError)
from canvasmem.extraction import ConversationTurn, ExtractionPass, MockExtractor
from canvasmem.scoring import MockEmbedder

from conftest import CountingEmbedder, seeded_turns


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
        duplicates=0,
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
    assert engine.diagnostics.failed_turns == 1
    # The failed turn still advances the cursor, so ordering stays intact.
    assert engine.graph.next_turn == 3


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
    (lambda vector: [0.0] * len(vector), ZeroVectorError, 1),
    # With no vector stored yet, the turn's first vector fixes the dimension.
    (lambda vector: vector + [0.5], DimensionMismatchError, 0),
    # add_object's validate() refuses an embedding that is not a list.
    (np.asarray, InvalidObjectError, 1),
], ids=["short", "zero", "first-turn", "numpy"])
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
    before = (list(graph.rows), list(graph.edges), graph.next_turn)
    turn = turns[1] if earlier_turns else _turn(0, user=turns[1].user_text)
    with pytest.raises(error):
        engine.ingest_turn(turn)
    assert (graph.rows, graph.edges, graph.next_turn) == before
    embedder.spoiling = False
    assert len(engine.ingest_turn(turn)) == 2
    clean = _engine()
    clean.ingest(turns[1 - earlier_turns:1] + [turn])
    assert graph == clean.graph
    # The graph still scores: a later query reads every row.
    assert graph.scoring_index().prepare(MockEmbedder().embed("redis"), "redis")


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
    assert len(rows) > 20 and engine.diagnostics.duplicates == 0
    assert calls == [obj.embedding for obj in rows]
    assert len(engine.graph.scoring_index()) == len(rows)
    assert calls == [obj.embedding for obj in rows]
