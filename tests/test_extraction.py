from __future__ import annotations

import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import canvasmem.extraction
from canvasmem.core import CanvasGraph, ObjectKind, Source, serialize_graph
from canvasmem.engine import CanvasEngine
from canvasmem.errors import BackendFailureError, SequenceError
from canvasmem.extraction import (
    DIGEST_CAP,
    ConversationTurn,
    ExtractionDiagnostics,
    ExtractionPass,
    MockExtractor,
    extract_turn,
    prior_digest,
    quote_matches,
)
from canvasmem.scoring import MockEmbedder

from conftest import graph_of, load_both_ways, make_obj, seeded_turns


def test_turn_validation():
    with pytest.raises(ValueError):
        ConversationTurn(index=-1, user_text="hello")
    with pytest.raises(ValueError):
        ConversationTurn(index=0, user_text="  ", assistant_text="")
    turn = ConversationTurn(index=0, user_text="hello")
    assert turn.text_for(Source.USER) == "hello"
    assert turn.text_for(Source.ASSISTANT) == ""


def test_quote_matches_is_normalized_substring():
    text = "We talked it over and DECIDED:  use   Redis for caching."
    assert quote_matches("decided: use redis", text)
    assert quote_matches("USE REDIS FOR CACHING", text)
    assert not quote_matches("use postgres", text)
    assert not quote_matches("", text)
    assert not quote_matches("   ", text)


def test_mock_extractor_reads_user_and_assistant_markers():
    turn = ConversationTurn(
        index=4,
        user_text="Some filler first. DECISION: cache responses in redis",
        assistant_text="Noted. TODO: write the cache eviction policy",
    )
    found = MockExtractor().extract(turn, [], ExtractionPass.FIRST)
    assert [(o.kind, o.source) for o in found] == [
        (ObjectKind.DECISION, Source.USER),
        (ObjectKind.TODO, Source.ASSISTANT),
    ]
    assert found[0].content == "cache responses in redis"
    assert found[0].quote == "cache responses in redis"
    assert found[0].turn == 4
    assert all(o.confidence == 1.0 for o in found)


def test_mock_extractor_splits_multiple_markers_on_one_line():
    turn = ConversationTurn(
        index=1,
        user_text="KEY_FACT: the api key rotates monthly REMINDER: renew it early",
    )
    found = MockExtractor().extract(turn, [], ExtractionPass.FIRST)
    assert [(o.kind, o.content) for o in found] == [
        (ObjectKind.KEY_FACT, "the api key rotates monthly"),
        (ObjectKind.REMINDER, "renew it early"),
    ]


def test_mock_extractor_glean_pass_only_sees_glean_markers():
    turn = ConversationTurn(
        index=2,
        user_text="DECISION: ship on friday GLEAN: the release window is friday morning",
    )
    first = MockExtractor().extract(turn, [], ExtractionPass.FIRST)
    glean = MockExtractor().extract(turn, [], ExtractionPass.GLEAN)
    assert [o.kind for o in first] == [ObjectKind.DECISION]
    assert [o.kind for o in glean] == [ObjectKind.KEY_FACT]
    assert glean[0].content == "the release window is friday morning"


class _CountingPattern:
    """MARKER_RE, counting the lines it scans."""

    def __init__(self, pattern):
        self.pattern, self.lines = pattern, []

    def finditer(self, line):
        self.lines.append(line)
        return self.pattern.finditer(line)


def test_mock_extractor_parses_each_side_once_for_both_passes(monkeypatch):
    pattern = _CountingPattern(canvasmem.extraction.MARKER_RE)
    monkeypatch.setattr(canvasmem.extraction, "MARKER_RE", pattern)
    canvasmem.extraction._marked_payloads.cache_clear()
    turn = ConversationTurn(
        index=3,
        user_text="DECISION: ship on friday GLEAN: the release window is friday\nTODO:",
        assistant_text="noted. KEY_FACT: staging is frozen",
    )
    objects = extract_turn(MockExtractor(), turn, CanvasGraph())
    assert [(o.kind, o.content) for o in objects] == [
        (ObjectKind.DECISION, "ship on friday"),
        (ObjectKind.KEY_FACT, "staging is frozen"),
        (ObjectKind.KEY_FACT, "the release window is friday"),
    ]
    assert sorted(pattern.lines) == sorted([*turn.user_text.splitlines(), turn.assistant_text])


def test_mock_extractor_ignores_empty_payloads():
    turn = ConversationTurn(index=0, user_text="DECISION:   ")
    assert MockExtractor().extract(turn, [], ExtractionPass.FIRST) == []


def test_extract_turn_merges_passes_and_deduplicates():
    turn = ConversationTurn(
        index=0,
        user_text="DECISION: ship on friday GLEAN: the release window is friday morning",
        assistant_text="GLEAN: the release window is friday morning",
    )
    objects = extract_turn(MockExtractor(), turn, CanvasGraph())
    kinds = sorted(o.kind.value for o in objects)
    # The duplicated glean fact collapses to one object by content hash.
    assert kinds == ["DECISION", "KEY_FACT"]


def test_extract_turn_respects_gleaning_flag():
    turn = ConversationTurn(
        index=0,
        user_text="DECISION: ship on friday GLEAN: the release window is friday morning",
    )
    with_glean = extract_turn(MockExtractor(), turn, CanvasGraph(), gleaning_enabled=True)
    without = extract_turn(MockExtractor(), turn, CanvasGraph(), gleaning_enabled=False)
    assert len(with_glean) == 2
    assert len(without) == 1
    # Gleaning only ever adds objects on top of the first pass.
    assert {o.id for o in without} <= {o.id for o in with_glean}


def test_extract_turn_enforces_sequential_indexes():
    graph = CanvasGraph()
    graph.mark_turn_ingested(3)
    with pytest.raises(SequenceError):
        extract_turn(MockExtractor(), ConversationTurn(index=9, user_text="hi"), graph)
    # The expected next turn is accepted.
    extract_turn(MockExtractor(), ConversationTurn(index=4, user_text="hi"), graph)


def test_extract_turn_fresh_graph_accepts_any_start():
    for start in (0, 1, 17):
        graph = CanvasGraph()
        extract_turn(MockExtractor(), ConversationTurn(index=start, user_text="hi"), graph)


class _UngroundedExtractor:
    """Returns one grounded and one fabricated quote."""

    def extract(self, turn, prior_digest, pass_):
        if pass_ is not ExtractionPass.FIRST:
            return []
        return [
            make_obj(content="grounded fact", quote=turn.user_text, turn=turn.index),
            make_obj(content="fabricated fact", quote="never actually said", turn=turn.index),
        ]


def test_extract_turn_drops_ungrounded_quotes():
    diagnostics = ExtractionDiagnostics()
    turn = ConversationTurn(index=0, user_text="the deploy happens friday")
    objects = extract_turn(_UngroundedExtractor(), turn, CanvasGraph(), diagnostics=diagnostics)
    assert [o.content for o in objects] == ["grounded fact"]
    assert diagnostics.dropped_quotes == 1


class _WrongTurnExtractor:
    """MockExtractor, plus on turn 1 a grounded candidate that says it is
    from turn 1000."""

    def __init__(self):
        self.inner = MockExtractor()

    def extract(self, turn, prior_digest, pass_):
        found = self.inner.extract(turn, prior_digest, pass_)
        if turn.index == 1 and pass_ is ExtractionPass.FIRST:
            found.append(make_obj(content="a fact from later", quote=turn.user_text, turn=1000))
        return found


def test_a_candidate_for_another_turn_is_dropped_and_the_next_turn_ingests(caplog):
    # Stored, it would move the turn cursor to 1001, and every later turn
    # would raise SequenceError.
    turns = seeded_turns(2, 6)
    engine = CanvasEngine(_WrongTurnExtractor(), MockEmbedder())
    with caplog.at_level(logging.DEBUG, logger="canvasmem.extraction"):
        report = engine.ingest(turns)
    clean = CanvasEngine(MockExtractor(), MockEmbedder())
    clean_report = clean.ingest(turns)
    assert (report.dropped_quotes, clean_report.dropped_quotes) == (1, 0)
    assert report.turns_ingested == clean_report.turns_ingested == 6
    assert engine.graph == clean.graph and engine.graph.next_turn == 6
    assert "dropped a candidate for turn 1000 on turn 1" in caplog.text


class _EchoExtractor:
    """On every pass, two grounded candidates and one fabricated one per side."""

    def extract(self, turn, prior_digest, pass_):
        found = []
        for source in (Source.USER, Source.ASSISTANT):
            for word in turn.text_for(source).split()[:2] + ["fabricated words"]:
                found.append(make_obj(content=f"{pass_.value} {source.value} {word}", quote=word,
                                      source=source, turn=turn.index))
        return found


def test_each_side_of_a_turn_is_normalized_once_per_turn(monkeypatch):
    calls = []
    normalize = canvasmem.extraction.normalize_text
    monkeypatch.setattr(canvasmem.extraction, "normalize_text",
                        lambda text: calls.append(text) or normalize(text))
    checks = []
    matches = canvasmem.extraction.quote_matches
    monkeypatch.setattr(canvasmem.extraction, "quote_matches",
                        lambda quote, text: checks.append(quote) or matches(quote, text))
    diagnostics = ExtractionDiagnostics()
    for index in range(3):
        turn = ConversationTurn(index=index, user_text=f"Echo  USER said {index}\tapples",
                                assistant_text=f"echo Assistant replied {index} pears")
        calls.clear()
        checks.clear()
        objects = extract_turn(_EchoExtractor(), turn, CanvasGraph(), diagnostics=diagnostics)
        sides = [text for text in calls if text in (turn.user_text, turn.assistant_text)]
        assert sorted(sides) == sorted([turn.user_text, turn.assistant_text])
        # Every candidate of both passes is still checked, one call each.
        assert len(checks) == 12 and len(objects) == 8
    assert diagnostics.dropped_quotes == 12


class _ExplodingExtractor:
    def extract(self, turn, prior_digest, pass_):
        raise RuntimeError("backend fell over")


def test_extract_turn_wraps_backend_exceptions():
    turn = ConversationTurn(index=7, user_text="hello")
    with pytest.raises(BackendFailureError) as excinfo:
        extract_turn(_ExplodingExtractor(), turn, CanvasGraph())
    assert excinfo.value.role == "extractor"
    assert excinfo.value.turn == 7


class _DigestProbe:
    """Records the digest each pass received."""

    def __init__(self):
        self.seen: dict[ExtractionPass, list[str]] = {}

    def extract(self, turn, prior_digest, pass_):
        self.seen[pass_] = list(prior_digest)
        if pass_ is ExtractionPass.FIRST:
            return [make_obj(content="fresh fact", quote=turn.user_text, turn=turn.index)]
        return []


def test_glean_pass_digest_includes_first_pass_survivors():
    probe = _DigestProbe()
    graph = graph_of(make_obj(content="older fact", turn=0))
    turn = ConversationTurn(index=1, user_text="something new came up")
    extract_turn(probe, turn, graph)
    assert probe.seen[ExtractionPass.FIRST] == ["KEY_FACT: older fact"]
    assert probe.seen[ExtractionPass.GLEAN] == [
        "KEY_FACT: older fact",
        "KEY_FACT: fresh fact",
    ]


def test_prior_digest_caps_at_most_recent_by_turn():
    graph = CanvasGraph()
    total = DIGEST_CAP + 10
    for turn in range(total):
        graph.add_object(make_obj(content=f"fact number {turn}", turn=turn))
    digest = prior_digest(graph)
    assert len(digest) == DIGEST_CAP
    assert digest[0] == "KEY_FACT: fact number 10"
    assert digest[-1] == f"KEY_FACT: fact number {total - 1}"


def oracle_prior_digest(rows):
    """The stable sort of these objects by turn, cut to DIGEST_CAP, read
    when called, so a test may set it."""
    ordered = sorted(rows, key=lambda o: o.turn)
    cap = canvasmem.extraction.DIGEST_CAP
    return [f"{obj.kind.value}: {obj.content}" for obj in ordered[-cap:]]


@settings(max_examples=200, deadline=None)
@given(
    turns=st.lists(st.integers(0, 6), min_size=0, max_size=12),
    in_order=st.booleans(),
    split=st.integers(0, 12),
    cap=st.integers(1, 5),
)
def test_prior_digest_is_the_stable_sort_by_turn(turns, in_order, split, cap):
    if in_order:
        turns.sort()
    objects = [make_obj(content=f"fact {i}", turn=turn) for i, turn in enumerate(turns)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(canvasmem.extraction, "DIGEST_CAP", cap)
        graph = graph_of(*objects[:split])
        snapshots = [graph.snapshot()]
        for obj in objects[split:]:
            graph.add_object(obj)
            snapshots.append(graph.snapshot())
        loaded = load_both_ways(serialize_graph(graph))
        for g in (graph, *snapshots, loaded):
            assert prior_digest(g) == oracle_prior_digest(g.rows)


def test_the_digest_equals_a_fresh_build_after_every_turn():
    engine = CanvasEngine(MockExtractor(), MockEmbedder())
    graph = engine.graph
    for turn in seeded_turns(11, 120):
        engine.ingest_turn(turn)
        assert prior_digest(graph) == oracle_prior_digest(graph.rows)
        covered, keys, lines = graph.digest_cache
        assert covered == len(graph.rows) and len(keys) == len(lines) == min(covered, DIGEST_CAP)
        assert list(keys) == sorted(keys)
    assert len(graph.rows) > DIGEST_CAP


def test_a_snapshot_digest_ignores_later_writes_to_its_owner():
    engine = CanvasEngine(MockExtractor(), MockEmbedder())
    turns = seeded_turns(12, 150)
    engine.ingest(turns[:60])
    early = engine.snapshot()  # shares the owner's digest cache
    engine.ingest(turns[60:100])
    late = engine.snapshot()  # a cache behind its rows
    cache = late.digest_cache
    engine.ingest(turns[100:])
    assert prior_digest(engine.graph) == oracle_prior_digest(engine.graph.rows)
    assert late.digest_cache is cache
    for twin in (early, late):
        assert prior_digest(twin) == oracle_prior_digest(twin.rows)
    assert len(early.rows) < len(late.rows) < len(engine.graph.rows)


def test_rows_out_of_turn_order_go_to_their_place_in_a_filled_cache():
    graph = graph_of(*(make_obj(content=f"fact {turn}", turn=turn) for turn in range(5, 65)))
    assert prior_digest(graph) == oracle_prior_digest(graph.rows)
    graph.add_object(make_obj(content="an early fact stored late", turn=40))
    graph.add_object(make_obj(content="a fact too early to enter", turn=5))
    assert prior_digest(graph) == oracle_prior_digest(graph.rows)
    # Turns 16 to 64, the late row after turn 40's: not appended last.
    digest = prior_digest(graph)
    assert digest[24:26] == ["KEY_FACT: fact 40", "KEY_FACT: an early fact stored late"]
    assert digest[-1] == "KEY_FACT: fact 64"


def test_an_early_turn_stored_late_goes_to_its_place_in_the_digest():
    graph = graph_of(make_obj(content="late", turn=9), make_obj(content="early", turn=1))
    twin = graph.snapshot()
    graph.add_object(make_obj(content="later", turn=12))
    assert prior_digest(twin) == ["KEY_FACT: early", "KEY_FACT: late"]
    assert prior_digest(graph) == ["KEY_FACT: early", "KEY_FACT: late", "KEY_FACT: later"]


class DigestMachine(RuleBasedStateMachine):
    """Stores at drawn turns, in any order and with duplicates, kept
    snapshots and save-and-load round trips under a small DIGEST_CAP: every
    digest is the stable sort by turn, and a kept snapshot's never moves."""

    def __init__(self):
        super().__init__()
        self.patch = pytest.MonkeyPatch()
        self.graph = CanvasGraph()
        self.kept = []  # (snapshot, the oracle's digest when it was taken)

    @initialize(cap=st.integers(1, 4))
    def set_cap(self, cap):
        self.patch.setattr(canvasmem.extraction, "DIGEST_CAP", cap)

    @rule(turn=st.integers(0, 5), content=st.sampled_from(("a", "b", "c")))
    def store(self, turn, content):
        self.graph.add_object(make_obj(content=content, turn=turn))

    @rule()
    def keep_a_snapshot(self):
        twin = self.graph.snapshot()
        self.kept.append((twin, oracle_prior_digest(twin.rows)))

    @rule()
    def save_and_load(self):
        self.graph = load_both_ways(serialize_graph(self.graph))

    @rule()
    def read_the_graph(self):
        assert prior_digest(self.graph) == oracle_prior_digest(self.graph.rows)

    @precondition(lambda self: self.kept)
    @rule(pick=st.integers(0))
    def read_a_snapshot(self, pick):
        twin, digest = self.kept[pick % len(self.kept)]
        assert prior_digest(twin) == digest

    @invariant()
    def each_cache_is_the_digest_of_the_rows_it_covers(self):
        for graph in (self.graph, *(twin for twin, _ in self.kept)):
            covered, keys, lines = graph.digest_cache
            assert len(keys) == len(lines)
            assert list(lines) == oracle_prior_digest(graph.rows[:covered])

    def teardown(self):
        self.patch.undo()


TestDigestMachine = DigestMachine.TestCase
TestDigestMachine.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None, derandomize=True, database=None)
