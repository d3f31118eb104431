"""Screen-then-verify scoring against the reference's per-pair loops.

The reference (tests/reference.py) links by scanning every stored object
and ranks by hybrid-scoring every object, one pair at a time. Every edge
the screened link_object adds, and every coarse hit, must equal the
reference's exactly: same order, same float values. The index's array
verify is also held to the per-row verify it replaced (one row's cosine
and hybrid score per call).
"""

from __future__ import annotations

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canvasmem.engine
import canvasmem.retrieval
import canvasmem.scoring
from canvasmem.core import (
    AddResult,
    CanvasEdge,
    CanvasGraph,
    EdgeKind,
    EdgeOrigin,
    ObjectKind,
    serialize_graph,
)
from canvasmem.engine import CanvasEngine
from canvasmem.errors import (DimensionMismatchError, InvalidObjectError, MissingEmbeddingError,
                             ReadOnlyGraphError, ZeroVectorError)
from canvasmem.extraction import MockExtractor
from canvasmem.graph_build import LinkThresholds, link_object
from canvasmem.retrieval import (
    QueryClass,
    QueryPlan,
    RetrievalConfig,
    ScoredObject,
    coarse_retrieve,
    retrieve,
    retrieve_detailed,
)
from canvasmem.scoring import (
    SCREENABLE_NORMS,
    DEFAULT_ALPHA,
    MockEmbedder,
    ScoringIndex,
    token_set,
)

import reference
from conftest import QUESTIONS, axis, graph_of, make_obj, seeded_turns, vec_at_cosine
from reference import cosine_sim, document_text, hybrid_score, token_coverage, token_jaccard


# ---------------------------------------------------------------------------
# Pairs: the same objects linked by the index and by the reference
# ---------------------------------------------------------------------------

def build_pair(objects, thresholds=None):
    """The same objects stored and linked twice: screened, and by the reference."""
    screened, oracle = CanvasGraph(), CanvasGraph()
    for obj in objects:
        for graph, link in ((screened, link_object), (oracle, reference.link_object)):
            if graph.add_object(obj) is AddResult.ADDED:
                link(graph, obj, thresholds)
    return screened, oracle


def plan_for(embedding, text="the probe query", coarse_k=3, alpha=DEFAULT_ALPHA):
    return QueryPlan(text, embedding, QueryClass.SIMPLE, 10,
                     RetrievalConfig(alpha=alpha, coarse_k=coarse_k))


def assert_same_coarse(graph, oracle_graph, plan):
    got = coarse_retrieve(graph, plan)
    want = reference.coarse_retrieve(oracle_graph, plan)
    assert [(h.object_id, h.hybrid) for h in got] == [(h.object_id, h.hybrid) for h in want]


# ---------------------------------------------------------------------------
# Property: random graphs
# ---------------------------------------------------------------------------

WORDS = ("redis", "cache", "deploy", "friday", "schema", "billing", "gateway", "the", "of")

# Small integer components make exact ties and cosines that land on a
# threshold up to rounding (1/2 computed as 0.49999999999999989, say).
_int_vector = st.lists(st.integers(-2, 2).map(float), min_size=4, max_size=4).filter(any)
_object = st.builds(
    lambda kind, words, extra, turn, vec, confidence: make_obj(
        kind=kind, content=" ".join(words), quote=" ".join(words + extra), turn=turn,
        embedding=vec, confidence=confidence),
    st.sampled_from(list(ObjectKind)),
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=4),
    st.lists(st.sampled_from(WORDS), max_size=2),
    st.integers(0, 6),
    _int_vector,
    st.sampled_from([0.5, 1.0]),
)
_thresholds = st.sampled_from([
    LinkThresholds(),
    LinkThresholds(theta_ref=0.5, theta_causal=0.5, keyword_edge_min=0.0),
    LinkThresholds(theta_ref=2 / 3, theta_causal=1 / 3, keyword_edge_min=1 / 3),
    LinkThresholds(theta_ref=math.sqrt(0.5), theta_causal=0.25, temporal_window=6),
])


@settings(max_examples=150, deadline=None)
@given(
    objects=st.lists(_object, min_size=1, max_size=14),
    thresholds=_thresholds,
    query=_int_vector,
    query_words=st.lists(st.sampled_from(WORDS), max_size=3),
    coarse_k=st.integers(1, 6),
    alpha=st.sampled_from([0.0, 0.7, 1.0]),
)
def test_random_graphs_match_the_oracle(objects, thresholds, query, query_words, coarse_k, alpha):
    objects.sort(key=lambda obj: obj.turn)
    screened, oracle = build_pair(objects, thresholds)
    assert screened.edges == oracle.edges
    assert serialize_graph(screened) == serialize_graph(oracle)
    assert_same_coarse(screened, oracle, plan_for(query, " ".join(query_words), coarse_k, alpha))


# ---------------------------------------------------------------------------
# Built cases: thresholds to the last bit, keyword_edge_min=0, ties at the cut
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta", ["theta_ref", "theta_causal"])
@pytest.mark.parametrize("ulps", [-1, 0, 1])
def test_cosines_one_ulp_around_each_threshold(theta, ulps):
    thresholds = LinkThresholds()
    target = getattr(thresholds, theta)
    for _ in range(abs(ulps)):
        target = math.nextafter(target, math.copysign(math.inf, ulps))
    # KEY_FACT -> DECISION is a causal pair; turns 5 apart keep R3 out of it.
    objects = [
        make_obj(kind=ObjectKind.KEY_FACT, content="service deployment plan", turn=0,
                 embedding=axis(0)),
        make_obj(kind=ObjectKind.DECISION, content="holiday menu ideas", turn=5,
                 embedding=vec_at_cosine(target)),
    ]
    screened, oracle = build_pair(objects, thresholds)
    assert screened.edges == oracle.edges
    sim = cosine_sim(axis(0), vec_at_cosine(target))
    assert any(e.kind is EdgeKind.CAUSAL for e in screened.edges) == (sim >= thresholds.theta_causal)
    assert any(e.origin is EdgeOrigin.SIMILARITY and e.kind is EdgeKind.REFERENCE
               for e in screened.edges) == (sim >= thresholds.theta_ref)


def test_keyword_edge_min_zero_links_every_pair_like_the_oracle():
    thresholds = LinkThresholds(keyword_edge_min=0.0)
    objects = [
        make_obj(content=text, turn=turn, embedding=axis(turn % 4))
        for turn, text in enumerate(["redis cache", "the of", "schema friday", "redis schema", "of"])
    ]
    screened, oracle = build_pair(objects, thresholds)
    assert screened.edges == oracle.edges
    # Ten pairs; turns 0 and 4 share an axis, every other pair links by keyword.
    keyword = [e for e in screened.edges if e.origin is EdgeOrigin.KEYWORD]
    assert len(keyword) == 9 and {e.weight for e in keyword} == {0.0, 1 / 3}


@pytest.mark.parametrize("coarse_k", [1, 2, 3, 4, 5])
def test_exact_score_ties_across_the_coarse_cut(coarse_k):
    # Five objects tie exactly on score; confidence, turn and id break them.
    tied = [
        make_obj(content=f"orange {tag}", turn=turn, embedding=[1.0, 2.0, 0.0, 0.0],
                 confidence=confidence)
        for tag, turn, confidence in [("a", 3, 1.0), ("b", 1, 0.4), ("c", 1, 1.0),
                                      ("d", 3, 1.0), ("e", 2, 0.4)]
    ]
    others = [make_obj(content=f"violet {i}", turn=i, embedding=[0.0, 0.0, 1.0, 1.0])
              for i in range(4)]
    screened, oracle = build_pair(others[:2] + tied + others[2:])
    assert_same_coarse(screened, oracle, plan_for([2.0, 4.0, 0.0, 0.0], "orange", coarse_k))


def test_quote_tokens_count_in_the_screen():
    # Only the quote matches the query; its keyword half must lift it past
    # an object with the higher cosine.
    quoted = make_obj(content="alpha", quote="alpha said redis", turn=0,
                      embedding=vec_at_cosine(0.5))
    plain = make_obj(content="beta", turn=1, embedding=vec_at_cosine(0.6))
    screened, oracle = build_pair([quoted, plain])
    hits = coarse_retrieve(screened, plan_for(axis(0), "redis", 1))
    assert [h.object_id for h in hits] == [quoted.id]
    assert_same_coarse(screened, oracle, plan_for(axis(0), "redis", 1))


# ---------------------------------------------------------------------------
# A seeded engine run: graph bytes and rendered blocks
# ---------------------------------------------------------------------------

def engine_run(seed: int):
    """Ingest a seeded conversation; query a snapshot after every turn."""
    engine = CanvasEngine(MockExtractor(), MockEmbedder())
    config = RetrievalConfig(coarse_k=6, hops=2)
    blocks = []
    for turn in seeded_turns(seed, 90):
        engine.ingest_turn(turn)
        blocks.append(retrieve(engine.snapshot(), QUESTIONS[turn.index % len(QUESTIONS)],
                               engine.embedder, config))
    return serialize_graph(engine.graph), blocks


@pytest.mark.parametrize("seed", [3, 17])
def test_seeded_engine_run_is_byte_identical_to_the_oracle(seed, monkeypatch):
    graph_bytes, blocks = engine_run(seed)
    monkeypatch.setattr(canvasmem.engine, "link_object", reference.link_object)
    monkeypatch.setattr(canvasmem.retrieval, "coarse_retrieve", reference.coarse_retrieve)
    oracle_bytes, oracle_blocks = engine_run(seed)
    assert graph_bytes == oracle_bytes
    assert blocks == oracle_blocks
    assert len(set(blocks)) > 10


def test_screen_verifies_only_pairs_that_could_link(monkeypatch):
    calls = []
    real = ScoringIndex.exact_cosines

    def counted(self, query, rows):
        calls.extend(rows.tolist())
        return real(self, query, rows)

    monkeypatch.setattr(ScoringIndex, "exact_cosines", counted)
    graph = CanvasGraph()
    for turn in range(8):
        obj = make_obj(content=f"item {turn}", turn=turn, embedding=axis(turn))
        graph.add_object(obj)
        link_object(graph, obj)
    assert calls == []
    # Cosine 0.46 against axis(0) and 0.89 against axis(1): two pairs to verify.
    twin = make_obj(content="item again", turn=9, embedding=vec_at_cosine(0.46))
    graph.add_object(twin)
    link_object(graph, twin)
    assert len(calls) == 2


@pytest.mark.parametrize("pattern", ["low", "alternating", "reversed"])
def test_a_screen_off_by_most_of_the_margin_changes_nothing(pattern, monkeypatch):
    """Callers must leave the index's margin of room for the screen's rounding."""
    screen = ScoringIndex.cosines
    sign = {"low": lambda row: -1, "alternating": lambda row: (-1) ** row,
            "reversed": lambda row: -(-1) ** row}[pattern]

    def off_by_most_of_the_margin(self, query):
        approx = screen(self, query).astype(np.float64)
        return approx + [0.9 * self.margin * sign(row) for row in range(len(approx))]

    monkeypatch.setattr(ScoringIndex, "cosines", off_by_most_of_the_margin)
    # Cosines exactly at theta_causal and theta_ref, and an exact tie at the cut.
    thresholds = LinkThresholds(theta_ref=0.5, theta_causal=0.25)
    objects = [
        make_obj(kind=ObjectKind.KEY_FACT, content="alpha", turn=0, embedding=[1.0, 0.0, 0.0, 0.0]),
        make_obj(kind=ObjectKind.KEY_FACT, content="beta", turn=0, embedding=[0.0, 1.0, 0.0, 0.0]),
        make_obj(kind=ObjectKind.DECISION, content="gamma", turn=9, embedding=[1.0, 1.0, 1.0, 1.0]),
        make_obj(kind=ObjectKind.DECISION, content="delta", turn=9,
                 embedding=[1.0, math.sqrt(15.0), 0.0, 0.0]),
    ]
    screened, oracle = build_pair(objects, thresholds)
    assert screened.edges == oracle.edges
    assert {e.weight for e in screened.edges} >= {0.25, 0.5}
    for coarse_k in (1, 2, 3):
        assert_same_coarse(screened, oracle, plan_for([1.0, 1.0, 0.0, 0.0], "", coarse_k))


def test_index_cosines_sit_within_the_margin_of_cosine_sim():
    """What the verify rests on: the float32 screen is within the index's
    margin of cosine_sim. Its rounding is about 2**-24 however small d is,
    while the margin grows as d * 2**-24, so the margin's headroom over the
    error grows with d: at least 100x from d = 256."""
    for dim in (1, 4, 64, 256, 3072):
        rng = random.Random(dim)

        def vector():
            # Components of either sign with magnitudes from 1e-30 to 1e3.
            return [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-30.0, 3.0)
                    for _ in range(dim)]

        rows = [vector() for _ in range(40)]
        index = ScoringIndex()
        for turn, row in enumerate(rows):
            index.extend([make_obj(content=f"row {turn}", turn=turn, embedding=row)])
        worst = 0.0
        for _ in range(5):
            query = vector()
            approx = index.cosines(index.prepare(query)).tolist()
            worst = max(worst, *(abs(a - cosine_sim(row, query)) for a, row in zip(approx, rows)))
        assert worst <= index.margin, dim
        if dim >= 256:
            assert worst <= index.margin / 100, dim


# ---------------------------------------------------------------------------
# Error paths: the same typed errors from link_object and coarse_retrieve
# ---------------------------------------------------------------------------

# What add_object refuses, and how many objects the graph holds before it:
# every graph refuses an object without an embedding, and a graph holding
# a row refuses an embedding of another length.
REFUSALS = [
    ("missing", None, MissingEmbeddingError, 0),
    ("missing", None, MissingEmbeddingError, 3),
    ("wrong dimension", [1.0] * 4, DimensionMismatchError, 1),
    ("wrong dimension", [1.0] * 4, DimensionMismatchError, 3),
]


def _error_of(fn, *args):
    with pytest.raises(Exception) as caught:
        fn(*args)
    return type(caught.value)


@pytest.mark.parametrize("fault, embedding, error, stored", REFUSALS,
                         ids=[f"{fault}-{stored}" for fault, _, _, stored in REFUSALS])
def test_add_object_refuses_what_the_index_cannot_score_and_keeps_the_graph(
        fault, embedding, error, stored):
    objects = [make_obj(content=f"fine {i}", turn=i, embedding=axis(i)) for i in range(stored)]
    screened, oracle = build_pair(objects)
    saved, indexed = serialize_graph(screened), len(screened.scoring_index())
    broken = make_obj(content="broken", turn=9, embedding=embedding)
    for graph in (screened, oracle):
        assert _error_of(graph.add_object, broken) is error
    # Nothing is stored: no object, no row, no turn, no index row.
    assert broken.id not in screened.objects and screened.rows == objects
    assert screened.next_turn == stored and len(screened.scoring_index()) == indexed
    assert serialize_graph(screened) == saved
    # The graph still scores and links as the oracle does.
    newcomer = make_obj(content="fine 0 again", turn=4, embedding=axis(0))
    for graph, link in ((screened, link_object), (oracle, reference.link_object)):
        assert graph.add_object(newcomer) is AddResult.ADDED
        link(graph, newcomer)
    assert screened.edges == oracle.edges
    assert bool(screened.edges) == bool(stored)
    for coarse_k in (2, 20):
        plan = plan_for(axis(0), "fine", coarse_k)
        assert coarse_retrieve(screened, plan) == reference.coarse_retrieve(oracle, plan)


@pytest.mark.parametrize("query, error", [
    ([0.0] * 8, ZeroVectorError), ([1.0] * 3, DimensionMismatchError),
])
def test_faulty_query_vector_raises_the_same_error(query, error):
    objects = [make_obj(content=f"fine {i}", turn=i, embedding=axis(i)) for i in range(4)]
    screened, oracle = build_pair(objects)
    plan = plan_for(query, "fine", 2)
    assert _error_of(coarse_retrieve, screened, plan) is error
    assert _error_of(reference.coarse_retrieve, oracle, plan) is error
    assert _error_of(screened.scoring_index().prepare, query, "fine") is error


@pytest.mark.parametrize("fault, embedding, error, stored", REFUSALS[1:],
                         ids=[f"{fault}-{stored}" for fault, _, _, stored in REFUSALS[1:]])
@pytest.mark.parametrize("query, query_error", [
    ([0.0] * 8, ZeroVectorError), ([1.0] * 3, DimensionMismatchError),
])
def test_after_a_refusal_a_faulty_query_raises_its_own_error(
        fault, embedding, error, stored, query, query_error):
    graph = graph_of(*[make_obj(content=f"fine {i}", turn=i, embedding=axis(i))
                       for i in range(stored)])
    assert _error_of(graph.add_object, make_obj(content="broken", turn=9,
                                                 embedding=embedding)) is error
    assert _error_of(graph.scoring_index().prepare, query, "fine") is query_error
    for coarse_k in (2, 20):
        assert _error_of(coarse_retrieve, graph, plan_for(query, "fine", coarse_k)) is query_error


# ---------------------------------------------------------------------------
# Norms: the index holds and scores only vectors the screen bounds
# ---------------------------------------------------------------------------

LOW_NORM, HIGH_NORM = SCREENABLE_NORMS
# Norms past each bound, and components whose dot product overflows, so
# that the float64 norm is inf.
OUT_OF_RANGE = {
    "huge": [x * 1e152 for x in vec_at_cosine(0.9)],
    "tiny": [x * 1e-152 for x in vec_at_cosine(0.9)],
    "overflowing": [3e200, 1e200, 1e200, 2e200, 0.0, 0.0, 0.0, 0.0],
}


@pytest.mark.parametrize("name", list(OUT_OF_RANGE))
def test_a_norm_outside_the_screenable_range_is_refused_everywhere(name):
    embedding = OUT_OF_RANGE[name]
    with pytest.raises(InvalidObjectError,
                       match=r"^embedding norm must lie in \[1e-150, 1e\+150\], got "):
        make_obj(content="redis note", turn=0, embedding=embedding)
    graph = graph_of(*[make_obj(content=f"redis note {i}", turn=i, embedding=axis(i))
                       for i in range(3)])
    index = graph.scoring_index()
    before = _columns(index)
    with pytest.raises(ZeroVectorError, match=r"^vector norm must lie in \[1e-150, 1e\+150\]"):
        index.prepare(embedding, "redis note")
    # Where numpy's overflow warning is not raised, the norm reads as inf too.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ZeroVectorError):
            index.prepare(embedding, "redis note")
    for coarse_k in (1, 20):
        with pytest.raises(ZeroVectorError):
            coarse_retrieve(graph, plan_for(embedding, "redis note", coarse_k))
    with pytest.raises(ZeroVectorError):
        index.append_vectors([axis(0), embedding])
    assert _columns(index) == before


@pytest.mark.parametrize("bound", SCREENABLE_NORMS)
def test_a_norm_at_either_bound_is_held_and_one_float_past_it_is_refused(bound):
    past = math.nextafter(bound, 0.0 if bound == LOW_NORM else math.inf)
    for embedding in ([bound], [bound / 16] * 256):
        make_obj(content="redis note", turn=0, embedding=embedding)
        ScoringIndex().append_vectors([embedding])
    with pytest.raises(InvalidObjectError, match="^embedding norm must lie in"):
        make_obj(content="redis note", turn=0, embedding=[past])
    with pytest.raises(ZeroVectorError):
        ScoringIndex().append_vectors([[past]])
    # Rows at both bounds, in one direction, link to each other, and rank
    # as the reference ranks them, against queries at both bounds.
    objects = [make_obj(content=f"redis note {i}", turn=i, embedding=[norm / 16] * 256)
               for i, norm in enumerate(SCREENABLE_NORMS)]
    objects.append(make_obj(content="the cache", turn=2, embedding=[bound] + [0.0] * 255))
    screened, oracle = build_pair(objects)
    assert serialize_graph(screened) == serialize_graph(oracle)
    assert any(e.origin is EdgeOrigin.SIMILARITY and {e.src, e.dst} == {o.id for o in objects[:2]}
               for e in screened.edges)
    for query in ([bound / 16] * 256, [0.0] * 255 + [bound]):
        for coarse_k in (1, 3):
            plan = plan_for(query, "redis note", coarse_k)
            got = [(h.object_id, _bits(h.hybrid)) for h in coarse_retrieve(screened, plan)]
            want = [(h.object_id, _bits(h.hybrid))
                    for h in reference.coarse_retrieve(oracle, plan)]
            assert got == want


# ---------------------------------------------------------------------------
# Snapshots: the read-only fork
# ---------------------------------------------------------------------------

def _fill(graph, turns, axis_of=lambda t: t % 8):
    for turn in turns:
        obj = make_obj(content=f"note {turn} redis", turn=turn, embedding=axis(axis_of(turn)))
        graph.add_object(obj)
        link_object(graph, obj)


def _hits(graph, plan):
    return [(h.object_id, h.hybrid) for h in coarse_retrieve(graph, plan)]


def test_parent_writes_after_snapshot_leave_its_coarse_hits_alone():
    engine = CanvasEngine(MockExtractor(), MockEmbedder())
    turns = seeded_turns(7, 80)
    for turn in turns[:40]:
        engine.ingest_turn(turn)
    frozen = engine.snapshot()
    plan = plan_for(engine.embedder.embed("redis cache node"), "redis cache node", 5)
    before = _hits(frozen, plan)
    for turn in turns[40:]:
        engine.ingest_turn(turn)
    assert len(engine.graph) > len(frozen)
    assert _hits(frozen, plan) == before
    assert _hits(frozen, plan) == [(h.object_id, h.hybrid)
                                   for h in reference.coarse_retrieve(frozen, plan)]


def test_writes_to_a_snapshot_do_not_corrupt_the_parent_index():
    parent = CanvasGraph()
    _fill(parent, range(10))
    twin = parent.snapshot()
    # A write to the twin or its index raises before it touches what both share...
    extra = make_obj(content="note 10 redis", turn=10, embedding=axis(0))
    for write in (lambda: _fill(twin, [10], axis_of=lambda t: 0),
                  lambda: twin.scoring_index().extend([extra]),
                  lambda: twin.scoring_index().append_vectors([axis(0)])):
        with pytest.raises(ReadOnlyGraphError):
            write()
    assert len(twin) == len(twin.scoring_index()) == len(parent.scoring_index()) == 10
    # ...and the parent then writes in place past the rows the twin reads.
    _fill(parent, range(20, 26), axis_of=lambda t: 1)
    for graph in (parent, twin):
        for query in (axis(0), axis(1), [1.0] * 8):
            index = graph.scoring_index()
            approx = index.cosines(index.prepare(query)).tolist()
            assert approx == pytest.approx([cosine_sim(o.embedding, query) for o in graph.rows])
            plan = plan_for(query, "note redis", 4)
            assert _hits(graph, plan) == [(h.object_id, h.hybrid)
                                          for h in reference.coarse_retrieve(graph, plan)]


# ---------------------------------------------------------------------------
# Exact verify: the index's array scorers against the scalar functions and
# against the per-row verify they replaced
# ---------------------------------------------------------------------------

def _bits(value: float) -> str:
    return float(value).hex()


def oracle_exact_cosine(index, query, row):
    """The per-row verify: one row's cosine, as cosine_sim computes it."""
    return float(np.dot(query.vector, index._matrix[row]) / (query.norm * index._norms[row]))


def oracle_exact_hybrid(index, query, row, obj, alpha):
    """The per-row verify: one row's hybrid score, as hybrid_score computes
    it, its keyword half read from obj, the object stored at that row."""
    semantic = min(1.0, max(0.0, oracle_exact_cosine(index, query, row)))
    lexical = 0.0
    if query.tokens:
        lexical = len(query.tokens & token_set(document_text(obj))) / len(query.tokens)
    return alpha * semantic + (1.0 - alpha) * lexical


def oracle_verified_coarse_retrieve(graph, plan):
    """coarse_retrieve with the per-row verify: the same screen and band, each
    row of the band scored by its own call."""
    alpha, coarse_k = plan.config.alpha, plan.config.coarse_k
    index = graph.scoring_index()
    query = index.prepare(plan.query_embedding, plan.query_text)
    approx = index.hybrids(query, alpha, (1.0 - alpha) * index.coverage(query))
    cut = max(len(approx) - coarse_k, 0)
    kth = np.partition(approx, cut)[cut]
    band = np.flatnonzero(approx >= kth - 2 * index.margin).tolist()
    scored = [(oracle_exact_hybrid(index, query, row, graph.rows[row], alpha), graph.rows[row]) for row in band]
    scored.sort(key=lambda pair: (-pair[0], -pair[1].confidence, pair[1].turn, pair[1].id))
    return [ScoredObject(object_id=obj.id, hybrid=score, rerank=score)
            for score, obj in scored[:coarse_k]]


def _all_rows(index) -> np.ndarray:
    return np.arange(len(index))


def _vector(rng, dim: int, shape: str, norm: float) -> list[float]:
    if shape == "mock":
        words = rng.choice(WORDS + ("node", "replica", "gigabyte"), size=rng.integers(1, 6))
        vec = np.asarray(MockEmbedder(dim).embed(" ".join(words)))
    elif shape == "sparse":
        vec = np.zeros(dim)
        picked = rng.choice(dim, size=min(dim, int(rng.integers(1, 4))), replace=False)
        vec[picked] = rng.integers(-3, 4, size=len(picked)) + rng.random(len(picked))
        if not vec.any():
            vec[picked[0]] = 1.0
    else:
        vec = rng.standard_normal(dim)
    return (vec * (norm / np.linalg.norm(vec))).tolist()


_dims = st.one_of(st.integers(1, 69), st.sampled_from([127, 255, 257, 384, 511, 768, 1024]))
_norms = st.one_of(
    st.sampled_from([LOW_NORM * 1.5, LOW_NORM * 1e3, 1.0, HIGH_NORM / 1e3, HIGH_NORM / 1.5]),
    st.floats(-140.0, 140.0).map(lambda exponent: 10.0 ** exponent),
)


@settings(max_examples=200, deadline=None)
@given(
    dim=_dims,
    shape=st.sampled_from(["dense", "sparse", "mock"]),
    seed=st.integers(0, 2**32 - 1),
    norms=st.lists(_norms, min_size=2, max_size=6),
    query_words=st.lists(st.sampled_from(WORDS), max_size=4),
    alpha=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
)
def test_exact_scorers_are_bit_identical_to_the_scalar_functions(
    dim, shape, seed, norms, query_words, alpha
):
    rng = np.random.default_rng(seed)
    query_vec = _vector(rng, dim, shape, norms[0])
    query_text = " ".join(query_words)
    objects = [
        make_obj(content=" ".join(rng.choice(WORDS, size=2)), quote=" ".join(rng.choice(WORDS, size=3)),
                 turn=turn, embedding=_vector(rng, dim, shape, norm))
        for turn, norm in enumerate(norms[1:])
    ]
    index = ScoringIndex()
    for obj in objects:
        index.extend([obj])
    query = index.prepare(query_vec, query_text)
    assert query is not None
    rows = _all_rows(index)
    cosines = index.exact_cosines(query, rows).tolist()
    keyword = (1.0 - alpha) * index.coverage(query)
    hybrids = index.exact_hybrids(query, rows, alpha, keyword).tolist()
    # Every norm here is one the screen bounds: it sits within the margin.
    screened = zip(index.cosines(query).tolist(), index.hybrids(query, alpha, keyword).tolist())
    for row, (obj, (screen, hybrid_screen)) in enumerate(zip(objects, screened)):
        # Linking passes the stored vector first, retrieval the query first.
        assert _bits(cosines[row]) == _bits(cosine_sim(query_vec, obj.embedding))
        assert _bits(cosines[row]) == _bits(cosine_sim(obj.embedding, query_vec))
        assert _bits(cosines[row]) == _bits(oracle_exact_cosine(index, query, row))
        assert _bits(hybrids[row]) == _bits(hybrid_score(query_vec, query_text, obj, alpha))
        assert _bits(hybrids[row]) == _bits(oracle_exact_hybrid(index, query, row, obj, alpha))
        assert abs(screen - cosines[row]) <= index.margin
        assert abs(hybrid_screen - hybrids[row]) <= index.margin


def test_a_fork_verifies_its_rows_after_the_owner_appended_past_it():
    rng = np.random.default_rng(11)
    objects = [make_obj(content=f"row {i} redis", turn=i, embedding=rng.standard_normal(33).tolist())
               for i in range(200)]
    owner = ScoringIndex()
    for obj in objects[:40]:
        owner.extend([obj])
    fork = owner.fork()
    # The owner writes in place past the fork's rows, then outgrows the shared matrix.
    for obj in objects[40:]:
        owner.extend([obj])
    query_vec = rng.standard_normal(33).tolist()
    for index, seen in ((fork, objects[:40]), (owner, objects)):
        query = index.prepare(query_vec, "redis row")
        assert len(index) == len(index.cosines(query)) == len(seen)
        assert [_bits(j) for j in index.row_jaccards(7).tolist()] == [
            _bits(token_jaccard(token_set(obj.content), token_set("row 7 redis"))) for obj in seen]
        rows = _all_rows(index)
        cosines = index.exact_cosines(query, rows).tolist()
        keyword = (1.0 - DEFAULT_ALPHA) * index.coverage(query)
        hybrids = index.exact_hybrids(query, rows, DEFAULT_ALPHA, keyword).tolist()
        for row, obj in enumerate(seen):
            assert _bits(cosines[row]) == _bits(cosine_sim(query_vec, obj.embedding))
            assert _bits(hybrids[row]) == _bits(hybrid_score(query_vec, "redis row", obj))


# Small integer components, signed zeros included, make exact ties, negative
# cosines and cosines that round past 1 ([1, 1, 1] against itself reads
# 1.0000000000000002).
_edge_vector = st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]),
                        min_size=3, max_size=3).filter(any)


@settings(max_examples=300, deadline=None)
@given(
    vectors=st.lists(_edge_vector, min_size=1, max_size=8),
    words=st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3), min_size=8, max_size=8),
    query=_edge_vector,
    query_words=st.lists(st.sampled_from(WORDS + ("unseen",)), max_size=3),
    alpha=st.sampled_from([0.0, 0.7, 1.0]),
    picks=st.lists(st.integers(0, 7), max_size=10),
)
def test_array_verify_equals_the_per_row_verify(vectors, words, query, query_words, alpha, picks):
    objects = [make_obj(content=" ".join(words[turn]), turn=turn, embedding=vec)
               for turn, vec in enumerate(vectors)]
    index = ScoringIndex()
    index.extend(objects)
    prepared = index.prepare(query, " ".join(query_words))
    keyword = (1.0 - alpha) * index.coverage(prepared)
    # Any rows in any order, repeats and none at all included.
    rows = np.array([pick % len(objects) for pick in picks], dtype=np.intp)
    cosines = index.exact_cosines(prepared, rows)
    hybrids = index.exact_hybrids(prepared, rows, alpha, keyword)
    assert cosines.shape == hybrids.shape == rows.shape
    for row, cos, hybrid in zip(rows.tolist(), cosines.tolist(), hybrids.tolist()):
        assert _bits(cos) == _bits(oracle_exact_cosine(index, prepared, row))
        assert _bits(cos) == _bits(cosine_sim(query, objects[row].embedding))
        assert _bits(hybrid) == _bits(oracle_exact_hybrid(index, prepared, row, objects[row], alpha))
        assert _bits(hybrid) == _bits(hybrid_score(query, " ".join(query_words), objects[row], alpha))


def test_cosines_past_one_and_below_zero_reach_the_verify():
    objects = [make_obj(content="same", turn=0, embedding=[1.0, 1.0, 1.0]),
               make_obj(content="opposite", turn=1, embedding=[-1.0, -1.0, -1.0])]
    index = ScoringIndex()
    index.extend(objects)
    query = index.prepare([1.0, 1.0, 1.0], "same")
    rows = _all_rows(index)
    assert index.exact_cosines(query, rows).tolist() == [1.0000000000000002, -1.0000000000000002]
    for alpha in (0.0, 0.7, 1.0):
        keyword = (1.0 - alpha) * index.coverage(query)
        assert [_bits(h) for h in index.exact_hybrids(query, rows, alpha, keyword)] == [
            _bits(oracle_exact_hybrid(index, query, row, objects[row], alpha)) for row in rows.tolist()]


_cosine = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, -1.0, 1.0000000000000002, 0.9999999999999999,
                     5e-324, -5e-324, 0.5, -1.0000000000000002]),
    st.floats(-1.5, 1.5),
)


@settings(max_examples=300, deadline=None)
@given(cosines=st.lists(_cosine, max_size=6), alpha=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       covered=st.lists(st.integers(0, 3), min_size=6, max_size=6))
def test_clamp_and_blend_follow_the_scalar_rule(cosines, alpha, covered):
    """Any cosine, -0.0 and values past 1 included, is clamped and blended
    as hybrid_score does it."""
    index = ScoringIndex()
    index.extend([make_obj(content=f"row {i}", turn=i, embedding=axis(i)) for i in range(6)])
    rows = np.arange(len(cosines), dtype=np.intp)
    index.exact_cosines = lambda query, picked: np.array(cosines, dtype=np.float64)[picked]
    keyword = (1.0 - alpha) * (np.array(covered) / 3)
    got = index.exact_hybrids(index.prepare(axis(0)), rows, alpha, keyword)
    assert [_bits(h) for h in got.tolist()] == [
        _bits(alpha * min(1.0, max(0.0, cos)) + (1.0 - alpha) * (covered[row] / 3))
        for row, cos in enumerate(cosines)]


def test_empty_rows_verify_to_empty_arrays():
    index = ScoringIndex()
    index.extend([make_obj(content="redis", turn=0, embedding=axis(0))])
    query = index.prepare(axis(0), "redis")
    none = np.empty(0, dtype=np.intp)
    assert index.exact_cosines(query, none).shape == (0,)
    keyword = (1.0 - DEFAULT_ALPHA) * index.coverage(query)
    assert index.exact_hybrids(query, none, DEFAULT_ALPHA, keyword).shape == (0,)


class _FixedEmbedder:
    def __init__(self, vector):
        self.vector = vector

    def embed(self, text):
        return list(self.vector)


def _result_bits(result):
    def rows(scored):
        return [(s.object_id, _bits(s.hybrid), None if s.rerank is None else _bits(s.rerank),
                 s.provenance, s.hop) for s in scored]

    return rows(result.ranked), rows(result.selected), result.injection


@settings(max_examples=100, deadline=None)
@given(
    objects=st.lists(_object, min_size=1, max_size=14),
    query=_int_vector,
    question=st.sampled_from(["why did the redis cache fail", "when is the deploy",
                              "schema billing gateway", "the of"]),
    coarse_k=st.integers(1, 6),
    alpha=st.sampled_from([0.0, 0.7, 1.0]),
)
def test_retrieve_detailed_equals_the_per_row_verify(objects, query, question, coarse_k, alpha):
    objects.sort(key=lambda obj: obj.turn)
    graph, _ = build_pair(objects)
    embedder = _FixedEmbedder(query)
    for hops in (0, 1, 4):
        config = RetrievalConfig(alpha=alpha, coarse_k=coarse_k, hops=hops)
        got = retrieve_detailed(graph, question, embedder, config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(canvasmem.retrieval, "coarse_retrieve", oracle_verified_coarse_retrieve)
            want = retrieve_detailed(graph, question, embedder, config)
        assert _result_bits(got) == _result_bits(want)


@pytest.mark.parametrize("size", [1, 2, 5, 6])
def test_coarse_retrieve_at_or_below_coarse_k_is_the_oracle_without_the_scalar_score(size):
    objects = [make_obj(content=f"orange {i}", turn=i, embedding=axis(i % 3)) for i in range(size)]
    screened, oracle = build_pair(objects)
    plans = [plan_for([1.0, 2.0, 0.5] + [0.0] * 5, "orange", coarse_k) for coarse_k in (size, 6)]
    want = [reference.coarse_retrieve(oracle, plan) for plan in plans]
    for plan, hits in zip(plans, want):
        assert [(h.object_id, _bits(h.hybrid)) for h in coarse_retrieve(screened, plan)] == [
            (h.object_id, _bits(h.hybrid)) for h in hits]


# ---------------------------------------------------------------------------
# The token-overlap kernel against token_jaccard and token_coverage
# ---------------------------------------------------------------------------

_tokens = st.frozensets(st.sampled_from(WORDS + ("node", "replica")), max_size=5)
# A row: its content tokens, its quote-only tokens, and how it is appended.
_row = st.tuples(_tokens, _tokens, st.sampled_from(["single", "bare", "batch"]))


def _kernel_index(rows):
    """An index of object rows appended in batches or one by one (a single
    row extends the pending batch with itself), and of rows without an id
    or tokens, as append_vectors writes a RAG chunk's."""
    index, batch, stored = ScoringIndex(), [], []
    for turn, (content, extra, how) in enumerate(rows):
        if how == "bare":
            index.extend(batch)
            batch = []
            index.append_vectors([axis(turn % 8)])
            stored.append((frozenset(), frozenset()))
            continue
        obj = make_obj(content=" ".join(sorted(content)) or "of",
                       quote=" ".join(sorted(content | extra)) or "of",
                       turn=turn, embedding=axis(turn % 8))
        batch.append(obj)
        stored.append((token_set(obj.content), token_set(obj.content + " " + obj.quote)))
        if how == "single":
            index.extend(batch)
            batch = []
    index.extend(batch)
    return index, stored


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(_row, min_size=1, max_size=12),
    query=st.frozensets(st.sampled_from(WORDS + ("unseen", "nowhere")), max_size=4),
)
def test_token_kernel_is_bit_identical_to_the_scalar_functions(rows, query):
    index, stored = _kernel_index(rows)
    assert len(index) == len(stored)
    for row, (own, _) in enumerate(stored):
        assert [_bits(j) for j in index.row_jaccards(row).tolist()] == [
            _bits(token_jaccard(content, own)) for content, _ in stored]
    # With alpha 0 a hybrid score is its keyword coverage, exactly.
    text = " ".join(sorted(query))
    prepared = index.prepare(axis(0), text)
    coverage = [_bits(token_coverage(token_set(text), document)) for _, document in stored]
    covered = index.coverage(prepared)
    assert [_bits(c) for c in covered.tolist()] == coverage
    assert [_bits(c) for c in index.hybrids(prepared, 0.0, covered).tolist()] == coverage
    assert [_bits(c) for c in index.exact_hybrids(
        prepared, _all_rows(index), 0.0, covered).tolist()] == coverage


def test_forks_and_their_owner_never_see_each_others_rows_or_token_ids():
    owner = ScoringIndex()
    owner.extend([make_obj(content="redis", quote="the redis cache", turn=0, embedding=axis(0))])
    fork = owner.fork()
    # The owner interns new tokens after the fork; the fork's appends raise.
    owner.extend([make_obj(content="alpha", turn=1, embedding=axis(1))])
    with pytest.raises(ReadOnlyGraphError):
        fork.extend([make_obj(content="beta", turn=1, embedding=axis(2))])
    owner.extend([make_obj(content="gamma", turn=2, embedding=axis(3))])
    assert len(owner) == 3 and len(fork) == 1
    assert owner.prepare(axis(0), "beta").token_ids == frozenset()
    assert owner.row_jaccards(1).tolist() == [0.0, 1.0, 0.0]
    assert owner.row_jaccards(0).tolist() == [1.0, 0.0, 0.0]
    assert owner.turn_window(2, 1).tolist() == [False, True, True]
    # The fork shares the owner's vocabulary, so it knows the later tokens'
    # ids, but their postings lie past its rows: they match nothing.
    assert fork.coverage(fork.prepare(axis(0), "alpha gamma beta")).tolist() == [0.0]
    assert fork.row_jaccards(0).tolist() == [1.0]
    assert fork.turn_window(2, 1).tolist() == [False]


def test_the_turn_window_reads_each_turn_below_2_to_the_63_as_it_is():
    index = ScoringIndex()
    index.extend([make_obj(content=f"note {row}", turn=turn, embedding=axis(row))
                  for row, turn in enumerate((2**62, 2**62 + 10))])
    assert index.turn_window(2**62 + 10, 3).tolist() == [False, True]
    assert index.turn_window(2**63 - 1, 2**63 - 2**62 - 10).tolist() == [False, True]


def test_a_forks_coverage_counts_neither_the_owners_later_rows_nor_its_later_tokens():
    owner = ScoringIndex()
    owner.extend([make_obj(content="redis", quote="the redis cache", turn=0, embedding=axis(0)),
                  make_obj(content="of", quote="the cache", turn=1, embedding=axis(1))])
    fork = owner.fork()
    # After the fork the owner appends rows holding the query's tokens, one
    # of them ("beta") seen for the first time, and a row without tokens.
    owner.extend([make_obj(content="redis", quote="redis cache beta", turn=2,
                           embedding=axis(2))])
    owner.append_vectors([axis(3)])
    owner.extend([make_obj(content="of", quote="beta cache", turn=3, embedding=axis(4))])
    fork_docs = [{"redis", "cache"}, {"cache"}]
    owner_docs = fork_docs + [{"redis", "cache", "beta"}, set(), {"beta", "cache"}]
    text = "redis cache beta"
    query = fork.prepare(axis(0), text)
    # "beta" first came after the fork: it counts in the size, and its
    # postings lie past the fork's rows, so it matches no row of the fork.
    assert fork.coverage(fork.prepare(axis(0), "beta")).tolist() == [0.0, 0.0]
    for index, documents, prepared in ((fork, fork_docs, query),
                                       (owner, owner_docs, owner.prepare(axis(0), text))):
        assert [_bits(c) for c in index.coverage(prepared).tolist()] == [
            _bits(token_coverage(token_set(text), frozenset(doc))) for doc in documents]
    assert fork.coverage(query).tolist() == [2 / 3, 1 / 3]
    assert fork._quote_postings is owner._quote_postings


def test_a_forks_jaccard_counts_neither_the_owners_later_rows_nor_its_later_tokens():
    owner = ScoringIndex()
    owner.extend([make_obj(content="redis cache", turn=0, embedding=axis(0)),
                  make_obj(content="cache", quote="cache gateway", turn=1, embedding=axis(1))])
    fork = owner.fork()
    # After the fork the owner appends rows whose content holds the fork's
    # tokens, one of them ("beta") seen for the first time, and a row
    # without tokens; then enough rows to outgrow every shared column.
    owner.extend([make_obj(content="redis beta", turn=2, embedding=axis(2))])
    owner.append_vectors([axis(3)])
    owner.extend([make_obj(content="cache beta", turn=3, embedding=axis(4))])
    for turn in range(4, 80):
        owner.extend([make_obj(content="redis", turn=turn, embedding=axis(turn % 8))])
    fork_contents = [{"redis", "cache"}, {"cache"}]
    owner_contents = (fork_contents + [{"redis", "beta"}, set(), {"cache", "beta"}]
                      + [{"redis"}] * 76)
    for index, contents in ((fork, fork_contents), (owner, owner_contents)):
        for row in (0, 1, 2, 3, len(contents) - 1):
            if row < len(contents):
                assert [_bits(j) for j in index.row_jaccards(row).tolist()] == [
                    _bits(token_jaccard(frozenset(c), frozenset(contents[row])))
                    for c in contents]
    assert fork.row_jaccards(0).tolist() == [1.0, 0.5]
    assert fork._content_postings is owner._content_postings


def test_rows_without_tokens_cover_nothing():
    index = ScoringIndex()
    index.append_vectors([axis(i) for i in range(3)])
    query = index.prepare(axis(0), "redis cache")
    assert query.token_ids == frozenset()
    assert index.coverage(query).tolist() == [0.0, 0.0, 0.0]
    index.extend([make_obj(content="redis", turn=1, embedding=axis(3))])
    index.append_vectors([axis(4)])
    query = index.prepare(axis(0), "redis cache")
    assert index.coverage(query).tolist() == [0.0, 0.0, 0.0, 0.5, 0.0]
    assert index.coverage(index.prepare(axis(0), "")).tolist() == [0.0] * 5
    assert ScoringIndex().coverage(query).shape == (0,)


@pytest.mark.parametrize("stored, embeddings, error", [
    (1, [axis(1), [0.0] * 8], ZeroVectorError),
    (1, [axis(1), [1e152] + [0.0] * 7], ZeroVectorError),
    (1, [axis(1), axis(1, dim=4)], DimensionMismatchError),
    (0, [axis(1), axis(1, dim=4)], DimensionMismatchError),
], ids=["zero", "huge", "short", "empty-index"])
def test_append_vectors_writes_every_row_or_none(stored, embeddings, error):
    index = ScoringIndex()
    index.append_vectors([axis(0)] * stored)
    before = _columns(index) if stored else None
    with pytest.raises(error):
        index.append_vectors(embeddings)
    assert len(index) == stored and (not stored or _columns(index) == before)
    index.append_vectors(embeddings[:1] * 3)
    assert len(index) == stored + 3


_turn_objects = st.builds(
    lambda kind, words, turn, vec: make_obj(kind=kind, content=" ".join(words), turn=turn,
                                            embedding=vec),
    st.sampled_from(list(ObjectKind)),
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=3),
    st.integers(0, 9),
    _int_vector,
)


@settings(max_examples=150, deadline=None)
@given(
    objects=st.lists(_turn_objects, min_size=1, max_size=14),
    keyword_edge_min=st.sampled_from([0.0, 1.0]),
    temporal_window=st.integers(1, 4),
)
def test_out_of_turn_order_graphs_link_like_the_oracle(objects, keyword_edge_min, temporal_window):
    # Objects arrive in any turn order; every row within the window counts.
    thresholds = LinkThresholds(theta_ref=0.9, theta_causal=0.8,
                                keyword_edge_min=keyword_edge_min, temporal_window=temporal_window)
    screened, oracle = build_pair(objects, thresholds)
    assert screened.edges == oracle.edges


@pytest.mark.parametrize("turn", [5, 2**63 - 2])
@pytest.mark.parametrize("window", [1, 3])
def test_temporal_window_edges_link_like_the_oracle(turn, window):
    # Orthogonal vectors and no shared tokens: only R3 can link.
    words = iter(["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"])
    facts = [make_obj(kind=ObjectKind.KEY_FACT, content=next(words), turn=turn + offset,
                      embedding=axis(index))
             for index, offset in enumerate([1, 0, -window, -window - 1, -1])]
    decision = make_obj(kind=ObjectKind.DECISION, content=next(words), turn=turn,
                        embedding=axis(7))
    screened, oracle = build_pair(facts + [decision], LinkThresholds(temporal_window=window))
    assert screened.edges == oracle.edges
    linked = {e.src for e in screened.edges if e.origin is EdgeOrigin.TEMPORAL_HEURISTIC}
    assert linked == {facts[1].id, facts[2].id, facts[4].id}


def test_one_link_screens_the_new_embedding_once(monkeypatch):
    graph, oracle = CanvasGraph(), CanvasGraph()
    objects = [make_obj(content=f"the redis cache fact {i}", turn=i, embedding=vec_at_cosine(c))
               for i, c in enumerate((0.2, 0.46, 0.5, 0.9))]
    for obj in objects[:-1]:
        for g in (graph, oracle):
            g.add_object(obj)
    graph.scoring_index()
    newest = objects[-1]
    graph.add_object(newest)
    oracle.add_object(newest)
    calls = []
    screen = canvasmem.scoring._vector
    monkeypatch.setattr(canvasmem.scoring, "_vector",
                        lambda embedding, dim: calls.append(embedding) or screen(embedding, dim))
    edges = link_object(graph, newest)
    assert calls == [newest.embedding]
    assert edges == reference.link_object(oracle, newest) and edges
    assert [e.weight.hex() for e in edges] == [
        e.weight.hex() for e in oracle.edges]


def test_a_link_tokenizes_nothing_and_an_append_tokenizes_each_text_once(monkeypatch):
    calls = []
    tokens = canvasmem.scoring.content_tokens
    monkeypatch.setattr(canvasmem.scoring, "content_tokens",
                        lambda text: calls.append(text) or tokens(text))
    graph, oracle = CanvasGraph(), CanvasGraph()
    objects = [make_obj(content=f"the redis cache fact {i}", quote=f"cache fact {i} in redis",
                        turn=i, embedding=embedding)
               for i, embedding in enumerate((axis(0), axis(1), axis(0), vec_at_cosine(0.9)))]
    for obj in objects:
        for g in (graph, oracle):
            g.add_object(obj)
    graph.scoring_index()
    assert sorted(calls) == sorted(text for obj in objects for text in (obj.content, obj.quote))
    calls.clear()
    for obj in objects:
        link_object(graph, obj)
    assert calls == []
    for obj in objects:
        reference.link_object(oracle, obj)
    assert graph.edges == oracle.edges
    assert {e.origin for e in graph.edges} == {EdgeOrigin.SIMILARITY, EdgeOrigin.KEYWORD}


def _columns(index):
    """Every column of index up to its own rows, edges and vocabulary, as
    plain values. Its vocabulary is the tokens with a posting on one of its
    rows: a token first interned after a fork has postings only on rows
    past the fork's."""
    n = len(index)

    def postings(lists):
        cut = {token_id: [row for row in rows if row < n] for token_id, rows in lists.items()}
        return {token_id: rows for token_id, rows in cut.items() if rows}

    content_postings, quote_postings = (postings(index._content_postings),
                                        postings(index._quote_postings))
    known = content_postings.keys() | quote_postings.keys()

    return {
        "rows": n,
        "row_of": {oid: row for oid, row in index._row_of.items() if row < n},
        "turns": index._turns[:n].tolist(),
        "matrix": [_bits(x) for x in index._matrix[:n].ravel().tolist()] if n else [],
        "norms": [_bits(x) for x in index._norms[:n].tolist()] if n else [],
        "units": index._units[:n].tolist() if n else [],
        "content_rows": index._content_rows[:n],
        "sizes": index._sizes[:n].tolist(),
        "content_postings": content_postings,
        "quote_postings": quote_postings,
        "vocab": {tok: i for tok, i in index._vocab.items() if i in known},
        "margin": index.margin,
    }


def test_appending_one_row_at_a_time_equals_a_batch_column_by_column():
    rng = random.Random(17)
    words = ("redis", "cache", "deploy", "friday", "schema", "billing", "gateway")
    scales = (1e-140, 1e-3, 1.0, 1e3, 1e140)
    embeddings = [[rng.uniform(-1.0, 1.0) * rng.choice(scales) for _ in range(8)]
                  for _ in range(163)]
    objects = []
    for turn, embedding in enumerate(embeddings):
        content = f"fact {turn} on " + " ".join(rng.sample(words, rng.randint(0, 3)))
        quote = content if turn % 3 else content + " " + rng.choice(words) + " shipped"
        objects.append(make_obj(content=content, quote=quote, turn=turn, embedding=embedding))

    batch = ScoringIndex()
    batch.extend(objects)
    single, forks, capacities = ScoringIndex(), [], set()
    for obj in objects:
        single.extend([obj])
        forks.append(single.fork())
        capacities.add(len(single._turns))
    assert capacities == {64, 96, 144, 216} and len(batch._turns) == 216
    assert _columns(single) == _columns(batch)
    for fork in forks:
        n = len(fork)
        prefix = ScoringIndex()
        prefix.extend(objects[:n])
        assert _columns(fork) == _columns(prefix), n
    contents = [token_set(obj.content) for obj in objects]
    for fork in forks[::7]:
        n = len(fork)
        assert [_bits(j) for j in fork.row_jaccards(n - 1).tolist()] == [
            _bits(token_jaccard(c, contents[n - 1])) for c in contents[:n]]
    for row, obj in enumerate(objects):
        norm = float(np.linalg.norm(np.asarray(obj.embedding, dtype=np.float64)))
        assert _bits(single._norms[row]) == _bits(norm), row


def test_a_graphs_catch_up_rows_equal_a_direct_extend():
    rng = random.Random(23)
    scales = (1e-140, 1e-3, 1.0, 1e3, 1e140)
    embeddings = [[rng.uniform(-1.0, 1.0) * rng.choice(scales) for _ in range(8)]
                  for _ in range(100)]
    embeddings[8] = [3, -1, 0, 2, 0, 0, 1, 5]  # integers convert as floats
    objects = [make_obj(content=f"fact {turn} on redis", turn=turn, embedding=embedding,
                        quote=f"fact {turn} on redis" if turn % 3 else f"the cache {turn}")
               for turn, embedding in enumerate(embeddings)]
    direct = ScoringIndex()
    direct.extend(objects)
    # add_object writes no row: a catch-up writes a whole batch of stored
    # objects, then one object at a time, as linking does.
    graph = CanvasGraph()
    for obj in objects[:50]:
        assert graph.add_object(obj) is AddResult.ADDED
    assert len(graph._index) == 0
    assert len(graph.scoring_index()) == 50
    for obj in objects[50:]:
        assert graph.add_object(obj) is AddResult.ADDED
        assert len(graph.scoring_index()) == len(graph.rows)
    # A duplicate is refused before it reaches the index.
    assert graph.add_object(objects[-1]) is AddResult.DUPLICATE
    caught_up = graph.scoring_index()
    assert len(caught_up) == len(objects)
    assert _columns(caught_up) == _columns(direct)


def test_an_object_whose_quote_is_its_content_is_tokenized_once(monkeypatch):
    calls = []
    tokens = canvasmem.scoring.content_tokens
    monkeypatch.setattr(canvasmem.scoring, "content_tokens",
                        lambda text: calls.append(text) or tokens(text))
    same = make_obj(content="the redis cache", quote="the redis cache", turn=0,
                    embedding=axis(0))
    other = make_obj(content="the redis cache", quote="redis cache on friday", turn=1,
                     embedding=axis(1))
    index = ScoringIndex()
    index.extend([same, other])
    assert calls == [same.content, other.content, other.quote]
    query = index.prepare(axis(0), "redis friday")
    assert index.coverage(query).tolist() == [0.5, 1.0]
    assert index.row_jaccards(0).tolist() == [1.0, 1.0]


def test_extend_edges_looks_up_every_end_before_it_adds_an_edge():
    objects = [make_obj(content=f"fact {i}", turn=i, embedding=axis(i)) for i in range(3)]
    index = ScoringIndex()
    index.extend(objects)
    a, b, c = (obj.id for obj in objects)
    first = CanvasEdge(a, b, EdgeKind.REFERENCE, 0.5, EdgeOrigin.SIMILARITY)
    unknown = CanvasEdge(b, "f" * 16, EdgeKind.REFERENCE, 0.5, EdgeOrigin.SIMILARITY)
    with pytest.raises(KeyError):
        index.extend_edges([first, unknown])
    assert index.edge_count == 0 and [index.adjacent(row) for row in range(3)] == [[], [], []]
    index.extend_edges([first, CanvasEdge(c, a, EdgeKind.CAUSAL, 1.0, EdgeOrigin.KEYWORD)])
    assert index.edge_count == 2
    assert [index.adjacent(row) for row in range(3)] == [[1, 2], [0], [0]]
    assert [index.incident(row) for row in range(3)] == [[0, 1], [0], [1]]
