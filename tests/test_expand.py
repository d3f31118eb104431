"""The walk of expand_graph against the reference's dict walk.

The reference (tests/reference.py) walks breadth-first over per-object
adjacency lists built from graph.edges in insertion order. The library
walks the scoring index's per-row adjacency lists, which a snapshot shares
with the graph that keeps appending to them. Its result is the read's
hybrid ranking: the stable descending sort of the reference's full
expansion, each candidate with its hybrid score as its rerank score
(reference.rank), cut to k, with the same float scores.
The seeds, like coarse_retrieve's hits, carry their hybrid score as their
rerank score.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import canvasmem.retrieval
import reference
from canvasmem.core import CanvasEdge, CanvasGraph, EdgeKind, EdgeOrigin
from canvasmem.engine import CanvasEngine
from canvasmem.extraction import MockExtractor
from canvasmem.retrieval import (
    EXPANSION_DECAY,
    RetrievalConfig,
    ScoredObject,
    expand_graph,
    plan_query,
    rerank_candidates,
    retrieve_detailed,
)
from canvasmem.scoring import MockEmbedder, ScoringIndex

from conftest import QUESTIONS, axis, make_obj, seeded_turns


# ---------------------------------------------------------------------------
# Pruning with k, against the reference's full walk
# ---------------------------------------------------------------------------

def exact(candidates):
    """Candidates with their floats spelled bit for bit."""
    return [(c.object_id, c.hybrid.hex(), c.rerank, c.provenance, c.hop) for c in candidates]


def seed(object_id, score):
    """A coarse hit as coarse_retrieve makes one: its hybrid score is its
    rerank score."""
    return ScoredObject(object_id=object_id, hybrid=score, rerank=score)


class _HybridReranker:
    """Scores each candidate by its hybrid score in the given ranking."""

    def __init__(self, ranking):
        self.scores = {c.object_id: c.hybrid for c in ranking}

    def rerank(self, query_text, candidates):
        return [(cid, self.scores[cid]) for cid, _ in candidates]


# ---------------------------------------------------------------------------
# Hypothesis graphs: parallel and two-way edges, ties, forks
# ---------------------------------------------------------------------------

# Few distinct values, so seeds and whole hops tie often.
SCORE = st.one_of(st.sampled_from((0.0, 0.25, 0.5, 0.8, 1.0)), st.floats(0.0, 1.0))


@st.composite
def scenarios(draw, max_objects=10, max_edges=30):
    """Two graphs that share a prefix: an owner and a read-only snapshot of
    it, the owner appended to after the snapshot, with reads in between that
    catch its index up."""
    n = draw(st.integers(1, max_objects))
    turns = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    objects = [make_obj(content=f"object number {i}", turn=turns[i], embedding=axis(i % 8))
               for i in range(n)]
    steps: list[tuple] = [("object", i) for i in range(n)]
    if n > 1:
        pairs = draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(1, n - 1), st.sampled_from(EdgeKind)),
            max_size=max_edges,
        ))
        for a, shift, kind in pairs:
            b = (a + shift) % n
            if kind is EdgeKind.CAUSAL and turns[a] > turns[b]:
                a, b = b, a
            after = next(i for i, step in enumerate(steps) if step == ("object", max(a, b)))
            steps.insert(draw(st.integers(after + 1, len(steps))), ("edge", a, b, kind))
    fork_at = draw(st.integers(0, len(steps)))
    reads = draw(st.lists(st.booleans(), min_size=len(steps), max_size=len(steps)))
    return objects, steps, fork_at, reads


def _apply(graph, objects, step):
    if step[0] == "object":
        graph.add_object(objects[step[1]])
    else:
        _, a, b, kind = step
        graph.add_edge(CanvasEdge(src=objects[a].id, dst=objects[b].id, kind=kind,
                                  weight=0.5, origin=EdgeOrigin.SIMILARITY))


def build(scenario):
    objects, steps, fork_at, reads = scenario
    owner = CanvasGraph()
    for step, read in zip(steps[:fork_at], reads):
        _apply(owner, objects, step)
        if read:
            owner.scoring_index()
    twin = owner.snapshot()
    for step, read in zip(steps[fork_at:], reads[fork_at:]):
        _apply(owner, objects, step)
        if read:
            owner.scoring_index()
    return owner, twin


@settings(max_examples=300, deadline=None)
@given(scenarios(), st.data())
def test_array_walk_equals_the_dict_walk(scenario, data):
    for graph in build(scenario):
        rows = graph.rows
        # A snapshot taken before the first object holds no rows.
        chosen = data.draw(st.lists(st.integers(0, max(len(rows) - 1, 0)), unique=True,
                                    max_size=len(rows)))
        seeds = [seed(rows[i].id, data.draw(SCORE)) for i in chosen]
        hops = data.draw(st.integers(0, 5))
        full = reference.expand_graph(graph, seeds, hops)
        whole = reference.rank(full, None)
        # A k at or above the pool ranks all of it.
        for k in range(1, len(full) + 3):
            ranked = expand_graph(graph, seeds, hops, k)
            assert exact(ranked) == exact(reference.rank(full, k))
            if full:
                # A backend that scores each candidate by its hybrid score
                # leaves the ranking as it is.
                echo = _HybridReranker(whole)
                assert exact(rerank_candidates(graph, echo, "q", whole, k)) == exact(ranked)


@settings(max_examples=150, deadline=None)
@given(scenarios(max_objects=30, max_edges=120), st.data())
def test_the_pruned_walk_on_a_mid_build_snapshot_equals_the_reference(scenario, data):
    """The owner's index catches up after the snapshot, so it has appended
    in place, past the snapshot's edge count, to the adjacency lists of rows
    the snapshot holds; the snapshot's walk must not see those edges."""
    owner, twin = build(scenario)
    owner.scoring_index()
    rows = twin.rows
    chosen = data.draw(st.lists(st.integers(0, max(len(rows) - 1, 0)), unique=True,
                                max_size=min(len(rows), 8)))
    seeds = [seed(rows[i].id, data.draw(SCORE)) for i in chosen]
    hops = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, 20))
    full = reference.expand_graph(twin, seeds, hops)
    assert exact(expand_graph(twin, seeds, hops, k)) == exact(reference.rank(full, k))


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_neighbors_equal_the_adjacency_lists(scenario):
    for graph in build(scenario):
        adjacent = reference.adjacency(graph)
        for obj in graph.rows:
            assert graph.neighbors(obj.id) == adjacent.get(obj.id, [])
        assert graph.neighbors("f" * 16) == []


def test_unknown_seed_ids_come_back_and_expand_nothing():
    a = make_obj(content="seed item", turn=0, embedding=axis(0))
    b = make_obj(content="one hop out", turn=1, embedding=axis(1))
    graph = CanvasGraph()
    graph.add_object(a)
    graph.add_object(b)
    graph.add_edge(CanvasEdge(src=a.id, dst=b.id, kind=EdgeKind.REFERENCE, weight=0.5,
                              origin=EdgeOrigin.SIMILARITY))
    stranger = seed("f" * 16, 1.0)
    seeds = [stranger, seed(a.id, 0.5)]
    full = reference.expand_graph(graph, seeds, 2)
    assert [c.object_id for c in full] == [stranger.object_id, a.id, b.id]
    for k in (1, 2, 3):
        assert exact(expand_graph(graph, seeds, 2, k)) == exact(reference.rank(full, k))


# ---------------------------------------------------------------------------
# Pruning with k: crafted graphs, with the hops the walk took recorded
# ---------------------------------------------------------------------------

def _crafted(names, links):
    """A graph of one object per name, with a REFERENCE edge for each pair
    in links; returns the graph and each name's object id."""
    objects = {name: make_obj(content=f"crafted object {name}", turn=i, embedding=axis(i % 8))
               for i, name in enumerate(names)}
    graph = CanvasGraph()
    for obj in objects.values():
        graph.add_object(obj)
    for a, b in links:
        graph.add_edge(CanvasEdge(src=objects[a].id, dst=objects[b].id, kind=EdgeKind.REFERENCE,
                                  weight=0.5, origin=EdgeOrigin.SIMILARITY))
    return graph, {name: obj.id for name, obj in objects.items()}


def _record_hops(monkeypatch) -> tuple[list[list[int]], list[list[int]]]:
    """For each hop the walk took, the rows whose adjacency list it read, in
    the order read, and the rows it reached, in row order."""
    reads: list[list[int]] = []
    reached: list[list[int]] = []
    walk_hop, adjacent = canvasmem.retrieval._walk_hop, ScoringIndex.adjacent

    def recorded_hop(index, frontier, score):
        reads.append([])
        parents = walk_hop(index, frontier, score)
        reached.append(sorted(parents))
        return parents

    def recorded_read(index, row):
        reads[-1].append(row)
        return adjacent(index, row)

    monkeypatch.setattr(canvasmem.retrieval, "_walk_hop", recorded_hop)
    monkeypatch.setattr(ScoringIndex, "adjacent", recorded_read)
    return reads, reached


def _seeds(ids, scores):
    return [seed(ids[name], value) for name, value in scores.items()]


def test_the_last_hop_walks_only_seeds_that_can_beat_the_kth_score(monkeypatch):
    # k = 3: the k-th best seed scores 0.75. 0.8 * 1.0 beats it and 0.64 * 1.0
    # does not, so hop 1 is the last that can change the top 3. T's decayed
    # score ties it exactly (0.8 * 0.9375 == 0.75) and K's falls below it:
    # neither is walked, so only A's neighbour is built, and it ranks
    # third, ahead of K.
    assert 0.9375 * EXPANSION_DECAY == 0.75
    graph, ids = _crafted("ATKXYZ", [("A", "X"), ("T", "Y"), ("K", "Z"), ("X", "Y")])
    seeds = _seeds(ids, {"A": 1.0, "T": 0.9375, "K": 0.75})
    reads, reached = _record_hops(monkeypatch)
    ranked = expand_graph(graph, seeds, 3, 3)
    full = reference.expand_graph(graph, seeds, 3)
    assert exact(ranked) == exact(reference.rank(full, 3))
    assert [c.object_id for c in ranked] == [ids[name] for name in "ATX"]
    row_of = graph.scoring_index().row_of
    assert reads == [[row_of(ids["A"])]]
    assert reached == [[row_of(ids["X"])]]


def test_pruning_a_hop_that_is_not_the_last_would_change_the_answer(monkeypatch):
    # k = 3: before hop 1 the k-th best seed scores 0.5, and a hop-2
    # candidate can still reach 0.64, so hop 1 must walk W too. W marks N
    # seen at 0.4; had W been skipped, S would reach N at hop 2 with 0.64,
    # above B's 0.6, and N would wrongly enter the top 3.
    graph, ids = _crafted("ABWSN", [("A", "S"), ("S", "N"), ("W", "N")])
    seeds = _seeds(ids, {"A": 1.0, "B": 0.6, "W": 0.5})
    reads, reached = _record_hops(monkeypatch)
    ranked = expand_graph(graph, seeds, 2, 3)
    full = reference.expand_graph(graph, seeds, 2)
    assert [(c.object_id, c.hybrid) for c in full[3:]] == [(ids["S"], 0.8), (ids["N"], 0.4)]
    assert exact(ranked) == exact(reference.rank(full, 3))
    assert [c.object_id for c in ranked] == [ids[name] for name in "ASB"]
    row_of = graph.scoring_index().row_of
    assert reads[0] == [row_of(ids[name]) for name in "ABW"]
    assert reached[0] == sorted(row_of(ids[name]) for name in "SN")


def test_a_walk_no_row_of_which_can_enter_the_top_k_does_no_edge_work(monkeypatch):
    # The k-th best seed scores 0.9, and 0.8 * 1.0 cannot beat it.
    graph, ids = _crafted("ABCXY", [("A", "X"), ("B", "Y"), ("C", "X")])
    seeds = _seeds(ids, {"A": 1.0, "B": 0.9, "C": 0.85})
    reads, reached = _record_hops(monkeypatch)
    for hop_count in (1, 4):
        full = reference.expand_graph(graph, seeds, hop_count)
        assert exact(expand_graph(graph, seeds, hop_count, 2)) == exact(reference.rank(full, 2))
        assert exact(reference.rank(full, 2)) == exact(reference.rank(seeds, 2))
    assert reads == reached == []
    # With a k above the seed count the heap is not full, so the hop is walked.
    assert len(expand_graph(graph, seeds, 1, 5)) == 5
    row_of = graph.scoring_index().row_of
    assert reads == [[row_of(ids[name]) for name in "ABC"]]
    assert reached == [[row_of(ids["X"]), row_of(ids["Y"])]]


def test_a_seed_below_zero_is_walked_at_k_1():
    # k = 1: the one seed's -1.0 is the k-th best score, and its neighbour
    # inherits 0.8 * -1.0 = -0.8, which beats it and ranks first.
    graph, ids = _crafted("AB", [("A", "B")])
    seeds = _seeds(ids, {"A": -1.0})
    ranked = expand_graph(graph, seeds, 1, 1)
    assert exact(ranked) == exact(reference.rank(reference.expand_graph(graph, seeds, 1), 1))
    assert [(c.object_id, c.hybrid, c.hop) for c in ranked] == [(ids["B"], -0.8, 1)]


# ---------------------------------------------------------------------------
# The pipeline: a pruned walk ranks, packs and renders as a full one
# ---------------------------------------------------------------------------

def _ingested(seed: int, turns: int) -> CanvasGraph:
    engine = CanvasEngine(MockExtractor(), MockEmbedder())
    for turn in seeded_turns(seed, turns):
        engine.ingest_turn(turn)
    return engine.graph


def _full_expansion(graph, question, embedder, config):
    plan = plan_query(question, embedder, config)
    coarse = reference.coarse_retrieve(graph, plan)
    return reference.expand_graph(graph, coarse, config.hops)


def test_retrieve_detailed_at_every_k_equals_a_full_expand_then_rerank():
    embedder = MockEmbedder()
    graph = _ingested(5, 70)
    for hops in (1, 2, 4):
        for question in QUESTIONS:
            probe = RetrievalConfig(coarse_k=6, hops=hops)
            full = _full_expansion(graph, question, embedder, probe)
            assert len(full) > 6
            for k in range(1, len(full) + 3):
                config = RetrievalConfig(coarse_k=6, hops=hops,
                                         k_simple=k, k_temporal=k, k_multi_hop=k)
                want = reference.pack(graph, plan_query(question, embedder, config), full)
                got = retrieve_detailed(graph, question, embedder, config)
                assert exact(got.ranked) == exact(want.ranked)
                assert exact(got.selected) == exact(want.selected)
                assert got.injection == want.injection


def test_a_locomo_read_stops_walking_once_its_heap_holds_the_k_best(monkeypatch):
    # The locomo preset walks up to 4 hops. Without a reranker this read's
    # 20 coarse hits fill the heap of the k best; hop 1's expansions enter
    # it and raise its least score, kth, past 0.8 * top, so the walk stops
    # before hop 2 and reads the adjacency of the 20 seeds alone. A heap
    # grown past k would leave kth at -inf and walk every hop.
    embedder, config = MockEmbedder(), RetrievalConfig.preset("locomo")
    graph, question = _ingested(1, 60), QUESTIONS[0]
    reads, _ = _record_hops(monkeypatch)
    got = retrieve_detailed(graph, question, embedder, config)
    full = _full_expansion(graph, question, embedder, config)
    assert exact(got.ranked) == exact(reference.rank(full, got.plan.k))
    assert any(c.hop == 1 for c in got.ranked)
    assert config.hops == 4 and [len(rows) for rows in reads] == [20]


class _RecordingReranker:
    def __init__(self):
        self.seen: list[list[str]] = []

    def rerank(self, query_text, candidates):
        self.seen.append([cid for cid, _ in candidates])
        return [(cid, float(len(text))) for cid, text in candidates]


def _uniform(k, **settings):
    return RetrievalConfig(k_simple=k, k_temporal=k, k_multi_hop=k, **settings)


def test_a_reranker_backend_gets_the_first_max_k_coarse_k_of_the_ranking():
    """The backend reorders the top max(k, coarse_k) of the hybrid ranking,
    in that order. A bound at or above the reachable pool sends all of it,
    so the read equals reranking the whole unpruned expansion."""
    embedder = MockEmbedder()
    graph = _ingested(9, 60)
    cut = whole = 0
    for config in (_uniform(2, coarse_k=6, hops=4), _uniform(9, coarse_k=6, hops=4),
                   _uniform(100, coarse_k=3, hops=1), _uniform(2, coarse_k=100, hops=4)):
        for question in QUESTIONS:
            reranker = _RecordingReranker()
            got = retrieve_detailed(graph, question, embedder, config, reranker)
            full = _full_expansion(graph, question, embedder, config)
            bound = max(got.plan.k, config.coarse_k)
            pool = reference.rank(full, bound)
            assert reranker.seen == [[c.object_id for c in pool]]
            if bound >= len(full):
                whole += 1
                again = rerank_candidates(graph, _RecordingReranker(), question,
                                          reference.rank(full, None), got.plan.k)
                assert exact(got.ranked) == exact(again)
            else:
                cut += 1
    # Both kinds of read ran: a pool the bound cuts and one it does not.
    assert cut == 10 and whole == 10
