from __future__ import annotations

import pytest

from canvasmem.config import EngineConfig
from canvasmem.core import CanvasGraph, EdgeKind, EdgeOrigin, ObjectKind
from canvasmem.scoring import ScoringIndex
from canvasmem.errors import MissingEmbeddingError
from canvasmem.graph_build import (
    DEFAULT_THETA_CAUSAL,
    DEFAULT_THETA_REF,
    LinkThresholds,
    link_object,
)

import reference
from conftest import axis, graph_of, make_obj, vec_at_cosine


def add_and_link(graph: CanvasGraph, obj, thresholds=None):
    graph.add_object(obj)
    return link_object(graph, obj, thresholds)


def test_thresholds_validation():
    LinkThresholds()
    with pytest.raises(ValueError):
        LinkThresholds(theta_ref=0.4, theta_causal=0.5)
    with pytest.raises(ValueError):
        LinkThresholds(theta_ref=1.0)
    with pytest.raises(ValueError):
        LinkThresholds(theta_causal=0.0)
    with pytest.raises(ValueError):
        LinkThresholds(keyword_edge_min=1.2)
    with pytest.raises(ValueError):
        LinkThresholds(temporal_window=0)


def test_similarity_reference_edge_at_cos_055():
    graph = CanvasGraph()
    first = make_obj(content="service deployment plan", turn=0, embedding=axis(0))
    add_and_link(graph, first)
    second = make_obj(content="holiday menu ideas", turn=1, embedding=vec_at_cosine(0.55))
    edges = add_and_link(graph, second)
    assert len(edges) == 1
    edge = edges[0]
    assert edge.kind is EdgeKind.REFERENCE
    assert edge.origin is EdgeOrigin.SIMILARITY
    assert edge.src == first.id and edge.dst == second.id
    assert edge.weight == pytest.approx(0.55, abs=1e-9)


def test_no_edge_below_both_thresholds():
    graph = CanvasGraph()
    add_and_link(graph, make_obj(content="service deployment plan", turn=0, embedding=axis(0)))
    edges = add_and_link(
        graph, make_obj(content="holiday menu ideas", turn=1, embedding=vec_at_cosine(0.2))
    )
    assert edges == []


def test_keyword_fallback_edge_on_token_overlap():
    graph = CanvasGraph()
    first = make_obj(content="redis cache eviction policy tuning", turn=0, embedding=axis(0))
    add_and_link(graph, first)
    # Orthogonal embeddings, but 4 shared tokens of 6 distinct.
    second = make_obj(content="redis cache eviction policy review", turn=1, embedding=axis(1))
    edges = add_and_link(graph, second)
    assert len(edges) == 1
    edge = edges[0]
    assert edge.kind is EdgeKind.REFERENCE
    assert edge.origin is EdgeOrigin.KEYWORD
    assert edge.weight == pytest.approx(4 / 6)


def test_keyword_fallback_does_not_fire_below_min():
    graph = CanvasGraph()
    add_and_link(graph, make_obj(content="redis cache eviction", turn=0, embedding=axis(0)))
    edges = add_and_link(
        graph, make_obj(content="redis backup schedule planning", turn=1, embedding=axis(1))
    )
    # Jaccard 1/6 sits below the 0.5 floor.
    assert edges == []


def test_causal_edge_by_similarity_outside_temporal_window():
    graph = CanvasGraph()
    fact = make_obj(kind=ObjectKind.KEY_FACT, content="upstream api deprecates auth",
                    turn=1, embedding=axis(0))
    add_and_link(graph, fact)
    decision = make_obj(kind=ObjectKind.DECISION, content="adopt new auth library",
                        turn=9, embedding=vec_at_cosine(0.47))
    edges = add_and_link(graph, decision)
    # 0.47 is below theta_ref 0.5, above theta_causal 0.45; gap 8 beats the window.
    assert len(edges) == 1
    edge = edges[0]
    assert edge.kind is EdgeKind.CAUSAL
    assert edge.origin is EdgeOrigin.SIMILARITY
    assert edge.src == fact.id and edge.dst == decision.id
    assert edge.weight == pytest.approx(0.47, abs=1e-9)


def test_causal_needs_listed_kind_pair():
    graph = CanvasGraph()
    todo = make_obj(kind=ObjectKind.TODO, content="collect auth requirements",
                    turn=1, embedding=axis(0))
    add_and_link(graph, todo)
    decision = make_obj(kind=ObjectKind.DECISION, content="adopt new auth library",
                        turn=9, embedding=vec_at_cosine(0.47))
    # (TODO, DECISION) is not an allowed causal pair.
    assert add_and_link(graph, decision) == []


def test_causal_respects_time_order():
    graph = CanvasGraph()
    decision = make_obj(kind=ObjectKind.DECISION, content="adopt new auth library",
                        turn=12, embedding=axis(0))
    add_and_link(graph, decision)
    fact = make_obj(kind=ObjectKind.KEY_FACT, content="upstream api deprecates auth",
                    turn=10, embedding=vec_at_cosine(0.6))
    edges = add_and_link(graph, fact)
    # The decision predates the fact, so no causal edge; similarity 0.6 still
    # produces the reference edge.
    assert [e.kind for e in edges] == [EdgeKind.REFERENCE]


def test_temporal_heuristic_fires_regardless_of_similarity():
    graph = CanvasGraph()
    fact = make_obj(kind=ObjectKind.KEY_FACT, content="budget review happens quarterly",
                    turn=10, embedding=axis(0))
    add_and_link(graph, fact)
    decision = make_obj(kind=ObjectKind.DECISION, content="order replacement laptops",
                        turn=12, embedding=vec_at_cosine(0.1))
    edges = add_and_link(graph, decision)
    assert len(edges) == 1
    edge = edges[0]
    assert edge.kind is EdgeKind.CAUSAL
    assert edge.origin is EdgeOrigin.TEMPORAL_HEURISTIC
    assert edge.weight == 1.0


def test_temporal_heuristic_window_is_inclusive():
    thresholds = LinkThresholds()
    for gap, expect_edge in ((3, True), (4, False)):
        graph = CanvasGraph()
        fact = make_obj(kind=ObjectKind.REMINDER, content="budget review happens quarterly",
                        turn=0, embedding=axis(0))
        add_and_link(graph, fact, thresholds)
        decision = make_obj(kind=ObjectKind.DECISION, content="order replacement laptops",
                            turn=gap, embedding=vec_at_cosine(0.1))
        edges = add_and_link(graph, decision, thresholds)
        assert bool(edges) is expect_edge, f"gap {gap}"


def test_temporal_heuristic_only_from_fact_or_reminder():
    graph = CanvasGraph()
    insight = make_obj(kind=ObjectKind.INSIGHT, content="meetings run long on mondays",
                       turn=10, embedding=axis(0))
    add_and_link(graph, insight)
    decision = make_obj(kind=ObjectKind.DECISION, content="order replacement laptops",
                        turn=11, embedding=vec_at_cosine(0.1))
    # INSIGHT is a causal pair source but not a temporal heuristic source,
    # and similarity 0.1 is below theta_causal.
    assert add_and_link(graph, decision) == []


def test_temporal_heuristic_upgrades_weak_causal_weight():
    graph = CanvasGraph()
    fact = make_obj(kind=ObjectKind.KEY_FACT, content="upstream api deprecates auth",
                    turn=10, embedding=axis(0))
    add_and_link(graph, fact)
    decision = make_obj(kind=ObjectKind.DECISION, content="adopt new auth library",
                        turn=11, embedding=vec_at_cosine(0.47))
    edges = add_and_link(graph, decision)
    causal = [e for e in edges if e.kind is EdgeKind.CAUSAL]
    assert len(causal) == 1
    # R2 would have given weight 0.47; the in-window heuristic wins with 1.0.
    assert causal[0].weight == 1.0
    assert causal[0].origin is EdgeOrigin.TEMPORAL_HEURISTIC


def _linked_pair():
    """A fact and a decision one turn later at cosine 0.8: the decision's
    link adds a reference and a causal edge."""
    graph = CanvasGraph()
    fact = make_obj(kind=ObjectKind.KEY_FACT, content="upstream api deprecates auth",
                    turn=10, embedding=axis(0))
    add_and_link(graph, fact)
    decision = make_obj(kind=ObjectKind.DECISION, content="adopt new auth library",
                        turn=11, embedding=vec_at_cosine(0.8))
    graph.add_object(decision)
    return graph, decision


def test_reference_and_causal_can_coexist():
    graph, decision = _linked_pair()
    kinds = sorted(e.kind.value for e in link_object(graph, decision))
    assert kinds == ["CAUSAL", "REFERENCE"]


def test_a_link_brings_the_index_up_to_date_in_one_call(monkeypatch):
    graph, decision = _linked_pair()
    graph.scoring_index()
    calls = []
    extend_edges = ScoringIndex.extend_edges
    monkeypatch.setattr(ScoringIndex, "extend_edges",
                        lambda index, edges: calls.append(list(edges)) or extend_edges(index, edges))
    edges = link_object(graph, decision)
    assert len(edges) == 2
    assert calls == [edges] and graph.edges == edges
    assert graph.neighbors(decision.id) == [edges[0].src, edges[1].src]


def test_linking_an_object_again_adds_nothing():
    graph, decision = _linked_pair()
    edges = link_object(graph, decision)
    assert len(edges) == 2
    assert link_object(graph, decision) == []
    assert graph.edges == edges
    for edge in edges:
        assert graph.add_edge(edge) is False
    assert graph.edges == edges
    assert graph.scoring_index().edge_count == 2


def test_an_object_without_an_embedding_is_never_stored_so_never_linked():
    graph = CanvasGraph()
    bare = make_obj(content="no embedding", turn=0, embedding=None)
    with pytest.raises(MissingEmbeddingError):
        graph.add_object(bare)
    with pytest.raises(ValueError, match="is not stored"):
        link_object(graph, bare)
    probe = make_obj(content="has embedding", turn=1, embedding=axis(0))
    graph.add_object(probe)
    with pytest.raises(MissingEmbeddingError):
        graph.add_object(bare)
    assert graph.rows == [probe] and link_object(graph, probe) == []


def test_link_refuses_an_object_the_graph_does_not_store():
    # Orthogonal vectors, no shared tokens, turns far apart: nothing would link.
    graph = graph_of(make_obj(content="service deployment plan", turn=0, embedding=axis(0)))
    stranger = make_obj(content="holiday menu ideas", turn=9, embedding=axis(1))
    with pytest.raises(ValueError, match=f"object {stranger.id} is not stored"):
        link_object(graph, stranger)
    assert graph.edges == [] and stranger.id not in graph.objects


def _similarity_reference_count(theta_ref: float) -> int:
    thresholds = LinkThresholds(theta_ref=theta_ref, theta_causal=min(0.2, theta_ref / 2))
    graph = CanvasGraph()
    cosines = (0.15, 0.35, 0.45, 0.55, 0.65, 0.85)
    add_and_link(graph, make_obj(content="anchor zero", turn=0, embedding=axis(0)), thresholds)
    for idx, cos in enumerate(cosines, start=1):
        obj = make_obj(content=f"probe number {idx}", turn=idx, embedding=vec_at_cosine(cos))
        add_and_link(graph, obj, thresholds)
    return sum(
        1 for e in graph.edges
        if e.kind is EdgeKind.REFERENCE and e.origin is EdgeOrigin.SIMILARITY
    )


def test_similarity_edge_count_non_increasing_in_theta_ref():
    counts = [_similarity_reference_count(t) for t in (0.3, 0.5, 0.7, 0.9)]
    assert counts == sorted(counts, reverse=True)
    assert counts[0] > counts[-1]


def test_default_thresholds_match_documented_values():
    thresholds = LinkThresholds()
    assert thresholds.theta_ref == DEFAULT_THETA_REF == 0.5
    assert thresholds.theta_causal == DEFAULT_THETA_CAUSAL == 0.45
    assert thresholds.temporal_window == 3


@pytest.mark.parametrize("pairs", [
    [],
    [["KEY_FACT", "DECISION"]],
    [["TODO", "DECISION"], ["DECISION", "TODO"], ["INSIGHT", "INSIGHT"]],
    [[a.value, b.value] for a in ObjectKind for b in ObjectKind],
])
def test_causal_pairs_from_a_config_file_link_as_the_reference_does(pairs):
    """Every kind of object, each close to the ones before it, linked under
    the causal pairs a config file names: the edges are the reference's."""
    thresholds = EngineConfig.from_dict({"thresholds": {"causal_pairs": pairs}}).thresholds
    graph, twin = CanvasGraph(), CanvasGraph()
    kinds = list(ObjectKind)
    for turn in range(3 * len(kinds)):
        obj = make_obj(kind=kinds[turn % len(kinds)], content=f"statement {turn}", turn=turn,
                       embedding=vec_at_cosine(0.46 + 0.01 * (turn % 3)))
        graph.add_object(obj)
        twin.add_object(obj)
        assert link_object(graph, obj, thresholds) == reference.link_object(twin, obj, thresholds)
    assert graph.edges == twin.edges
    similar_causal = [edge for edge in graph.edges
                      if edge.kind is EdgeKind.CAUSAL and edge.origin is EdgeOrigin.SIMILARITY]
    assert bool(similar_causal) == bool(pairs)
