"""Edge creation rules applied when a new object enters the graph.

Three rules run against every stored object:

R1: reference edges. Cosine at or above theta_ref makes a SIMILARITY
    reference edge weighted by the similarity; otherwise a Jaccard token
    overlap at or above keyword_edge_min makes a KEYWORD reference edge.
R2: causal edges for allowed kind pairs (for example KEY_FACT -> DECISION)
    when cosine reaches theta_causal and time order holds.
R3: temporal heuristic. A KEY_FACT or REMINDER within temporal_window turns
    before a DECISION gets a CAUSAL edge of weight 1.0 no matter how the
    embeddings look; nearby context tends to motivate decisions.

Edges are deduplicated per (src, dst, kind): similarity beats keyword for
references, and the heavier weight wins for causal edges. A link gathers
its edges and adds them with one CanvasGraph.add_edges call, which refuses
any triple the graph already holds, so linking an object again adds
nothing, and brings the scoring index's adjacency up to date once. A link
reads its thresholds, edge kinds and origins once, reduces the causal
pairs to the kinds they allow as the source of an edge into the new
object, and builds each edge positionally, once: a similarity causal
edge that the temporal rule outweighs is never built.

Linking is screen-then-verify, and it visits only the stored objects that
can gain an edge. A link reads the new object from its own row of the
graph's scoring index: the float64 vector and norm, the float32 unit
vector, and the interned content token ids, so it converts and tokenizes
nothing. The index gives, in one call of cosines_from, every stored object
whose cosine may reach theta_causal (the lower threshold) with its exact
cosine, bit-identical to the scalar cosine_sim of tests/reference.py, so
every edge weight is the exact scalar value; one join of the content
posting lists of the row's token ids gives the exact Jaccard overlap of
every stored content; and for a DECISION its turn column gives the objects
in the temporal window. The visit set is the union of those three kinds
of row, in row order, so edges are added in the order a scan of every
object would add them. Every other row is below both thresholds, below
keyword_edge_min and outside the window, and gains nothing. Every stored
object, the new one included, has an embedding cosine_sim can score
against every other, since the graph stores no other. The reference's
link_object, a scan of every stored object, is the spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import CanvasEdge, CanvasGraph, CanvasObject, EdgeKind, EdgeOrigin, ObjectKind
from .errors import ReadOnlyGraphError

DEFAULT_THETA_REF = 0.5
DEFAULT_THETA_CAUSAL = 0.45
DEFAULT_KEYWORD_EDGE_MIN = 0.5
DEFAULT_TEMPORAL_WINDOW = 3

DEFAULT_CAUSAL_PAIRS: tuple[tuple[ObjectKind, ObjectKind], ...] = (
    (ObjectKind.KEY_FACT, ObjectKind.DECISION),
    (ObjectKind.REMINDER, ObjectKind.DECISION),
    (ObjectKind.INSIGHT, ObjectKind.DECISION),
    (ObjectKind.DECISION, ObjectKind.TODO),
)

TEMPORAL_SOURCE_KINDS = frozenset({ObjectKind.KEY_FACT, ObjectKind.REMINDER})


@dataclass
class LinkThresholds:
    """Tunables for the three edge rules."""

    theta_ref: float = DEFAULT_THETA_REF
    theta_causal: float = DEFAULT_THETA_CAUSAL
    keyword_edge_min: float = DEFAULT_KEYWORD_EDGE_MIN
    temporal_window: int = DEFAULT_TEMPORAL_WINDOW
    causal_pairs: tuple[tuple[ObjectKind, ObjectKind], ...] = DEFAULT_CAUSAL_PAIRS

    def __post_init__(self):
        if not 0.0 < self.theta_causal <= self.theta_ref < 1.0:
            raise ValueError(
                "theta_ref and theta_causal must satisfy 0 < theta_causal <= theta_ref < 1, "
                f"got theta_ref={self.theta_ref!r} theta_causal={self.theta_causal!r}"
            )
        if not 0.0 <= self.keyword_edge_min <= 1.0:
            raise ValueError(f"keyword_edge_min must lie in [0, 1], got {self.keyword_edge_min!r}")
        if not isinstance(self.temporal_window, int) or self.temporal_window < 1:
            raise ValueError(
                f"temporal_window must be a positive integer, got {self.temporal_window!r}"
            )


def _clamp01(value: float) -> float:
    return min(1.0, max(0.0, value))


def link_object(
    graph: CanvasGraph,
    new_obj: CanvasObject,
    thresholds: LinkThresholds | None = None,
) -> list[CanvasEdge]:
    """Apply R1, R2, and R3 between new_obj and every stored object.

    The new object must already be in the graph: an object that is not
    stored is a ValueError (ReadOnlyGraphError on a snapshot, which refuses
    every write). Returns the edges actually added, in deterministic
    insertion order.
    """
    if thresholds is None:
        thresholds = LinkThresholds()
    index = graph.scoring_index()
    own_row = index.row_of(new_obj.id)
    if own_row is None:
        if index.read_only:  # a snapshot refuses every write first
            raise ReadOnlyGraphError("a snapshot is read-only; link in the graph it was taken from")
        raise ValueError(f"object {new_obj.id} is not stored in the graph")
    if len(index) == 1:
        return []  # nothing else is stored
    theta_ref, theta_causal = thresholds.theta_ref, thresholds.theta_causal
    keyword_min, window = thresholds.keyword_edge_min, thresholds.temporal_window
    # The stored row holds new_obj's vectors, norm and content token ids.
    query, overlaps = index.prepare_row(own_row), index.row_jaccards(own_row)
    # A row without a verified cosine is below theta_causal, so below both
    # thresholds; new_obj never links to itself.
    sims = index.cosines_from(query, theta_causal, own_row)
    visit = overlaps >= keyword_min
    if sims:  # most links pass no row of the screen
        visit[list(sims)] = True
    new_id, new_turn = new_obj.id, new_obj.turn
    # The kinds a causal pair allows as the source of an edge into new_obj.
    causal_sources = {src for src, dst in thresholds.causal_pairs if dst == new_obj.kind}
    temporal_target = new_obj.kind is ObjectKind.DECISION
    if temporal_target:
        visit |= index.turn_window(new_turn, window)
    reference_kind, causal_kind = EdgeKind.REFERENCE, EdgeKind.CAUSAL
    similarity, keyword, temporal = (
        EdgeOrigin.SIMILARITY, EdgeOrigin.KEYWORD, EdgeOrigin.TEMPORAL_HEURISTIC)
    rows, gathered = graph.rows, []
    for row in visit.nonzero()[0].tolist():
        other = rows[row]
        other_id = other.id
        if other_id == new_id:
            continue
        sim = sims.get(row, -math.inf)
        if sim >= theta_ref:
            gathered.append(CanvasEdge(other_id, new_id, reference_kind, _clamp01(sim), similarity))
        else:
            overlap = float(overlaps[row])
            if overlap >= keyword_min:
                gathered.append(
                    CanvasEdge(other_id, new_id, reference_kind, _clamp01(overlap), keyword))
        causal_weight = _clamp01(sim) if (
            sim >= theta_causal and other.kind in causal_sources and other.turn <= new_turn
        ) else None
        # The temporal rule's weight of 1.0 wins over a lighter causal weight.
        if (
            temporal_target
            and other.kind in TEMPORAL_SOURCE_KINDS
            and 0 <= new_turn - other.turn <= window
            and (causal_weight is None or causal_weight < 1.0)
        ):
            gathered.append(CanvasEdge(other_id, new_id, causal_kind, 1.0, temporal))
        elif causal_weight is not None:
            gathered.append(CanvasEdge(other_id, new_id, causal_kind, causal_weight, similarity))
    return graph.add_edges(gathered)
