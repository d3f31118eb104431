"""Output checks the benchmark runs on what the program produced.

Each check returns the offending items (empty when the output is correct),
so the harness can count every failure; none of them stops a run.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from canvasmem.core import CanvasGraph, EdgeKind, normalize_text, object_id, serialize_graph
from canvasmem.extraction import ConversationTurn
from canvasmem.retrieval import default_token_counter

OBJECT_LINE_PREFIX = "- ["


def ungrounded_quotes(graph: CanvasGraph, turns: Mapping[int, ConversationTurn]) -> list[str]:
    """Objects whose quote is not a normalized substring of their turn's speaker text."""
    bad = []
    for obj in graph.objects.values():
        turn = turns.get(obj.turn)
        if turn is None or normalize_text(obj.quote) not in normalize_text(turn.text_for(obj.source)):
            bad.append(obj.id)
    return bad


def wrong_ids(graph: CanvasGraph) -> list[str]:
    """Objects whose id is not object_id(kind, content, turn), or stored under another key."""
    return [
        key
        for key, obj in graph.objects.items()
        if key != obj.id or obj.id != object_id(obj.kind, obj.content, obj.turn)
    ]


def backward_causal_edges(graph: CanvasGraph) -> list[tuple[str, str]]:
    """Causal edges whose source turn comes after their destination turn."""
    return [
        (edge.src, edge.dst)
        for edge in graph.edges
        if edge.kind is EdgeKind.CAUSAL
        and graph.objects[edge.src].turn > graph.objects[edge.dst].turn
    ]


def object_lines(block: str) -> list[str]:
    """The rendered object lines of a context block, newline included."""
    return [line for line in block.splitlines(keepends=True) if line.startswith(OBJECT_LINE_PREFIX)]


def block_tokens(block: str) -> int:
    return sum(default_token_counter(line) for line in object_lines(block))


def over_budget(block: str, budget_tokens: int) -> bool:
    """True when the block's object lines cost more tokens than the budget."""
    return block_tokens(block) > budget_tokens


def round_trip_broken(original: CanvasGraph, loaded: CanvasGraph, saved: bytes) -> bool:
    """True unless the loaded graph equals the original and re-serializes to `saved`."""
    return loaded != original or serialize_graph(loaded) != saved


def graph_failures(graph: CanvasGraph, turns: Iterable[ConversationTurn]) -> dict[str, list]:
    """Every per-object and per-edge check on a final graph, by check name."""
    by_index = {turn.index: turn for turn in turns}
    return {
        "quote": ungrounded_quotes(graph, by_index),
        "id": wrong_ids(graph),
        "causal_order": backward_causal_edges(graph),
    }
