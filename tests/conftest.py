"""Shared helpers for the test suite."""

from __future__ import annotations

import math

from canvasmem.core import CanvasGraph, CanvasObject, ObjectKind, Source


def axis(index: int, dim: int = 8) -> list[float]:
    """Standard basis vector: all zeros except a one at `index`."""
    vec = [0.0] * dim
    vec[index] = 1.0
    return vec


def vec_at_cosine(target: float) -> list[float]:
    """A unit vector whose cosine against axis(0) is exactly `target`."""
    return [target, math.sqrt(1.0 - target * target)] + [0.0] * 6


def make_obj(
    kind: ObjectKind = ObjectKind.KEY_FACT,
    content: str = "the cache lives in redis",
    turn: int = 0,
    embedding: list[float] | None = None,
    quote: str | None = None,
    source: Source = Source.USER,
    confidence: float = 1.0,
) -> CanvasObject:
    return CanvasObject(
        kind=kind,
        content=content,
        quote=quote if quote is not None else content,
        source=source,
        turn=turn,
        confidence=confidence,
        embedding=embedding,
    )


def graph_of(*objects: CanvasObject) -> CanvasGraph:
    graph = CanvasGraph()
    for obj in objects:
        graph.add_object(obj)
    return graph
