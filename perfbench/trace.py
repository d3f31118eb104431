"""Span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's side only: module functions are
rebound in the module that calls them, CanvasGraph methods are swapped on
the class, and the extractor and embedder are wrapped through their
protocol seams. Everything is restored when the run ends, and untraced runs
never install anything.

A span carries a name (`layer.stage`), start and end in nanoseconds, the
index of its parent span, the id of the benchmark operation it belongs to,
and the phase (setup or measured). Hot leaf calls (cosine, Jaccard, hybrid
score, add_object, add_edge, the quote check) are too many to store one by
one: each is counted and its time summed into the span that is open when it
runs. A layer's self time is the time its spans and leaf calls cover minus
what their child spans and leaves cover.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Iterator, Optional

LAYERS = ("extraction", "scoring", "graph_build", "core", "engine", "retrieval")
SETUP = "setup"
MEASURED = "measured"

# (module[:class], attribute, span name, "span" or "leaf"). The module is the
# one whose code calls the target, so rebinding there intercepts the call.
HOOKS = (
    ("canvasmem.engine", "extract_turn", "extraction.extract_turn", "span"),
    ("canvasmem.extraction", "prior_digest", "extraction.prior_digest", "span"),
    ("canvasmem.extraction", "quote_matches", "extraction.quote_check", "leaf"),
    ("canvasmem.engine", "link_object", "graph_build.link_object", "span"),
    ("canvasmem.graph_build", "cosine_sim", "scoring.cosine", "leaf"),
    ("canvasmem.graph_build", "keyword_jaccard", "scoring.jaccard", "leaf"),
    ("canvasmem.retrieval", "hybrid_score", "scoring.hybrid", "leaf"),
    ("canvasmem.retrieval", "plan_query", "retrieval.plan", "span"),
    ("canvasmem.retrieval", "coarse_retrieve", "retrieval.coarse", "span"),
    ("canvasmem.retrieval", "expand_graph", "retrieval.expand", "span"),
    ("canvasmem.retrieval", "rerank_candidates", "retrieval.rerank", "span"),
    ("canvasmem.retrieval", "greedy_select", "retrieval.pack", "span"),
    ("canvasmem.retrieval", "build_injection", "retrieval.render", "span"),
    ("canvasmem.core:CanvasGraph", "add_object", "core.add_object", "leaf"),
    ("canvasmem.core:CanvasGraph", "add_edge", "core.add_edge", "leaf"),
    ("canvasmem.core:CanvasGraph", "snapshot", "core.snapshot", "span"),
)


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: Optional[int]
    op: int
    phase: str
    leaves: dict[str, list[int]] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class NullTracer:
    """What untraced runs use: every wrap hands back the callable itself."""

    phase = SETUP

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        return fn

    def seam(self, backend, method: str, name: str):
        return backend

    def begin_op(self) -> None:
        pass


class Tracer:
    """Records spans and leaf tallies in memory for one traced run."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = 0
        self.phase = SETUP
        # Leaf calls made while no span is open: (phase, name) -> [calls, ns].
        self.orphans: dict[tuple[str, str], list[int]] = {}
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.absent: list[str] = []

    def begin_op(self) -> None:
        self.op += 1

    def add(self, key: str, amount: float) -> None:
        self.counts[(self.phase, key)] += amount

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """A span around every call of fn; `count(tracer, result)` may tally the result."""
        spans, stack, clock = self.spans, self.stack, self.clock

        def traced(*args, **kwargs):
            span = Span(name, clock(), 0, stack[-1] if stack else None, self.op, self.phase)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                count(self, result)
            return result

        return traced

    def leaf(self, name: str, fn: Callable) -> Callable:
        """Count fn's calls and sum their time into the open span."""
        spans, stack, clock = self.spans, self.stack, self.clock

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if stack:
                    tally = spans[stack[-1]].leaves.setdefault(name, [0, 0])
                else:
                    tally = self.orphans.setdefault((self.phase, name), [0, 0])
                tally[0] += 1
                tally[1] += elapsed

        return traced

    def seam(self, backend, method: str, name: str):
        """Stand-in for a backend that traces its one protocol method."""
        return SimpleNamespace(**{method: self.wrap(name, getattr(backend, method))})

    @contextmanager
    def hooks(self) -> Iterator[list[str]]:
        """Install HOOKS for the duration; yields the targets found absent."""
        installed: list[tuple[object, str, object, bool]] = []
        self.absent = []
        try:
            for target, attr, name, kind in HOOKS:
                try:
                    owner = _resolve(target)
                except (ImportError, AttributeError):
                    owner = None
                if owner is None or not hasattr(owner, attr):
                    self.absent.append(f"{target}.{attr}")
                    continue
                own = attr in vars(owner)
                original = vars(owner)[attr] if own else getattr(owner, attr)
                wrapped = self.leaf(name, original) if kind == "leaf" else self.wrap(
                    name, original, COUNTERS.get(name))
                setattr(owner, attr, wrapped)
                installed.append((owner, attr, original, own))
            yield self.absent
        finally:
            for owner, attr, original, own in reversed(installed):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)


def _count_link(tracer: Tracer, edges) -> None:
    tracer.add("edges_added", len(edges))
    for edge in edges:
        tracer.add(f"edges.{edge.origin.value}", 1)


def _count_candidates(tracer: Tracer, candidates) -> None:
    tracer.add("candidates", len(candidates))


def _count_expanded(tracer: Tracer, scored) -> None:
    tracer.add("expanded_candidates", sum(1 for s in scored if s.provenance.value == "EXPANDED"))


COUNTERS = {
    "graph_build.link_object": _count_link,
    "extraction.extract_turn": _count_candidates,
    "retrieval.expand": _count_expanded,
}


@dataclass
class Breakdown:
    """Aggregates of one phase (or of all phases) of a trace."""

    self_ns: dict[str, int]
    span_ns: dict[str, int]
    span_calls: dict[str, int]
    leaf_ns: dict[str, int]
    leaf_calls: dict[str, int]
    self_by_name: dict[str, int]


def breakdown(
    spans: list[Span],
    orphans: dict[tuple[str, str], list[int]] | None = None,
    phases: tuple[str, ...] = (SETUP, MEASURED),
) -> Breakdown:
    """Self time per layer plus inclusive time and calls per span and leaf name."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] += span.end - span.start
    out = Breakdown(*(defaultdict(int) for _ in range(6)))
    for index, span in enumerate(spans):
        if span.phase not in phases:
            continue
        duration = span.end - span.start
        leaf_total = 0
        for name, (calls, ns) in span.leaves.items():
            leaf_total += ns
            out.leaf_ns[name] += ns
            out.leaf_calls[name] += calls
            out.self_ns[name.split(".", 1)[0]] += ns
        own = duration - child_ns[index] - leaf_total
        out.self_ns[span.layer] += own
        out.self_by_name[span.name] += own
        out.span_ns[span.name] += duration
        out.span_calls[span.name] += 1
    for (phase, name), (calls, ns) in (orphans or {}).items():
        if phase in phases:
            out.leaf_ns[name] += ns
            out.leaf_calls[name] += calls
            out.self_ns[name.split(".", 1)[0]] += ns
    return out
