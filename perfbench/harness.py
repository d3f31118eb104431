"""Runs one workload against the offline mock stack and measures it.

A run is: generate inputs (not timed), set up (timed as `setup_s`, median of
the workload's set-ups), then the measured phase, one fixed pass of work that
is the same for every run of a seed, then output checks. Every
call into the program goes through Recorder.call, which times it and counts
it as attempted; an exception is counted as a failure and the run goes on.
Reported times are in reference milliseconds (see reference.py): a call's
CPU time scaled by the reference units timed around it.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from canvasmem.benchmark import keyword_coverage
from canvasmem.core import CanvasGraph, deserialize_graph, serialize_graph
from canvasmem.engine import CanvasEngine
from canvasmem.extraction import ConversationTurn, MockExtractor
from canvasmem.retrieval import RetrievalConfig, retrieve_detailed
from canvasmem.scoring import MockEmbedder

from . import checks
from .reference import ReferenceUnit, to_reference_ms
from .trace import MEASURED, SETUP, NullTracer, Tracer
from .workloads import PRESETS, Conversation, GeneratorParams, Question, generate

MAX_NOTES = 5
# Save and load the graph after every this many ops. Spreading the
# checkpoints over the pass samples the host's speed as the ops do.
CHECKPOINT_EVERY = 50
# Each checkpoint's save is timed this many times in a row, so that the
# median save time of a run is not one save's time (the graph grows between
# checkpoints). The repeats are outside every op.
SAVES_PER_CHECKPOINT = 3

WARMUP = GeneratorParams(
    turns=60, statements_per_turn=(0.1, 0.7, 0.15, 0.05), topics=8, attributes=4,
    skew=0.5, planted=4, distractors=(1, 3), questions=12,
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: GeneratorParams
    # `setup_s` is the median of this many set-ups.
    setup_repeats: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ingest-long",
            "Writes only: linking compares each new object with every stored one, so "
            "ingest grows quadratically with conversation length and nothing else runs.",
            GeneratorParams(
                turns=1000, statements_per_turn=(0.08, 0.8, 0.1, 0.02), topics=120,
                attributes=30, skew=0.2, planted=40, distractors=(1, 9), questions=80,
            ),
            setup_repeats=5,
        ),
        Workload(
            "query-heavy",
            "Reads only against a loaded, static, densely linked graph: every query "
            "hybrid-scores all objects and 4-hop expansion has many edges to walk.",
            GeneratorParams(
                turns=420, statements_per_turn=(0.1, 0.7, 0.15, 0.05), topics=8,
                attributes=5, skew=0.5, planted=40, distractors=(2, 12), questions=1008,
            ),
            setup_repeats=2,
        ),
        Workload(
            "mixed-session",
            "A live agent: one read (snapshot plus query) after every written turn and "
            "a checkpoint every 50 turns, so costs moved between ingest, snapshot, "
            "query and persistence all show.",
            GeneratorParams(
                turns=1000, statements_per_turn=(0.68, 0.29, 0.03, 0.0), topics=40,
                attributes=12, skew=0.4, planted=20, distractors=(1, 6), questions=1000,
                per_turn=True,
            ),
            setup_repeats=5,
        ),
    )
}


def to_turns(conv: Conversation) -> list[ConversationTurn]:
    return [ConversationTurn(t.index, t.user, t.assistant) for t in conv.turns]


class CollectorClock:
    """CPU time the cyclic garbage collector has spent since it was opened,
    from gc.callbacks; close() stops the count."""

    def __init__(self):
        self.ns = 0
        self._start = 0
        gc.callbacks.append(self._callback)

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.thread_time_ns()
        else:
            self.ns += time.thread_time_ns() - self._start

    def close(self) -> None:
        gc.callbacks.remove(self._callback)


@dataclass(frozen=True)
class Call:
    """One program call: its kind (None when untimed), CPU time and the part
    of it the garbage collector took, wall time, and its reference unit."""

    kind: Optional[str]
    cpu_ns: int
    gc_ns: int
    wall_ns: int
    ref: int


class Recorder:
    """Times program calls and counts what was attempted and what failed.

    A call's time is the CPU time of the benchmark's thread, so that time
    the host gives other processes does not count; a reference unit is
    timed right before every call, so that each call's time can be given in
    reference milliseconds (see reference.py).

    A full collection of the garbage collector walks every live object and
    lands on whichever call crosses its allocation threshold: on
    `query-heavy` it came every 102 queries, about 1% of them, and took
    20-50 ms, so a p99 with it swung between two values from run to run.
    Latencies (`samples`) leave the collector's pauses out; totals
    (`total_ms`, `busy_ms`), from which set-up time and throughput come,
    keep them.
    """

    def __init__(self):
        self.reference = ReferenceUnit()
        self.collector = CollectorClock()
        self.calls: list[Call] = []
        self.refs: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def call(self, kind: Optional[str], fn: Callable, *args):
        """One program operation; its time goes under `kind` when one is given."""
        self.attempted += 1
        self.refs.append(self.reference.time())
        wall = time.perf_counter_ns()
        collected = self.collector.ns
        cpu = time.thread_time_ns()
        try:
            result = fn(*args)
        except Exception:  # counted and reported; the run continues
            self._record(None, cpu, collected, wall)
            self.failed += 1
            self._note(traceback.format_exc())
            return None
        self._record(kind, cpu, collected, wall)
        return result

    def _record(self, kind: Optional[str], cpu: int, collected: int, wall: int) -> None:
        cpu_ns = time.thread_time_ns() - cpu
        wall_ns = time.perf_counter_ns() - wall
        gc_ns = self.collector.ns - collected
        self.calls.append(Call(kind, cpu_ns, gc_ns, wall_ns, len(self.refs) - 1))

    def close(self) -> None:
        """Stop counting the collector's time; the times taken stay readable."""
        self.collector.close()

    def mark(self) -> int:
        """Position in the call list, to take the calls made since."""
        return len(self.calls)

    def ref_ms(self, call: Call, pauses: bool = True) -> float:
        """The call's reference time, with or without the collector's pauses."""
        ns = call.cpu_ns if pauses else call.cpu_ns - call.gc_ns
        return to_reference_ms(ns, self.refs, call.ref)

    def total_ms(self, start: int, end: int, pauses: bool = True) -> float:
        """Reference milliseconds of all calls in calls[start:end]."""
        return sum(self.ref_ms(call, pauses) for call in self.calls[start:end])

    def samples(self, start: int, end: int, wall: bool = False) -> dict[str, list[float]]:
        """Latencies of the timed calls in calls[start:end] by kind: reference
        ms without the collector's pauses, or wall ms."""
        out: dict[str, list[float]] = defaultdict(list)
        for call in self.calls[start:end]:
            if call.kind is not None:
                out[call.kind].append(call.wall_ns / 1e6 if wall else self.ref_ms(call, False))
        return out

    def busy_ms(self, start: int, end: int) -> dict[str, float]:
        """Reference ms by kind of the timed calls in calls[start:end], pauses kept."""
        out: dict[str, float] = defaultdict(float)
        for call in self.calls[start:end]:
            if call.kind is not None:
                out[call.kind] += self.ref_ms(call)
        return out

    def tally(self, checked: int, bad: list, what: str) -> None:
        """Count `checked` output checks, of which `bad` lists the failures."""
        self.attempted += checked
        self.failed += len(bad)
        if bad:
            self._note(f"{what} check failed for {len(bad)} item(s), e.g. {bad[:3]}")

    def _note(self, text: str) -> None:
        if len(self.notes) < MAX_NOTES:
            self.notes.append(text)
            print(text, file=sys.stderr)


@dataclass
class PassOutput:
    graph: CanvasGraph
    blocks_sha256: str


class Run:
    """One workload's calls into the program, traced or not."""

    def __init__(self, workload: Workload, conv: Conversation, warm: Conversation,
                 tracer, workdir: Path):
        self.workload = workload
        self.conv = conv
        self.warm = warm
        self.turns = to_turns(conv)
        self.warm_turns = to_turns(warm)
        self.tracer = tracer
        self.workdir = workdir
        self.rec = Recorder()
        self.recall: list[float] = []
        # Session turns of mixed-session as (start, end) positions in rec.calls.
        self.session_ops: list[tuple[int, int]] = []
        self.graph_bytes = 0
        self.retrieve = tracer.wrap("retrieval.retrieve", retrieve_detailed, _count_result)
        self.serialize = tracer.wrap("core.serialize", serialize_graph)
        self.deserialize = tracer.wrap("core.deserialize", deserialize_graph)
        self.configs: dict[str, RetrievalConfig] = {}

    # -- program calls ----------------------------------------------------

    def new_engine(self):
        tracer = self.tracer
        engine = CanvasEngine(
            tracer.seam(MockExtractor(), "extract", "extraction.backend"),
            tracer.seam(MockEmbedder(), "embed", "scoring.embed"),
        )
        ingest = tracer.wrap("engine.ingest_turn", engine.ingest_turn)
        snapshot = tracer.wrap("engine.snapshot", engine.snapshot)
        return engine, ingest, snapshot

    def ingest(self, kind, ingest_fn, turn: ConversationTurn) -> None:
        self.tracer.begin_op()
        self.rec.call(kind, ingest_fn, turn)

    def _save(self, graph: CanvasGraph) -> bytes:
        data = self.serialize(graph)
        (self.workdir / "graph.json").write_bytes(data)
        return data

    def _load(self) -> CanvasGraph:
        return self.deserialize((self.workdir / "graph.json").read_bytes())

    def checkpoint(self, graph: CanvasGraph, timed: bool = True) -> None:
        """Save to a file and load it back; the round trip is then checked."""
        self.tracer.begin_op()
        saved = self.rec.call("save" if timed else None, self._save, graph)
        loaded = self.rec.call("load" if timed else None, self._load)
        if saved is not None and loaded is not None:
            self.graph_bytes = len(saved)
            broken = checks.round_trip_broken(graph, loaded, saved)
            self.rec.tally(1, ["round trip"] if broken else [], "save/load")

    def resave(self, graph: CanvasGraph) -> None:
        """The checkpoint's extra saves, outside any op (SAVES_PER_CHECKPOINT)."""
        for _ in range(SAVES_PER_CHECKPOINT - 1):
            self.tracer.begin_op()
            self.rec.call("save", self._save, graph)

    def warm_up(self) -> None:
        """Fill lazy caches and first-call paths of every layer before timing."""
        self.configs = {name: RetrievalConfig.preset(name) for name in PRESETS}
        engine, ingest, snapshot = self.new_engine()
        for turn in self.warm_turns:
            self.ingest(None, ingest, turn)
        snap = self.rec.call(None, snapshot)
        for question in self.warm.questions:
            self.tracer.begin_op()
            self.rec.call(None, self.retrieve, snap, question.text, engine.embedder,
                          self.configs[question.preset])
        self.checkpoint(engine.graph, timed=False)

    def score(self, block: str, question: Question, blocks) -> None:
        """Recall and budget check of one rendered block, outside any timing."""
        blocks.update(block.encode("utf-8") + b"\0")
        self.recall.append(keyword_coverage(block, question.keywords))
        over = checks.over_budget(block, self.configs[question.preset].budget_tokens)
        self.rec.tally(1, [question.text] if over else [], "block budget")

    def ask(self, kind: str, graph: CanvasGraph, question: Question, embedder, blocks) -> None:
        self.tracer.begin_op()
        result = self.rec.call(kind, self.retrieve, graph, question.text, embedder,
                               self.configs[question.preset])
        if result is not None:
            self.score(result.injection, question, blocks)

    # -- workload shapes --------------------------------------------------

    def setup(self):
        self.warm_up()
        if self.workload.name != "query-heavy":
            return None
        # As `canvasmem ingest` then `canvasmem query`: build, save, load.
        engine, ingest, _ = self.new_engine()
        for turn in self.turns:
            self.ingest(None, ingest, turn)
        path = self.workdir / "base.json"
        data = self.rec.call(None, self.serialize, engine.graph)
        self.rec.call(None, path.write_bytes, data)
        graph = self.rec.call(None, self.deserialize, path.read_bytes())
        return graph, self.tracer.seam(MockEmbedder(), "embed", "scoring.embed")

    def one_pass(self, state) -> PassOutput:
        blocks = hashlib.sha256()
        name = self.workload.name
        every = CHECKPOINT_EVERY
        if name == "query-heavy":
            graph, embedder = state
            for index, question in enumerate(self.conv.questions, 1):
                self.ask("op", graph, question, embedder, blocks)
                if index % every == 0:
                    self.checkpoint(graph)
                    self.resave(graph)
        elif name == "ingest-long":
            engine, ingest, _ = self.new_engine()
            graph = engine.graph
            for index, turn in enumerate(self.turns, 1):
                self.ingest("op", ingest, turn)
                if index % every == 0:
                    self.checkpoint(graph)
                    self.resave(graph)
        else:
            engine, ingest, snapshot = self.new_engine()
            for turn, question in zip(self.turns, self.conv.questions):
                before = self.rec.mark()
                self.ingest("ingest", ingest, turn)
                self.tracer.begin_op()
                result = self.rec.call("read", self._read, snapshot, question, engine.embedder)
                if result is not None:
                    self.score(result.injection, question, blocks)
                checkpointed = (turn.index + 1) % every == 0
                if checkpointed:
                    self.checkpoint(engine.graph)
                self.session_ops.append((before, self.rec.mark()))
                if checkpointed:
                    self.resave(engine.graph)
            graph = engine.graph
        return PassOutput(graph, blocks.hexdigest())

    def _read(self, snapshot, question: Question, embedder):
        return self.retrieve(snapshot(), question.text, embedder, self.configs[question.preset])

    def verify(self, graph: CanvasGraph) -> Optional[str]:
        """Graph checks, plus recall questions where the pass asked none.

        Returns the digest of the blocks those questions rendered, if any.
        """
        failures = checks.graph_failures(graph, self.turns)
        for what, bad in failures.items():
            checked = len(graph.edges) if what == "causal_order" else len(graph.objects)
            self.rec.tally(checked, bad, what)
        if self.workload.name != "ingest-long":
            return None
        embedder = MockEmbedder()
        blocks = hashlib.sha256()
        for question in self.conv.questions:
            result = self.rec.call(None, retrieve_detailed, graph, question.text,
                                   embedder, self.configs[question.preset])
            if result is not None:
                self.score(result.injection, question, blocks)
        return blocks.hexdigest()


def _count_result(tracer: Tracer, result) -> None:
    ranked = result.ranked
    selected = result.selected
    tracer.add("queries", 1)
    tracer.add("ranked", len(ranked))
    tracer.add("selected", len(selected))
    tracer.add("selected_expanded", sum(1 for s in selected if s.provenance.value == "EXPANDED"))
    tracer.add("block_tokens", checks.block_tokens(result.injection))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


@dataclass
class Measurement:
    """What one run measured.

    `setup_s`, `samples`, `busy_ms`, `measured_ms` and `gc_pause_ms` are in
    reference time (see reference.py); `samples` leave the collector's
    pauses out and the rest keep them. `measured_busy_ns` and `wall_samples`
    are wall time.
    """

    run: Run
    setup_s: list[float]
    measured_s: float
    graph: CanvasGraph
    graph_sha256: str
    blocks_sha256: str
    measured_ms: float
    measured_busy_ns: int
    samples: dict[str, list[float]]
    busy_ms: dict[str, float]
    wall_samples: dict[str, list[float]]
    reference_ms: list[float]
    gc_pause_ms: float


def measure(workload: Workload, seed: int, workdir: Path, tracer=None,
            repeats: int = 0) -> Measurement:
    """Set up `repeats` times (default: the workload's), then run the pass once."""
    conv = generate(workload.params, seed)
    warm = generate(WARMUP, seed)
    run = Run(workload, conv, warm, tracer if tracer is not None else NullTracer(), workdir)
    try:
        return _measure(run, repeats or workload.setup_repeats)
    finally:
        run.rec.close()


def _measure(run: Run, repeats: int) -> Measurement:
    workload, tracer, rec = run.workload, run.tracer, run.rec
    setups = []
    state = None
    for _ in range(repeats):
        tracer.phase = SETUP
        first = rec.mark()
        state = run.setup()
        setups.append((first, rec.mark()))
    if workload.name == "query-heavy" and state is not None:
        run.verify(state[0])
    tracer.phase = MEASURED
    first = rec.mark()
    refs_before = len(rec.refs)
    start = time.perf_counter()
    out = run.one_pass(state)
    measured_s = time.perf_counter() - start
    last = rec.mark()
    refs_after = len(rec.refs)
    tracer.phase = "checks"
    graph_sha256 = hashlib.sha256(serialize_graph(out.graph)).hexdigest()
    blocks_sha256 = out.blocks_sha256
    if workload.name != "query-heavy":
        blocks_sha256 = run.verify(out.graph) or blocks_sha256
    # Scaled only now, so that every call has reference units on both sides.
    samples = rec.samples(first, last)
    busy = rec.busy_ms(first, last)
    wall = rec.samples(first, last, wall=True)
    if run.session_ops:
        samples["op"] = [rec.total_ms(a, b, pauses=False) for a, b in run.session_ops]
        busy["op"] = sum(rec.total_ms(a, b) for a, b in run.session_ops)
        wall["op"] = [sum(c.wall_ns for c in rec.calls[a:b]) / 1e6 for a, b in run.session_ops]
    measured_ms = rec.total_ms(first, last)
    return Measurement(
        run,
        setup_s=[rec.total_ms(a, b) / 1e3 for a, b in setups],
        measured_s=measured_s,
        graph=out.graph,
        graph_sha256=graph_sha256,
        blocks_sha256=blocks_sha256,
        measured_ms=measured_ms,
        measured_busy_ns=sum(c.wall_ns for c in rec.calls[first:last]),
        samples=samples,
        busy_ms=busy,
        wall_samples=wall,
        reference_ms=[ns / 1e6 for ns in rec.refs[refs_before:refs_after]],
        gc_pause_ms=measured_ms - rec.total_ms(first, last, pauses=False),
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def graph_shape(graph: CanvasGraph) -> dict:
    objects = len(graph.objects)
    return {
        "objects": objects,
        "edges": len(graph.edges),
        "edges_by_origin": graph.edge_counts_by_origin(),
        "edges_per_object": len(graph.edges) / objects if objects else 0.0,
    }


def end_to_end(m: Measurement) -> dict[str, tuple[float, str]]:
    """The contract's end-to-end metrics: the same names on every workload."""
    op = m.samples["op"]
    objects = len(m.graph.objects)
    return {
        "setup_s": (statistics.median(m.setup_s), "s"),
        "op_ms.p50": (statistics.median(op), "ms"),
        "op_ms.p99": (percentile(op, 99), "ms"),
        "ops_per_s": (len(op) / (m.busy_ms["op"] / 1e3), "1/s"),
        "checkpoint_save_ms.p50": (statistics.median(m.samples["save"]), "ms"),
        "graph_bytes_per_object": (m.run.graph_bytes / objects, "B/object"),
        "block_recall": (statistics.fmean(m.run.recall), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def named(m: Measurement) -> dict[str, tuple[float, str]]:
    """The same run under the per-operation names: ingest, query, read, session."""
    rec = m.run.rec
    out: dict[str, tuple[float, str]] = {}

    def latency(prefix: str, values: list[float]) -> None:
        out[f"{prefix}.p50"] = (statistics.median(values), "ms")
        out[f"{prefix}.p99"] = (percentile(values, 99), "ms")

    def rate(name: str, kind: str) -> None:
        out[name] = (len(m.samples[kind]) / (m.busy_ms[kind] / 1e3), "1/s")

    workload = m.run.workload.name
    if workload == "ingest-long":
        latency("ingest_turn_ms", m.samples["op"])
        rate("ingest_turns_per_s", "op")
    elif workload == "query-heavy":
        latency("query_ms", m.samples["op"])
        rate("queries_per_s", "op")
    else:
        latency("ingest_turn_ms", m.samples["ingest"])
        rate("ingest_turns_per_s", "ingest")
        latency("read_ms", m.samples["read"])
        rate("session_turns_per_s", "op")
    out["checkpoint_save_ms.p50"] = (statistics.median(m.samples["save"]), "ms")
    out["checkpoint_load_ms.p50"] = (statistics.median(m.samples["load"]), "ms")
    out["op_wall_ms.p50"] = (statistics.median(m.wall_samples["op"]), "ms")
    out["reference_unit_wall_ms.p50"] = (statistics.median(m.reference_ms), "ms")
    out["gc_pause_share"] = (m.gc_pause_ms / m.measured_ms, "ratio")
    out["failed_op_ratio"] = (rec.failed / rec.attempted, "ratio")
    return out
