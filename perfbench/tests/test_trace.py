from dataclasses import replace
from itertools import count

import pytest

import canvasmem.engine
from perfbench import harness, trace
from perfbench.harness import Workload, measure
from perfbench.trace import MEASURED, SETUP, Span, Tracer, breakdown
from perfbench.workloads import GeneratorParams


def test_self_time_of_a_hand_built_span_tree():
    spans = [
        Span("engine.ingest_turn", 0, 100, None, 1, MEASURED),
        Span("extraction.extract_turn", 10, 40, 0, 1, MEASURED,
             {"extraction.quote_check": [2, 5]}),
        Span("graph_build.link_object", 50, 90, 0, 1, MEASURED,
             {"scoring.cosine": [10, 20], "core.add_edge": [3, 6]}),
        Span("core.snapshot", 200, 230, None, 2, SETUP),
    ]
    b = breakdown(spans)
    assert b.self_ns == {"engine": 30, "extraction": 30, "graph_build": 14, "scoring": 20,
                         "core": 36}
    assert b.leaf_calls["scoring.cosine"] == 10
    assert b.span_ns["graph_build.link_object"] == 40
    assert b.self_by_name["graph_build.link_object"] == 14
    measured = breakdown(spans, phases=(MEASURED,))
    assert sum(measured.self_ns.values()) == 100


def test_wrapped_calls_nest_and_leaves_sum_into_their_parent():
    ticks = count(0, 10)
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.leaf("scoring.cosine", lambda: None)
    inner = tracer.wrap("graph_build.link_object", lambda: (leaf(), leaf()))
    outer = tracer.wrap("engine.ingest_turn", lambda: inner())
    tracer.begin_op()
    outer()
    root, child = tracer.spans
    assert (child.parent, child.op, root.op) == (0, 1, 1)
    assert child.leaves == {"scoring.cosine": [2, 20]}
    b = breakdown(tracer.spans)
    assert sum(b.self_ns.values()) == root.end - root.start


def test_absent_hook_target_is_reported_not_raised(monkeypatch):
    extra = (
        ("canvasmem.engine", "no_such_function", "engine.gone", "span"),
        ("no_such_module", "f", "core.gone", "leaf"),
    )
    monkeypatch.setattr(trace, "HOOKS", trace.HOOKS + extra)
    original = canvasmem.engine.link_object
    tracer = Tracer()
    with tracer.hooks() as absent:
        assert canvasmem.engine.link_object is not original
    assert absent == ["canvasmem.engine.no_such_function", "no_such_module.f"]
    assert canvasmem.engine.link_object is original


TINY = GeneratorParams(
    turns=40, statements_per_turn=(0.1, 0.7, 0.15, 0.05), topics=6, attributes=4,
    skew=0.5, planted=4, distractors=(1, 3), questions=12,
)


@pytest.mark.parametrize("name", ["ingest-long", "query-heavy", "mixed-session"])
def test_tracing_changes_no_output_and_accounts_for_the_op_time(tmp_path, monkeypatch, name):
    monkeypatch.setattr(harness, "CHECKPOINT_EVERY", 10)
    params = replace(TINY, per_turn=True, questions=40) if name == "mixed-session" else TINY
    workload = Workload(name, "test", params, setup_repeats=1)
    plain = measure(workload, 3, tmp_path)
    tracer = Tracer()
    with tracer.hooks():
        traced = measure(workload, 3, tmp_path, tracer=tracer)
    assert plain.run.rec.failed == traced.run.rec.failed == 0
    assert (plain.graph_sha256, plain.blocks_sha256) == (traced.graph_sha256, traced.blocks_sha256)
    b = breakdown(tracer.spans, tracer.orphans, (MEASURED,))
    assert sum(b.self_ns.values()) / traced.measured_busy_ns > 0.9
