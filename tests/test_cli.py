from __future__ import annotations

import hashlib
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import canvasmem.cli
from canvasmem import core
from canvasmem.cli import _read_conversation, main
from canvasmem.config import build_bundle, load_config
from canvasmem.core import (CanvasEdge, CanvasGraph, EdgeKind, EdgeOrigin, deserialize_graph,
                            serialize_graph)
from canvasmem.engine import CanvasEngine

from conftest import axis, make_obj

SRC = str(Path(canvasmem.cli.__file__).resolve().parent.parent)


@pytest.fixture
def conversation(tmp_path):
    rows = [
        {"index": 0, "user": "Morning. KEY_FACT: the api gateway times out after 30 seconds",
         "assistant": "Noted."},
        {"index": 1, "user": "Given the timeout, DECISION: we will cache responses in redis",
         "assistant": "Sounds sensible."},
        {"index": 2, "user": "TODO: write the cache invalidation tests",
         "assistant": "On the list."},
    ]
    path = tmp_path / "conversation.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return path


def test_ingest_writes_a_loadable_graph(conversation, tmp_path, capsys):
    graph_path = tmp_path / "graph.json"
    assert main(["ingest", "--input", str(conversation), "--graph", str(graph_path)]) == 0
    out = capsys.readouterr().out
    assert "objects" in out and "edges" in out
    graph = deserialize_graph(graph_path.read_bytes())
    assert len(graph.objects) == 3
    assert graph.next_turn == 3


# Three turns whose second holds a tab (the JSON escape \t), which a save
# escapes in content and quote alike.
_TABBED_TURNS = (
    '{"index": 0, "user": "KEY_FACT: the api gateway times out after 30 seconds"}\n'
    '{"index": 1, "user": "DECISION: use\\tredis for caching"}\n'
    '{"index": 2, "user": "TODO: write the cache invalidation tests"}\n'
)

# Where orjson is installed, each test below runs once through its paths
# and once with them forced off, as in load_both_ways.
_ORJSON = pytest.mark.parametrize("hide_orjson", [False, True], ids=["orjson", "stdlib"])


@pytest.fixture
def tabbed(tmp_path):
    """(_TABBED_TURNS's file, the graph file `canvasmem ingest` wrote of it
    with orjson's paths on)."""
    conversation, graph_path = tmp_path / "tabbed.jsonl", tmp_path / "tabbed.json"
    conversation.write_text(_TABBED_TURNS, encoding="utf-8")
    assert main(["ingest", "--input", str(conversation), "--graph", str(graph_path)]) == 0
    assert b"use\\tredis" in graph_path.read_bytes()
    return conversation, graph_path


def _hide_orjson(monkeypatch, hide: bool) -> None:
    if hide:
        monkeypatch.setattr(core, "_orjson", lambda: None)


def test_an_ingest_with_orjson_hidden_writes_the_same_bytes(tabbed, tmp_path, monkeypatch):
    conversation, graph_path = tabbed
    _hide_orjson(monkeypatch, True)
    stdlib_path = tmp_path / "stdlib.json"
    assert main(["ingest", "--input", str(conversation), "--graph", str(stdlib_path)]) == 0
    assert stdlib_path.read_bytes() == graph_path.read_bytes()


@_ORJSON
def test_a_loaded_graphs_first_save_gives_back_its_file(hide_orjson, tabbed, monkeypatch):
    # The whole document in one save: one orjson call, or the stdlib encoder.
    data = tabbed[1].read_bytes()
    _hide_orjson(monkeypatch, hide_orjson)
    assert serialize_graph(deserialize_graph(data)) == data


@_ORJSON
def test_turn_by_turn_saves_end_in_the_one_shot_file(hide_orjson, tabbed, monkeypatch):
    # Each save after the first joins its new records to the cached document.
    conversation, graph_path = tabbed
    _hide_orjson(monkeypatch, hide_orjson)
    config = load_config()
    bundle = build_bundle(config)
    engine = CanvasEngine(extractor=bundle.extractor, embedder=bundle.embedder,
                          thresholds=config.thresholds, gleaning=config.gleaning)
    saves = []
    for turn in _read_conversation(str(conversation)):
        engine.ingest_turn(turn)
        saves.append(serialize_graph(engine.graph))
    assert len(set(saves)) == 3, "a turn's save wrote no new record"
    assert saves[-1] == graph_path.read_bytes()


@_ORJSON
def test_the_query_block_is_pinned(hide_orjson, tabbed, monkeypatch, capsys):
    # A change to how a block renders, or to what ingest stores, fails here.
    _hide_orjson(monkeypatch, hide_orjson)
    capsys.readouterr()
    assert main(["query", "why do we use redis?", "--graph", str(tabbed[1])]) == 0
    block = capsys.readouterr().out
    assert hashlib.sha256(block.encode("utf-8")).hexdigest() == (
        "90e46cbdc7ae75752bbc872b6afb4d42e078f4d5a8afa5545d7d6ccc2e1f0a14"), block


def _edit(change):
    """A tampering of the parsed graph file: change(doc) gives the new one."""
    def tamper(data: bytes) -> bytes:
        doc = change(json.loads(data))
        return json.dumps(doc, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    return tamper


def _edges(change):
    return _edit(lambda doc: dict(doc, edges=change(doc["edges"])))


def _first_embedding(change):
    def first_changed(doc):
        first, *rest = doc["objects"]
        return dict(doc, objects=[dict(first, embedding=change(first["embedding"])), *rest])
    return _edit(first_changed)


def _reverse_causal(edges):
    n = next(n for n, edge in enumerate(edges) if edge["kind"] == "CAUSAL")
    return [*edges[:n], dict(edges[n], src=edges[n]["dst"], dst=edges[n]["src"]), *edges[n + 1:]]


_MALFORMED_RECORD = r"^error: invalid object record: "

# Each fault, the tampering that plants it in the tabbed graph file, and the
# pattern of the one line the refusal prints. A quote starting with \ud800
# is a lone surrogate no save could write; an embedding cut to one nonzero
# component could not sit in a scoring index beside the others; a null or
# all-zero embedding could not be scored; a norm scaled by 1e152 or 1e-152
# lies outside the [1e-150, 1e150] the float32 screen bounds; and one scaled
# by 1e200 overflows its dot product with itself.
_TAMPERED = {
    "duplicate-edge": (_edges(lambda edges: [*edges, edges[0]]),
                       r"^error: duplicate edge '[0-9a-f]+' -> '[0-9a-f]+'$"),
    "self-loop": (_edges(lambda edges: [dict(edges[0], dst=edges[0]["src"]), *edges[1:]]),
                  r"^error: invalid edge record: edge endpoints must differ$"),
    "reversed-causal": (_edges(_reverse_causal),
                        r"^error: invalid edge record: causal edges must point forward in time$"),
    "dangling-edge": (_edges(lambda edges: [*edges[:-1], dict(edges[-1], dst="f" * 16)]),
                      r"^error: invalid edge record: edge endpoints must reference stored objects$"),
    "surrogate-quote": (lambda data: data.replace(b'"quote":"', b'"quote":"\\ud800', 1),
                        r"^error: invalid object record: quote .*UTF-8"),
    "null-component": (_first_embedding(lambda vec: [None, *vec[1:]]), _MALFORMED_RECORD),
    "short": (_first_embedding(lambda vec: [x for x in vec if x][:1]), _MALFORMED_RECORD),
    "none": (_first_embedding(lambda vec: None), _MALFORMED_RECORD),
    "zero": (_first_embedding(lambda vec: [0.0] * len(vec)), _MALFORMED_RECORD),
    "huge-norm": (_first_embedding(lambda vec: [x * 1e152 for x in vec]), _MALFORMED_RECORD),
    "tiny-norm": (_first_embedding(lambda vec: [x * 1e-152 for x in vec]), _MALFORMED_RECORD),
    "overflow-norm": (_first_embedding(lambda vec: [x * 1e200 for x in vec]), _MALFORMED_RECORD),
}


@_ORJSON
@pytest.mark.parametrize("fault", _TAMPERED)
def test_a_tampered_graph_file_exits_2_with_one_error_line(fault, hide_orjson, tabbed, tmp_path,
                                                           monkeypatch, capsys):
    # Through orjson, whose refusal hands the file to the stdlib load, and
    # through the stdlib load alone.
    tamper, pattern = _TAMPERED[fault]
    tampered = tmp_path / f"{fault}.json"
    tampered.write_bytes(tamper(tabbed[1].read_bytes()))
    _hide_orjson(monkeypatch, hide_orjson)
    capsys.readouterr()
    assert main(["query", "why do we use redis?", "--graph", str(tampered)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and re.search(pattern, err.rstrip("\n")), err


def test_failed_ingest_leaves_an_existing_graph_file_intact(conversation, tmp_path, monkeypatch):
    graph_path = tmp_path / "graph.json"
    assert main(["ingest", "--input", str(conversation), "--graph", str(graph_path)]) == 0
    before = graph_path.read_bytes()

    def broken_serialize(graph):
        raise RuntimeError("serializer crashed")

    monkeypatch.setattr(canvasmem.cli, "serialize_graph", broken_serialize)
    with pytest.raises(RuntimeError):
        main(["ingest", "--input", str(conversation), "--graph", str(graph_path)])
    monkeypatch.undo()

    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(canvasmem.cli.os, "replace", broken_replace)
    assert main(["ingest", "--input", str(conversation), "--graph", str(graph_path)]) == 2
    assert graph_path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conversation.jsonl", "graph.json"]


@pytest.mark.parametrize("command", [
    ["export", "--output", "{out}", "--graph", "{graph}"],
    ["bench", "run", "--cases", "1", "--conditions", "canvas", "--output", "{out}"],
])
def test_a_failed_replace_leaves_an_existing_output_file_intact(command, conversation, tmp_path,
                                                               monkeypatch):
    graph_path, out = tmp_path / "graph.json", tmp_path / "out"
    assert main(["ingest", "--input", str(conversation), "--graph", str(graph_path)]) == 0
    argv = [arg.format(out=out, graph=graph_path) for arg in command]
    assert main(argv) == 0
    older = b"an older output\n" + out.read_bytes()
    out.write_bytes(older)

    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(canvasmem.cli.os, "replace", broken_replace)
    assert main(argv) == 2
    assert out.read_bytes() == older
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conversation.jsonl", "graph.json", "out"]


def test_query_prints_injection_block(conversation, tmp_path, capsys):
    graph_path = tmp_path / "graph.json"
    main(["ingest", "--input", str(conversation), "--graph", str(graph_path)])
    assert main(["query", "why did we cache responses in redis?",
                 "--graph", str(graph_path)]) == 0
    out = capsys.readouterr().out
    assert "=== conversation memory (format v1) ===" in out
    assert "cache responses in redis" in out


def test_query_answer_flag_echoes_context(conversation, tmp_path, capsys):
    graph_path = tmp_path / "graph.json"
    main(["ingest", "--input", str(conversation), "--graph", str(graph_path)])
    assert main(["query", "what times out?", "--graph", str(graph_path), "--answer"]) == 0
    out = capsys.readouterr().out
    assert "api gateway" in out


def test_query_preset_keeps_config_file_and_set_overrides(conversation, tmp_path, monkeypatch):
    graph_path = tmp_path / "graph.json"
    main(["ingest", "--input", str(conversation), "--graph", str(graph_path)])
    config_path = tmp_path / "config.yaml"
    config_path.write_text("retrieval:\n  coarse_k: 7\n", encoding="utf-8")
    seen = []
    real_retrieve = canvasmem.cli.retrieve

    def spy(graph, question, embedder, config, reranker):
        seen.append(config)
        return real_retrieve(graph, question, embedder, config, reranker)

    monkeypatch.setattr(canvasmem.cli, "retrieve", spy)
    assert main(["query", "why did we cache responses in redis?", "--graph", str(graph_path),
                 "--preset", "locomo", "--config", str(config_path),
                 "--set", "retrieval.budget_tokens=500"]) == 0
    [config] = seen
    assert (config.hops, config.budget_tokens, config.coarse_k) == (4, 500, 7)


def test_export_tsv_rows_sorted(conversation, tmp_path, capsys):
    graph_path = tmp_path / "graph.json"
    main(["ingest", "--input", str(conversation), "--graph", str(graph_path)])
    assert main(["export", "--graph", str(graph_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    node_lines = [l for l in lines if l.startswith("node\t")]
    edge_lines = [l for l in lines if l.startswith("edge\t")]
    assert len(node_lines) == 3
    assert all(len(l.split("\t")) == 7 for l in node_lines)
    turns = [int(l.split("\t")[3]) for l in node_lines]
    assert turns == sorted(turns)
    for line in edge_lines:
        assert len(line.split("\t")) == 6


_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def _unescape(field: str) -> str:
    return re.sub(r"\\(.)", lambda m: _UNESCAPES[m.group(1)], field)


def _export_rows(graph_path, capsys) -> list[list[str]]:
    capsys.readouterr()
    assert main(["export", "--graph", str(graph_path)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    return [line.split("\t") for line in out[:-1].split("\n")]


def test_export_escapes_a_tab_in_an_ingested_line(tmp_path, capsys):
    conversation = tmp_path / "conversation.jsonl"
    turn = {"index": 0, "user": "DECISION: use\tredis for caching"}
    conversation.write_text(json.dumps(turn) + "\n", encoding="utf-8")
    graph_path = tmp_path / "graph.json"
    assert main(["ingest", "--input", str(conversation), "--graph", str(graph_path)]) == 0
    [obj] = deserialize_graph(graph_path.read_bytes()).rows
    assert "\t" in obj.content
    [row] = _export_rows(graph_path, capsys)
    assert len(row) == 7 and "\\t" in row[5]
    assert [_unescape(row[5]), _unescape(row[6])] == [obj.content, obj.quote]


def test_export_escapes_what_would_break_a_row_and_leaves_plain_rows_alone(tmp_path, capsys):
    awkward = ["tab\there", "two\nlines", "carriage\rreturn", "C:\\temp\\cache", "\\t is not a tab",
               "all\t\\\n\r\\n at once"]
    objects = [make_obj(content=text, quote=f"q {text} q", turn=i, embedding=axis(i % 8))
               for i, text in enumerate(awkward)]
    objects += [make_obj(content="the cache lives in redis", turn=9, embedding=axis(0)),
                make_obj(content="ship it 🚀 on friday", turn=10, embedding=axis(1))]
    graph = CanvasGraph()
    for obj in objects:
        graph.add_object(obj)
    for src, dst in zip(objects, objects[1:]):
        graph.add_edge(CanvasEdge(src=src.id, dst=dst.id, kind=EdgeKind.REFERENCE, weight=0.5,
                                  origin=EdgeOrigin.SIMILARITY))
    graph_path = tmp_path / "graph.json"
    graph_path.write_bytes(serialize_graph(graph))
    rows = _export_rows(graph_path, capsys)
    nodes = [row for row in rows if row[0] == "node"]
    edges = [row for row in rows if row[0] == "edge"]
    assert len(nodes) == len(objects) and len(edges) == len(objects) - 1
    assert all(len(row) == 7 for row in nodes) and all(len(row) == 6 for row in edges)
    for obj, row in zip(objects, nodes):
        assert [_unescape(row[5]), _unescape(row[6])] == [obj.content, obj.quote]
        if not any(c in obj.content + obj.quote for c in "\\\t\n\r"):
            # A row with nothing to escape is written as before escaping existed.
            assert "\t".join(row) == "\t".join(["node", obj.id, obj.kind.value, str(obj.turn),
                                                f"{obj.confidence:.6f}", obj.content, obj.quote])


def test_atomic_write_syncs_the_temp_file_before_the_rename(tmp_path, monkeypatch):
    events = []
    real_mkstemp, real_fsync, real_replace = (canvasmem.cli.tempfile.mkstemp, os.fsync,
                                              os.replace)

    def mkstemp(**kwargs):
        fd, temp = real_mkstemp(**kwargs)
        events.append(("mkstemp", fd, temp))
        return fd, temp

    def fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            events.append(("fsync directory", os.path.samestat(os.fstat(fd), tmp_path.stat())))
        else:
            events.append(("fsync", fd, Path(events[0][2]).read_bytes()))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", src, dst))
        real_replace(src, dst)

    monkeypatch.setattr(canvasmem.cli.tempfile, "mkstemp", mkstemp)
    monkeypatch.setattr(canvasmem.cli.os, "fsync", fsync)
    monkeypatch.setattr(canvasmem.cli.os, "replace", replace)
    path = tmp_path / "graph.json"
    canvasmem.cli._write_atomic(str(path), b"payload")
    [(_, fd, temp), synced, replaced, directory_synced] = events
    assert synced == ("fsync", fd, b"payload")
    assert replaced == ("replace", temp, str(path))
    # Then the directory, so that the rename itself survives a crash.
    assert directory_synced == ("fsync directory", True)
    assert path.read_bytes() == b"payload"


@pytest.mark.parametrize("existing, mode", [(None, 0o644), (0o640, 0o640)],
                         ids=["new", "replaced"])
def test_atomic_write_gives_a_new_file_the_umask_mode_and_a_replaced_one_its_old_mode(
        existing, mode, tmp_path):
    path = tmp_path / "out.jsonl"
    if existing is not None:
        path.write_bytes(b"older")
        path.chmod(existing)
    old_umask = os.umask(0o022)
    try:
        canvasmem.cli._write_atomic(str(path), b"payload")
    finally:
        os.umask(old_umask)
    assert path.read_bytes() == b"payload"
    assert path.stat().st_mode & 0o777 == mode


def test_export_to_file(conversation, tmp_path):
    graph_path = tmp_path / "graph.json"
    out_path = tmp_path / "dump.tsv"
    main(["ingest", "--input", str(conversation), "--graph", str(graph_path)])
    assert main(["export", "--graph", str(graph_path), "--output", str(out_path)]) == 0
    assert out_path.read_text(encoding="utf-8").startswith("node\t")


def test_bench_run_writes_deterministic_jsonl(tmp_path, capsys):
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    args = ["bench", "run", "--cases", "2", "--conditions", "truncation,canvas"]
    assert main(args + ["--output", str(out_a)]) == 0
    assert main(args + ["--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    header = json.loads(out_a.read_text(encoding="utf-8").splitlines()[0])
    assert header["kind"] == "bench-run"
    assert header["cases"] == 2
    # The header holds the run's resolved config; fed back as a config file,
    # it reproduces the run byte for byte.
    config_path, out_c = tmp_path / "config.json", tmp_path / "c.jsonl"
    config_path.write_text(json.dumps(header["config"]), encoding="utf-8")
    assert main(args + ["--config", str(config_path), "--output", str(out_c)]) == 0
    assert out_c.read_bytes() == out_a.read_bytes()
    out = capsys.readouterr().out
    assert "canvas" in out and "truncation" in out


def test_bench_run_jobs_matches_serial(tmp_path):
    serial = tmp_path / "serial.jsonl"
    pooled = tmp_path / "pooled.jsonl"
    args = ["bench", "run", "--cases", "2", "--conditions", "canvas,rag"]
    assert main(args + ["--output", str(serial)]) == 0
    assert main(args + ["--jobs", "4", "--output", str(pooled)]) == 0
    assert serial.read_bytes() == pooled.read_bytes()


def test_cases_flag_overrides_the_config_and_is_recorded_in_the_header(tmp_path):
    out = tmp_path / "run.jsonl"
    assert main(["bench", "run", "--cases", "2", "--conditions", "canvas",
                 "--set", "bench.cases=5", "--output", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert header["cases"] == header["config"]["bench"]["cases"] == 2
    assert len(lines) == 1 + 2


@pytest.mark.parametrize("cases", ["0", "-1"])
def test_a_non_positive_cases_flag_exits_2(cases, tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    assert main(["bench", "run", "--cases", cases, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --cases {cases}:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_a_non_positive_jobs_flag_exits_2(jobs, tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    assert main(["bench", "run", "--cases", "1", "--jobs", jobs, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --jobs must be at least 1, got {jobs}") and "Traceback" not in err
    assert not out.exists()


def test_bench_run_set_override_changes_header(tmp_path):
    out = tmp_path / "run.jsonl"
    assert main(["bench", "run", "--cases", "1", "--conditions", "canvas",
                 "--set", "retrieval.hops=3", "--output", str(out)]) == 0
    header = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
    assert header["config"]["retrieval"]["hops"] == 3


def test_bench_sweep_threshold_table(capsys):
    assert main(["bench", "sweep", "--kind", "threshold", "--cases", "2"]) == 0
    out = capsys.readouterr().out
    for name in ("low", "default", "high", "very-high"):
        assert name in out


def test_bench_sweep_grid_flag(capsys):
    assert main(["bench", "sweep", "--kind", "threshold", "--grid", "--cases", "1"]) == 0
    out = capsys.readouterr().out
    for name in ("ref-0.3", "ref-0.5", "ref-0.7"):
        assert name in out


def test_bench_recall_reports_each_hop_budget(capsys):
    assert main(["bench", "recall", "--cases", "1", "--hops", "0,1"]) == 0
    out = capsys.readouterr().out
    assert "hops" in out and "recall" in out


@pytest.mark.parametrize("hops, reason", [
    ("a", "invalid literal for int() with base 10: 'a'"),
    ("0,,1", "invalid literal for int() with base 10: ''"),
    ("-1", "a hop budget must be non-negative, got -1"),
    ("1,-1", "a hop budget must be non-negative, got -1"),
])
def test_a_malformed_hops_flag_exits_2_naming_it(hops, reason, tmp_path, capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("cases were generated for a refused --hops flag")

    monkeypatch.setattr(canvasmem.cli, "generate_cases", refused)
    out = tmp_path / "recall.jsonl"
    assert main(["bench", "recall", "--cases", "1", "--hops", hops, "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --hops {hops!r}: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["run", "--conditions", "canvas"],
    ["sweep", "--kind", "alpha"],
    ["sweep", "--kind", "rag"],
    ["recall", "--hops", "0"],
])
def test_bench_headers_say_whether_the_cases_are_tagged(command, tmp_path):
    headers = []
    for flags in ([], ["--untagged"]):
        out = tmp_path / "out.jsonl"
        assert main(["bench", *command, "--cases", "1", *flags, "--output", str(out)]) == 0
        headers.append(json.loads(out.read_text(encoding="utf-8").splitlines()[0]))
    tagged, untagged = headers
    assert (tagged.pop("tagged"), untagged.pop("tagged")) == (True, False)
    assert tagged == untagged


@pytest.mark.parametrize("command", [
    ["run", "--conditions", "canvas"],
    ["sweep", "--kind", "alpha"],
    ["recall"],
])
def test_bench_options_shape_the_cases_of_every_bench_command(command, tmp_path):
    out = tmp_path / "out.jsonl"
    assert main(["bench", *command, "--cases", "3", "--set", "bench.facts_per_case=2",
                 "--output", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    if command[0] == "run":
        assert sum(len(row["records"]) for row in rows) == 6
    else:
        assert {row["questions"] for row in rows} == {6}


def test_unknown_rag_preset_exits_2_naming_the_known_ones(capsys):
    code = main(["bench", "run", "--cases", "1", "--conditions", "rag",
                 "--set", "bench.rag_preset=nope"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'nope'" in err and "rag-default" in err


def test_unknown_override_path_exits_2(capsys):
    code = main(["bench", "run", "--cases", "1", "--set", "not-an-assignment"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("override, named", [
    ("retrieval.hops=two", "'retrieval'.*'hops'"),
    ("bench.cases=lots", "'bench'.*'cases'"),
    ("gleaning=nope", "'gleaning'"),
])
def test_a_wrong_typed_override_exits_2_naming_its_key(override, named, capsys):
    assert main(["bench", "run", "--cases", "1", "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and re.search(named, err)


@pytest.mark.parametrize("override, named", [
    ("retrieval.k_simple=0", "'retrieval'.*k_simple must be at least 1, got 0"),
    ("retrieval.alpha=2", "'retrieval'.*alpha must lie in"),
    ("thresholds.theta_ref=0.3", "'thresholds'.*theta_ref and theta_causal"),
    # An empty indicator phrase would match at every word boundary.
    ('retrieval.causal_indicators=[""]', "'retrieval'.*causal_indicators phrase ''"),
    # An embedder mapping without a model would post the chat default.
    ('backends.embedder={endpoint: "https://example.invalid/v1"}',
     "'backends'.*'embedder' needs a 'model' key"),
])
def test_an_out_of_range_override_exits_2_naming_its_key(override, named, capsys):
    assert main(["bench", "run", "--cases", "1", "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and re.search(named, err) and "Traceback" not in err


@pytest.mark.parametrize("source, named", [
    ("file", "config file .*bad.yaml is not valid YAML"),
    ("set", "--set 'retrieval.hops=\\[1' is not valid YAML"),
])
def test_malformed_yaml_exits_2_naming_its_source(source, named, tmp_path, capsys):
    if source == "file":
        bad = tmp_path / "bad.yaml"
        bad.write_text("retrieval: [unclosed\n", encoding="utf-8")
        flags = ["--config", str(bad)]
    else:
        flags = ["--set", "retrieval.hops=[1"]
    assert main(["bench", "run", "--cases", "1", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and re.search(named, err) and "Traceback" not in err


def test_missing_graph_file_exits_2(tmp_path, capsys):
    code = main(["query", "anything", "--graph", str(tmp_path / "absent.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@_ORJSON
def test_an_overflowing_embedding_norm_exits_2_with_one_line_on_stderr(hide_orjson, conversation,
                                                                     tmp_path):
    graph_path = tmp_path / "graph.json"
    assert main(["ingest", "--input", str(conversation), "--graph", str(graph_path)]) == 0
    doc = json.loads(graph_path.read_text(encoding="utf-8"))
    first = doc["objects"][0]
    first["embedding"] = [x * 1e200 for x in first["embedding"]]
    graph_path.write_text(json.dumps(doc), encoding="utf-8")
    # A fresh interpreter under the default warning filters, which print
    # numpy's overflow warning where this suite's filter would raise it.
    # To hide orjson there, an orjson module that raises ImportError comes
    # first on its path, so _orjson() takes its real ImportError branch.
    env = dict(os.environ, PYTHONWARNINGS="default")
    path, check = [SRC, env.get("PYTHONPATH")], ""
    if hide_orjson:
        (tmp_path / "no-orjson").mkdir()
        (tmp_path / "no-orjson" / "orjson.py").write_text('raise ImportError("orjson is hidden")\n')
        path.insert(0, str(tmp_path / "no-orjson"))
        check = "assert core._orjson() is None, 'orjson is not hidden'\n"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    code = ("import runpy\nfrom canvasmem import core\n" + check
            + "runpy.run_module('canvasmem.cli', run_name='__main__')\n")
    done = subprocess.run([sys.executable, "-c", code, "query", "why do we use redis?",
                           "--graph", str(graph_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stderr.count("\n") == 1, done.stderr
    assert done.stderr.startswith("error: invalid object record: "), done.stderr


def test_bad_conversation_line_reports_line_number(tmp_path, capsys):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"index": 0, "user": "hi", "assistant": "yo"}\nnot json\n',
                    encoding="utf-8")
    code = main(["ingest", "--input", str(path), "--graph", str(tmp_path / "g.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert ":2:" in err and "not valid JSON" in err


@pytest.mark.parametrize("line, named", [
    ('"index"', "must be a JSON object"),
    ("[1]", "must be a JSON object"),
    ('{"index": 0, "user": 5}', "turn texts must be strings"),
    ('{"index": -1, "user": "hi"}', "non-negative integer"),
])
def test_a_malformed_conversation_line_exits_2_naming_it(line, named, tmp_path, capsys):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"index": 0, "user": "hi"}\n' + line + "\n", encoding="utf-8")
    code = main(["ingest", "--input", str(path), "--graph", str(tmp_path / "g.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: ") and named in err and "Traceback" not in err


def test_a_timestamp_key_is_ignored_like_any_other_extra_key(conversation, tmp_path):
    rows = [json.loads(line) for line in conversation.read_text(encoding="utf-8").splitlines()]
    stamped = tmp_path / "stamped.jsonl"
    stamped.write_text("".join(json.dumps({**row, "timestamp": "2023-05-07T10:00:00Z",
                                           "speaker": "ana"}) + "\n" for row in rows),
                       encoding="utf-8")
    plain_path, stamped_path = tmp_path / "plain.json", tmp_path / "stamped.json"
    assert main(["ingest", "--input", str(conversation), "--graph", str(plain_path)]) == 0
    assert main(["ingest", "--input", str(stamped), "--graph", str(stamped_path)]) == 0
    assert len(deserialize_graph(stamped_path.read_bytes()).objects) == 3
    assert stamped_path.read_bytes() == plain_path.read_bytes()
