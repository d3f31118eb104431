"""An offline process never loads the HTTP client or the YAML parser.

requests (with urllib3, ssl and http.client) is needed only when a remote
backend sends a request, not when one is built, and PyYAML only when a
config file or a --set value is parsed; orjson, where installed, only when
a graph is loaded. The checks run in a fresh interpreter: this test process
has already imported requests through the backend tests.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import canvasmem

SRC = str(Path(canvasmem.__file__).resolve().parent.parent)

OFFLINE_ROUND = textwrap.dedent("""
    import contextlib
    import io
    import json
    import os
    import sys
    import tempfile

    import canvasmem
    from canvasmem import (CanvasEngine, EngineConfig, deserialize_graph, mock_bundle,
                           serialize_graph)
    from canvasmem.extraction import ConversationTurn
    from canvasmem.retrieval import retrieve_detailed

    bundle = mock_bundle()
    engine = CanvasEngine(bundle.extractor, bundle.embedder)
    engine.ingest([
        ConversationTurn(0, "KEY_FACT: the api gateway times out after 30 seconds"),
        ConversationTurn(1, "DECISION: we will cache responses in redis"),
    ])
    graph = deserialize_graph(serialize_graph(engine.snapshot()))
    result = retrieve_detailed(graph, "why do we cache in redis?", bundle.embedder)
    assert "redis" in result.injection, result.injection
    EngineConfig.from_dict({"retrieval": {"hops": 2}, "thresholds": {"theta_ref": 0.6}})

    # The same round through the CLI, whose ingest and query print to stdout.
    from canvasmem.cli import main

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as out:
        conversation, graph = os.path.join(tmp, "conversation.jsonl"), os.path.join(tmp, "g.json")
        with open(conversation, "w", encoding="utf-8") as f:
            f.write(json.dumps({"index": 0, "user": "DECISION: use redis for caching"}) + "\\n")
        assert main(["ingest", "--input", conversation, "--graph", graph]) == 0
        assert main(["query", "why do we use redis?", "--graph", graph]) == 0
    assert "use redis for caching" in out.getvalue(), out.getvalue()

    loaded = sorted(m for m in ("requests", "urllib3", "yaml") if m in sys.modules)
    print(" ".join(loaded))
""")


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_an_offline_round_loads_neither_requests_nor_yaml():
    assert _run(OFFLINE_ROUND) == ""


def test_building_every_remote_client_does_not_import_requests():
    # A client resolves its default transport when it is built, but the
    # transport imports requests only when it sends a request.
    code = textwrap.dedent("""
        import sys

        from canvasmem.backends import ROLES, BackendConfig, build_role

        clients = [build_role(name, BackendConfig()) for name in ROLES]
        assert [client.role for client in clients] == list(ROLES)
        print(" ".join(sorted(m for m in ("requests", "urllib3") if m in sys.modules)))
    """)
    assert _run(code) == ""


def test_importing_canvasmem_does_not_import_orjson():
    assert _run("import sys, canvasmem; print('orjson' in sys.modules)") == "False"
