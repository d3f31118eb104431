"""Perf benchmark for canvasmem on the offline mock stack.

    python3 perfbench/run.py --workload ingest-long --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
`src/` next to this directory, never from an installed copy. With
`--trace 0` the run has no hooks and reports the end-to-end metrics; with
`--trace 1` it runs the same work once untraced and once traced and reports
the per-layer metrics. Human-readable lines come first; the last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.

Every run measures one fixed pass of work, so that two versions of the
program measured on one seed do the same work. The pass is sized to take
about `run_seconds` of BENCHMARK.json on a 2-core host (15-30 s, as the
host's speed varies); `--seconds` is accepted for the command line's sake
and does not change the work. Times are in reference milliseconds (see
reference.py).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put this checkout's src/ first on the path and insist the program comes from it."""
    if not (SRC / "canvasmem" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'canvasmem'}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import canvasmem

    if Path(canvasmem.__file__).resolve().parent != SRC / "canvasmem":
        raise SystemExit(f"error: canvasmem was imported from {canvasmem.__file__}")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    import_program()
    from perfbench.harness import WORKLOADS
    from perfbench.report import run_timed, run_traced

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = run_traced if args.trace else run_timed
        result = runner(workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
