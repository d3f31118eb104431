"""Run every workload over several seeds and write (or compare) a baseline.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 1-10 --compare perfbench/baseline.json

Each workload runs once per seed untraced, plus one traced run on the first
seed. For every end-to-end metric the file keeps the values, the median and
the quartile spread (Q3 - Q1) / median, which must stay under a third of the
metric's bound in BENCHMARK.json; graph and block digests are kept per seed.
`--compare` checks a new set against a stored one: digests must match
exactly and each median may not be worse by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    command = [sys.executable, *CONTRACT["command"][1:], "--workload", workload, "--seed",
               str(seed), "--seconds", str(CONTRACT["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr[-3000:]}")
    lines = done.stdout.strip().splitlines()
    report = json.loads(next(l for l in lines if l.startswith("report "))[len("report "):])
    report["wall_s"] = wall
    return report, json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def header() -> dict:
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
        dirty = bool(subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                    capture_output=True, text=True).stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        commit, dirty = "unknown", None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "uncommitted_changes": dirty,
        "machine": platform.machine(),
        "run_seconds": CONTRACT["run_seconds"],
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
    }


def measure_all(seeds: list[int]) -> dict:
    out = {"header": header(), "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in CONTRACT["workloads"]):
        values: dict[str, list[float]] = {}
        by_operation: dict[str, list[float]] = {}
        digests, graphs, walls, failed, attempted = {}, {}, [], 0, 0
        for seed in seeds:
            report, result = run_once(workload, seed, 0)
            print(f"{workload} seed {seed}: {report['wall_s']:.1f} s, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, metric in report["by_operation"].items():
                by_operation.setdefault(name, []).append(metric["value"])
            digests[str(seed)] = [report["graph_sha256"], report["blocks_sha256"]]
            graphs[str(seed)] = report["graph"]
            walls.append(report["wall_s"])
            failed += result["failed"]
            attempted += result["attempted"]
        traced, traced_result = run_once(workload, seeds[0], 1)
        print(f"{workload} traced: {traced['wall_s']:.1f} s", flush=True)
        out["workloads"][workload] = {
            "why": report["why"],
            "generator": report["generator"],
            "graph_by_seed": graphs,
            "attempted": attempted,
            "failed": failed,
            "wall_s": {"median": statistics.median(walls), "max": max(walls)},
            "end_to_end": {
                name: {"unit": result["metrics"][name]["unit"],
                       "median": statistics.median(v), "spread": spread(v), "values": v}
                for name, v in values.items()
            },
            "by_operation": {name: statistics.median(v) for name, v in by_operation.items()},
            "digests": digests,
            "traced": {
                "seed": seeds[0],
                "wall_s": traced["wall_s"],
                "failed": traced_result["failed"],
                "self_ms_by_phase": traced["self_ms_by_phase"],
                "per_layer": {k: v["value"] for k, v in traced_result["metrics"].items()},
            },
        }
    return out


def compare(new: dict, old: dict) -> list[str]:
    """Problems found between two run sets of the same code; empty when they agree."""
    problems = []
    spec = {m["name"]: m for m in CONTRACT["end_to_end"]}
    for workload, now in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            problems.append(f"{workload}: not in the stored baseline")
            continue
        for seed, pair in now["digests"].items():
            if seed in before["digests"] and before["digests"][seed] != pair:
                problems.append(f"{workload} seed {seed}: digests differ")
        for name, metric in now["end_to_end"].items():
            bound = spec[name]["bound"]
            was = before["end_to_end"][name]["median"]
            worse = (metric["median"] - was) / was
            if spec[name]["better"] == "higher":
                worse = -worse
            if worse > bound:
                problems.append(f"{workload} {name}: {worse:+.1%} worse than stored, bound {bound}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()
    result = measure_all(seed_list(args.seeds))
    spec = {m["name"]: m for m in CONTRACT["end_to_end"]}
    for workload, data in result["workloads"].items():
        for name, metric in data["end_to_end"].items():
            limit = spec[name]["bound"] / 3
            flag = "" if metric["spread"] < limit else "  <-- over a third of the bound"
            print(f"{workload:<14} {name:<24} median {metric['median']:>12.6g} "
                  f"spread {metric['spread']:.4f}{flag}")
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if args.compare:
        problems = compare(result, json.loads(args.compare.read_text(encoding="utf-8")))
        print("\n".join(problems) if problems else "run sets agree: digests equal, medians within bounds")
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
