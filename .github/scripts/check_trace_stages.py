"""Check one traced perfbench run: it is correct, no more hooks than the
known stale ones found no target, and every retrieval stage that runs
offline has a nonzero span time.

Usage: python3 .github/scripts/check_trace_stages.py RUN_OUTPUT
where RUN_OUTPUT is what `python3 perfbench/run.py --workload WORKLOAD
--seed 1 --trace 1` printed for a workload that reads (query-heavy or
mixed-session).

perfbench times each stage by wrapping the retrieval function of that name,
so a stage renamed or no longer called reads 0 here instead of failing.
The rerank stage runs only with a reranker backend, so offline it reads 0.
"""

import json
import sys

# The scalar cosine_sim, keyword_jaccard and hybrid_score hooks, whose
# targets the scoring index replaced.
MAX_HOOKS_ABSENT = 3
TIMED_STAGES = ("plan", "coarse", "expand", "pack", "render")

lines = open(sys.argv[1], encoding="utf-8").read().splitlines()
result = json.loads(lines[-1])
metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
problems = []
if result["correct"] is not True:
    problems.append("the run is not correct")
if metrics["trace.hooks_absent"] > MAX_HOOKS_ABSENT:
    problems.append(f"trace.hooks_absent is {metrics['trace.hooks_absent']}, "
                    f"more than {MAX_HOOKS_ABSENT}")
for stage in TIMED_STAGES:
    if not metrics[f"retrieval.{stage}_ms"] > 0:
        problems.append(f"retrieval.{stage}_ms is {metrics[f'retrieval.{stage}_ms']}")
stages = {f"retrieval.{stage}_ms": metrics[f"retrieval.{stage}_ms"]
          for stage in TIMED_STAGES + ("rerank",)}
print(f"hooks absent {metrics['trace.hooks_absent']}, {json.dumps(stages)}")
for problem in problems:
    print(f"error: {problem}")
sys.exit(1 if problems else 0)
