"""Check one perfbench run: it is correct, and its graph and blocks digests
equal those perfbench/baseline.json holds for its workload and seed.

Usage: python3 .github/scripts/check_perf_digests.py WORKLOAD SEED RUN_OUTPUT
where RUN_OUTPUT is what `python3 perfbench/run.py --workload WORKLOAD
--seed SEED --trace 0` printed.
"""

import json
import sys

workload, seed, path = sys.argv[1], sys.argv[2], sys.argv[3]
lines = open(path, encoding="utf-8").read().splitlines()
result = json.loads(lines[-1])
report = json.loads(next(l for l in lines if l.startswith("report "))[len("report "):])
with open("perfbench/baseline.json", encoding="utf-8") as handle:
    want = json.load(handle)["workloads"][workload]["digests"][seed]
got = [report["graph_sha256"], report["blocks_sha256"]]
print(f"{workload} seed {seed}: correct={result['correct']} digests={got} baseline={want}")
sys.exit(0 if result["correct"] is True and got == want else 1)
