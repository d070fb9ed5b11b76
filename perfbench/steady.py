"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steady.py --json steady.json

Runs ``perfbench/run.py`` once per seed on every workload, first with seeds
1..10, then with seeds 101..110. For each workload and end-to-end metric it
prints both sets' medians, each set's spread (quartile distance over the
median, ``statistics.quantiles(n=4)``) and whether the second median is
within the metric's bound of the first. The bounds come from BENCHMARK.json.
Exits 1 when any metric is outside its bound, a spread exceeds its bound,
or the share of failed commands differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED_SETS = (1, 101)
RUNS = 10  # per set and workload


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description="two sets of benchmark runs")
    parser.add_argument("--json", help="write every run's result to this file")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    results: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    for first_seed in SEED_SETS:
        for workload in workloads:
            batch = []
            for seed in range(first_seed, first_seed + RUNS):
                batch.append(run_once(workload, seed, spec["run_seconds"]))
                print(f"{workload} seed {seed}: {json.dumps(batch[-1])}", file=sys.stderr)
            results[workload].append(batch)
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1) + "\n")

    ok = True
    print(f"{'workload':14} {'metric':12} {'median 1':>10} {'median 2':>10} "
          f"{'worse by':>9} {'spread 1':>9} {'spread 2':>9} {'bound':>6}")
    for workload, sets in results.items():
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        if any(not r["correct"] for s in sets for r in s) or shares[0] != shares[1]:
            print(f"{workload}: incorrect runs or failed shares differ {shares}")
            ok = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in s] for s in sets]
            m1, m2 = (statistics.median(v) for v in values)
            worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            spreads = [spread(v) for v in values]
            good = worse <= bound and max(spreads) <= bound
            ok &= good
            print(f"{workload:14} {name:12} {m1:10.4f} {m2:10.4f} {worse:+9.3f} "
                  f"{spreads[0]:9.3f} {spreads[1]:9.3f} {bound:6.2f} {'ok' if good else 'OUT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
