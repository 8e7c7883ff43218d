"""Run the benchmark twice over ten seeds per workload and record the baseline.

    python3 perfbench/spread.py --label "<commit>"

Each of two sets runs every workload once per seed 1..10 with tracing off,
each run lasting run_seconds from BENCHMARK.json; the second set starts
after the first has finished. For every end-to-end metric and set the
script reports the median and the spread, the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median,
and then how far the second set's median moved from the first's, each next
to the metric's bound. One traced run per workload follows. The sets, the
per-layer values, the machine and its load average around each set go to
perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import END_TO_END, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: benchmark failed")
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def measure_set(seeds: list[int], seconds: float) -> dict:
    out = {"loadavg_before": os.getloadavg(), "workloads": {}}
    for workload in WORKLOADS:
        results = [run(workload, seed, seconds, 0) for seed in seeds]
        e2e = {}
        for m in END_TO_END:
            e2e[m.name] = stats = summarize([r["metrics"][m.name]["value"] for r in results])
            print(f"{workload:<15} {m.name:<17} median {stats['median']:.6g} {m.unit}  "
                  f"spread {stats['spread']:.4f}  bound {m.bound}  "
                  f"{'ok' if stats['spread'] < m.bound / 3 else 'WIDE'}", flush=True)
        out["workloads"][workload] = {
            "attempted_per_run": [r["attempted"] for r in results],
            "failed_per_run": [r["failed"] for r in results],
            "end_to_end": e2e,
        }
    out["loadavg_after"] = os.getloadavg()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    args = parser.parse_args()

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = list(range(1, RUNS + 1))
    sets = []
    for k in range(SETS):
        print(f"set {k + 1} of {SETS}", flush=True)
        sets.append(measure_set(seeds, seconds))

    drift = {}
    for workload in WORKLOADS:
        drift[workload] = {}
        for m in END_TO_END:
            first, second = (s["workloads"][workload]["end_to_end"][m.name]["median"]
                             for s in sets)
            worse = (second - first) / first * (1 if m.better == "lower" else -1)
            drift[workload][m.name] = {"second_worse_by": worse, "bound": m.bound}
            print(f"{workload:<15} {m.name:<17} second set worse by {worse:+.4f}  "
                  f"bound {m.bound}  {'ok' if worse <= m.bound else 'OVER'}", flush=True)

    traced = {w: run(w, seeds[0], seconds, 1)["metrics"] for w in WORKLOADS}
    report = {
        "label": args.label,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": seconds,
        "seeds": seeds,
        "bounds": {m.name: m.bound for m in END_TO_END},
        "sets": sets,
        "median_drift": drift,
        "per_layer": {w: {k: v["value"] for k, v in metrics.items()}
                      for w, metrics in traced.items()},
    }
    out = HERE / "baseline.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
