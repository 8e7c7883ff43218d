"""Benchmark for crystal-pop: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Each iteration runs the workload in a
fresh interpreter (worker.py), one after another, until S seconds have
passed; the reported values are medians over those iterations.

Times are calibrated for the host's drifting speed (calibrate.py): each
timed call into crystalpop runs between two runs of a fixed reference task
and is scaled to a host that runs the reference in calibrate.NOMINAL_S.

--trace 0 reports the end-to-end metrics: calibrated_wall_s, peak_rss_mb
and setup_s (set-up is also sampled by extra start-ups that stop once
ready). --trace 1 alternates untraced and traced iterations and reports the
per-layer metrics, the raw host.wall_s and trace.overhead_s included, as a
table next to the end-to-end metric each should move; the spans go to
.perfbench_tmp/trace-<workload>-seed<seed>.jsonl.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only if every operation
matched its frozen expected value (expected.json).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional

from calibrate import reference_s, scale
from metrics import END_TO_END, PER_LAYER, UNITS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"

SETUP_PROBES = 9
WORKER_TIMEOUT_S = 120
RUN_LIMIT_S = 160


class WorkerResult(NamedTuple):
    setup_s: Optional[float]  # calibrated
    payload: Optional[dict]
    ok: bool


def run_worker(args, trace: int, run_id: str, setup_only=False) -> WorkerResult:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace),
        "--run-id", run_id, "--expected", str(args.expected),
    ]
    if setup_only:
        cmd.append("--setup-only")
    # A fixed string hash keeps dict layouts, and so timings, alike across runs.
    env = dict(os.environ, PYTHONHASHSEED="0")
    reference = reference_s()
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.stderr.write(f"{run_id}: worker timed out\n")
            return WorkerResult(None, None, False)
    if ready.strip() != "ready" or proc.returncode != 0:
        sys.stderr.write(f"{run_id}: worker exited {proc.returncode}\n")
        return WorkerResult(None, None, False)
    payload = json.loads(rest.strip().splitlines()[-1])
    # Set-up without the worker's first reference run, at the speed the three
    # reference runs around it give.
    start_reference = payload["start_reference_s"]
    setup_s = scale(setup_s - start_reference,
                    [reference, start_reference, payload["setup_reference_s"]])
    return WorkerResult(setup_s, None if setup_only else payload, True)


def iterate(args, traces) -> list[tuple[int, WorkerResult]]:
    """Run iterations, cycling through the trace settings, until the time
    is up and every setting ran once; stop early on a worker failure or
    when the next iteration could pass the run limit."""
    results = []
    begin = time.perf_counter()
    k = 0
    while True:
        trace = traces[k % len(traces)]
        started = time.perf_counter()
        res = run_worker(args, trace, f"{args.workload}-seed{args.seed}-{k}")
        results.append((trace, res))
        k += 1
        now = time.perf_counter()
        if not res.ok:
            break
        if now - begin >= args.seconds and k >= len(traces):
            break
        if now - begin + (now - started) > RUN_LIMIT_S:
            break
    return results


def count(args, expected, results):
    """Operations attempted and failed over all iterations; an iteration
    whose worker died fails every operation it would have run."""
    attempted = failed = 0
    for _, res in results:
        if res.ok:
            attempted += res.payload["attempted"]
            failed += len(res.payload["failures"])
            for what in res.payload["failures"][:20]:
                sys.stderr.write(f"FAILED: {what}\n")
        else:
            from workloads import expected_operations  # imports crystalpop

            attempted += expected_operations(args.workload, expected[args.workload])
            failed += expected_operations(args.workload, expected[args.workload])
    return attempted, failed


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def end_to_end(args, results, setups):
    walls = [r.payload["calibrated_wall_s"] for _, r in results if r.ok]
    rss = [r.payload["peak_rss_mb"] for _, r in results if r.ok]
    values = {
        "calibrated_wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    samples = {"calibrated_wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
    for m in END_TO_END:
        got = samples[m.name]
        print(f"  {m.name:<17} {_fmt(values[m.name]):>12} {m.unit:<3} median of {len(got)} "
              f"(min {_fmt(min(got))}, max {_fmt(max(got))}); {m.meaning}")
    return values


def per_layer(args, results):
    traced = [r.payload for t, r in results if t == 1 and r.ok]
    plain = [r.payload for t, r in results if t == 0 and r.ok]
    names = [m.name for m in PER_LAYER if m.name in traced[0]["layers"]]
    # median_low reports a value one iteration measured, so counts stay whole.
    values = {n: statistics.median_low(p["layers"][n] for p in traced) for n in names}
    values["host.wall_s"] = statistics.median(p["wall_s"] for p in plain)
    values["host.reference_ms"] = 1000 * statistics.median(
        ref for p in plain for ref in p["reference_s"])
    values["trace.overhead_s"] = (statistics.median(p["calibrated_wall_s"] for p in traced)
                                  - statistics.median(p["calibrated_wall_s"] for p in plain))
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    layers = statistics.median(p["coverage"]["layers_s"] for p in traced)
    check = statistics.median(p["coverage"]["check_s"] for p in traced)
    print(f"  traced raw wall {traced_wall:.4f} s = top-level layer spans {layers:.4f} s"
          f" + other {traced_wall - layers:.4f} s; untimed benchmark checks {check:.4f} s")
    print(f"  {'per-layer metric':<26} {'value':>14} {'unit':<6} should move")
    for m in PER_LAYER:
        if not m.on:
            moves = "host speed: no crystalpop change should move it"
        elif args.workload in m.on:
            moves = f"{m.moves} on {', '.join(m.on)} (this workload)"
        else:
            moves = f"{m.moves} on {', '.join(m.on)} (not here: predict no change)"
        print(f"  {m.name:<26} {_fmt(values[m.name]):>14} {m.unit:<6} {moves}")
    spans_file = SCRATCH / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with spans_file.open("w") as fh:
        for p in traced:
            for span in p["spans"]:
                fh.write(json.dumps(span) + "\n")
    print(f"  spans: {spans_file.relative_to(ROOT)}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", type=Path, default=HERE / "expected.json",
                        help="frozen expected outputs (default: perfbench/expected.json)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "crystalpop" / "__init__.py").is_file():
        sys.stderr.write(f"no crystalpop sources under {ROOT / 'src'}; "
                         "run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    expected = json.loads(args.expected.read_text())
    SCRATCH.mkdir(exist_ok=True)

    setups = []
    if not args.trace:
        for k in range(SETUP_PROBES):
            probe = run_worker(args, 0, f"{args.workload}-setup-{k}", setup_only=True)
            if probe.ok:
                setups.append(probe.setup_s)
    results = iterate(args, (0, 1) if args.trace else (0,))
    setups += [r.setup_s for _, r in results if r.ok]
    attempted, failed = count(args, expected, results)
    complete = all(r.ok for _, r in results) and len(setups) > 0

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {len(results)} (one fresh process each; one client, closed loop)")
    print(f"  failed_frac  {failed}/{attempted} operations over {len(results)} iterations")
    metrics = {}
    if complete:
        values = per_layer(args, results) if args.trace else end_to_end(args, results, setups)
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    correct = complete and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
