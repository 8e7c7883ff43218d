"""One workload iteration in a fresh interpreter.

run.py starts this script once per iteration, so set-up time and peak RSS
belong to one workload alone. The script imports crystalpop from the
checkout's src/, builds the inputs, prints ``ready``, runs the workload
(traced or not) and prints one JSON result line. It runs the calibration
reference once when it starts and once when it is ready; run.py
calibrates set-up time with them.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --run-id ID --expected FILE [--setup-only]
"""

from __future__ import annotations

from calibrate import reference_s

# Run before the imports that set-up time covers: run.py takes this out of
# set-up time and calibrates set-up time with it.
START_REFERENCE_S = reference_s()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="")
    parser.add_argument("--expected", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import crystalpop
    if Path(crystalpop.__file__).resolve().parent != ROOT / "src" / "crystalpop":
        sys.stderr.write(f"crystalpop imported from {crystalpop.__file__}, not this checkout\n")
        return 2
    import tracing
    import workloads

    exp = json.loads(Path(args.expected).read_text())[args.workload]
    inputs = workloads.prepare(args.workload, args.seed, exp, ROOT / ".perfbench_tmp")
    print("ready", flush=True)
    setup_reference_s = reference_s()
    if args.setup_only:
        print(json.dumps({"start_reference_s": START_REFERENCE_S,
                          "setup_reference_s": setup_reference_s}), flush=True)
        return 0

    tracer = tracing.Tracer(args.run_id) if args.trace else tracing.NullTracer()
    outcome = workloads.Outcome()
    with tracing.installed(tracer) if args.trace else nullcontext():
        workloads.RUNNERS[args.workload](inputs, exp, tracer, outcome)
    result = {
        "start_reference_s": START_REFERENCE_S,
        "setup_reference_s": setup_reference_s,
        "wall_s": tracer.clock.raw_s,
        "calibrated_wall_s": tracer.clock.calibrated_s,
        "reference_s": tracer.clock.references,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
    }
    if args.trace:
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counters)
        result["coverage"] = tracing.coverage(tracer.spans)
        result["spans"] = [s._asdict() for s in tracer.spans]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
