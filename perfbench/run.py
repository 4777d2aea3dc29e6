#!/usr/bin/env python3
"""End-to-end spec-run benchmark of lsiq.

    python3 perfbench/run.py --workload table1_progressive --seed 1981 \
        --seconds 30 --trace 0

Builds lsiq_flow, lsiq_flowd and perfbench_probe from the source tree this
directory sits in, runs one seeded workload for --seconds, checks every
output, and prints the metrics: a readable table, the host context, and as
the last line one JSON object {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run. Files of the run (metrics, host context, trace) land in
.bench_work/runs/<workload>-s<seed>-t<trace>/. See README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import layers  # noqa: E402  (HERE is on sys.path as the script's directory)
import measure  # noqa: E402
import specgen  # noqa: E402
import workloads  # noqa: E402

# End-to-end metrics, printed in this order; the JSON line carries those in
# BENCHMARK.json. spec_ms_p90 is printed but not gated: on a shared host
# 15-20% of jobs run about twice as slow, so the 90th percentile sits on
# the edge of that mode and swung by up to a quarter between runs of the
# same code. failed_frac is printed too; it is 0 on a healthy build, and
# the JSON line's "failed" / "attempted" carry it.
END_TO_END = ("spec_ms_p50", "spec_ms_p90", "specs_per_s", "cpu_ms_per_spec",
              "setup_s", "peak_rss_mb")
GATED = ("spec_ms_p50", "specs_per_s", "cpu_ms_per_spec", "setup_s",
         "peak_rss_mb")


def build():
    """Configure once, then build incrementally; returns binary paths."""
    for needed in ("CMakeLists.txt", "src", os.path.join("tools",
                                                         "lsiq_flow.cpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise workloads.BenchError(
                f"no lsiq source tree around {HERE} (missing {needed})")
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    log_path = os.path.join(".bench_work", "build.log")
    os.makedirs(".bench_work", exist_ok=True)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    with open(log_path, "wb") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                      "lsiq_flow", "lsiq_flowd", "perfbench_probe"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                raise workloads.BenchError(f"build failed, see {log_path}")
    return {"flow": os.path.join(build_dir, "lsiq", "lsiq_flow"),
            "flowd": os.path.join(build_dir, "lsiq", "lsiq_flowd"),
            "probe": os.path.join(build_dir, "perfbench_probe")}


def report(args, result, host, run_dir):
    """Print the readable table and host context; return the JSON line."""
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}")
    if args.trace:
        names = list(layers.PER_LAYER)
        metrics = {name: {"value": float(result.layers.get(name, 0.0)),
                          "unit": layers.PER_LAYER[name][0]}
                   for name in names}
        for name in names:
            mark = "" if name in result.layers else "  (layer not reached)"
            print(f"  {name:28s} {metrics[name]['value']:14.6g} "
                  f"{metrics[name]['unit']}{mark}")
        with open(os.path.join(run_dir, "layers.json"), "w") as out:
            json.dump(metrics, out, indent=1)
    else:
        for name in END_TO_END:
            value, unit, samples = result.e2e[name]
            print(f"  {name:16s} {value:12.6g} {unit:4s} n={samples}")
        metrics = {name: {"value": result.e2e[name][0],
                          "unit": result.e2e[name][1]} for name in GATED}
    failed_frac = result.failed / max(1, result.attempted)
    print(f"  {'failed_frac':16s} {failed_frac:12.6g} 1    "
          f"({result.failed} of {result.attempted} operations)")
    for note in result.notes:
        print(f"  note: {note}")
    print("host: " + json.dumps(host))
    if host["warning"]:
        print(f"warning: {host['warning']}")
        print(f"warning: {host['warning']}", file=sys.stderr)
    line = {"correct": result.correct, "attempted": result.attempted,
            "failed": result.failed, "metrics": metrics}
    with open(os.path.join(run_dir, "metrics.json"), "w") as out:
        json.dump(dict(line, failed_frac=failed_frac), out, indent=1)
    with open(os.path.join(run_dir, "host.json"), "w") as out:
        json.dump(host, out, indent=1)
    return line


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=specgen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.chdir(ROOT)
    try:
        bins = build()
        run_dir = os.path.join(".bench_work", "runs",
                               f"{args.workload}-s{args.seed}-t{args.trace}")
        os.makedirs(run_dir, exist_ok=True)
        host = measure.HostContext(bins["probe"])
        ctx = workloads.Context(bins, args.workload, args.seed, args.seconds,
                                args.trace, run_dir)
        result = workloads.WORKLOADS[args.workload](ctx)
        line = report(args, result, host.finish(), run_dir)
        if result.correct:  # keep the scratch of a failed run for diagnosis
            shutil.rmtree(ctx.work, ignore_errors=True)
    except (workloads.BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
