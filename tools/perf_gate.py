#!/usr/bin/env python3
"""Perf gate over google-benchmark JSON: fail on benchmark slowdowns.

    perf_gate.py BASELINE.json CURRENT.json [--filter SUBSTRING]
                 [--threshold FRACTION] [--per SUBSTRING=FRACTION]...
                 [--history FILE [--label LABEL]]

Compares real_time for every benchmark whose name contains the filter
substring (default: every benchmark in the file) and exits non-zero when
any of them is slower than baseline * (1 + threshold) (default 0.25, the
ROADMAP's >25% gate). Each side's time is the benchmark's MEDIAN
aggregate when the run has one (repetitions), falling back to the mean
aggregate, then to the raw iteration entry.

Trend history: --history FILE appends ONE JSON line per invocation with
the current run's medians — {"label":...,"benchmarks":{name:
{"real_time":...,"time_unit":...}}} — so CI can chain the file across
runs into a queryable perf trajectory. The line is appended even when
the gate fails (a regression is exactly the point worth plotting), and
--label tags it (a commit SHA, a date; default empty). To seed or extend
history on a run with no baseline artifact, self-compare:
`perf_gate.py CUR.json CUR.json --history trend.jsonl` — the gate
trivially passes and the medians are still recorded.

Per-benchmark budgets: noisy or highly-threaded benchmarks can carry a
wider budget than the default without loosening the gate for everything
else —

    perf_gate.py base.json cur.json --per PpsfpMt=0.50 --per Podem=0.40

Each --per entry is SUBSTRING=FRACTION; a benchmark uses the budget of
the LONGEST matching substring (most specific wins), falling back to
--threshold when none match.

Threaded rows on a host that cannot run them: a benchmark that marks
itself with a `lanes` counter above 1 measures threads running at once,
which a host delivering less than two cores of throughput cannot do. When
either file's context records an `effective_parallelism` below 2 (the
perf suite measures it before running, as perfbench does), such a row's
slowdown beyond budget is reported as FLAGGED and does not fail the gate.
A row with no `lanes` counter (or lanes 1), or a pair of files with no
recorded parallelism, gates as before.

Benchmarks present on only one side are reported but never fatal, so
adding or renaming benchmarks cannot wedge CI; only a measured regression
on a comparable name can. Time units are taken from the baseline entry
and must match the current one.
"""

import argparse
import json
import sys


def load_run(path, name_filter):
    """Read one benchmark file: (times, lanes, parallelism).

    times maps benchmark name -> (real_time, time_unit) for matching
    entries, with precedence median aggregate > mean aggregate > raw
    entry, so repeated runs gate (and record history) on the
    noise-robust median while plain runs still work. lanes maps name ->
    its `lanes` counter (1 when absent). parallelism is the context's
    effective_parallelism, or None when the file does not record it.
    """
    with open(path) as handle:
        data = json.load(handle)
    ranks = {"median": 3, "mean": 2}
    best = {}  # name -> (rank, real_time, time_unit)
    lanes = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            rank = ranks.get(bench.get("aggregate_name"))
            if rank is None:
                continue  # stddev/cv and friends are not times
        else:
            rank = 1
        name = bench.get("run_name", bench.get("name", ""))
        if name_filter not in name:
            continue
        lanes[name] = max(lanes.get(name, 1), float(bench.get("lanes", 1)))
        if name not in best or rank > best[name][0]:
            best[name] = (rank, float(bench["real_time"]),
                          bench.get("time_unit", ""))
    times = {name: (time, unit) for name, (_, time, unit) in best.items()}
    parallelism = data.get("context", {}).get("effective_parallelism")
    if parallelism is not None:
        parallelism = float(parallelism)
    return times, lanes, parallelism


def append_history(path, label, times):
    """Append one trend line (the run's medians) to the JSONL history."""
    entry = {
        "label": label,
        "benchmarks": {
            name: {"real_time": time, "time_unit": unit}
            for name, (time, unit) in sorted(times.items())
        },
    }
    with open(path, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def parse_per_budgets(entries):
    """Parse --per SUBSTRING=FRACTION entries into a dict."""
    budgets = {}
    for entry in entries:
        substring, sep, fraction = entry.partition("=")
        if not sep or not substring:
            raise SystemExit(
                f"perf gate: bad --per entry '{entry}' "
                "(expected SUBSTRING=FRACTION)")
        try:
            budgets[substring] = float(fraction)
        except ValueError:
            raise SystemExit(
                f"perf gate: bad --per fraction in '{entry}'")
    return budgets


def budget_for(name, default, budgets):
    """The allowed slowdown for `name`: longest matching --per substring
    wins; the global default otherwise."""
    best = None
    for substring, fraction in budgets.items():
        if substring in name and (best is None or len(substring) > len(best)):
            best = substring
    return budgets[best] if best is not None else default


def main():
    parser = argparse.ArgumentParser(
        description="fail on google-benchmark real_time regressions")
    parser.add_argument("baseline", help="previous BENCH_*.json artifact")
    parser.add_argument("current", help="this run's BENCH_*.json")
    parser.add_argument("--filter", default="",
                        help="substring a benchmark name must contain "
                             "(default: gate every benchmark)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed slowdown fraction (default: "
                             "%(default)s)")
    parser.add_argument("--per", action="append", default=[],
                        metavar="SUBSTRING=FRACTION",
                        help="per-benchmark budget override; repeatable, "
                             "longest matching substring wins")
    parser.add_argument("--history", metavar="FILE", default="",
                        help="append this run's medians to a JSONL trend "
                             "file (written even when the gate fails)")
    parser.add_argument("--label", default="",
                        help="tag recorded in the --history line "
                             "(e.g. a commit SHA)")
    args = parser.parse_args()
    budgets = parse_per_budgets(args.per)

    baseline, base_lanes, base_parallelism = load_run(args.baseline,
                                                      args.filter)
    current, cur_lanes, cur_parallelism = load_run(args.current, args.filter)
    recorded = [p for p in (base_parallelism, cur_parallelism)
                if p is not None]
    starved = bool(recorded) and min(recorded) < 2.0
    if recorded:
        print("perf gate: effective parallelism "
              f"{base_parallelism} -> {cur_parallelism}"
              + ("; threaded rows are flagged, not gated" if starved
                 else ""))
    if args.history and current:
        append_history(args.history, args.label, current)
        print(f"perf gate: appended {len(current)} median(s) to "
              f"{args.history}")
    if not baseline:
        print(f"perf gate: baseline has no '{args.filter}' benchmarks; "
              "nothing to compare")
        return 0
    if not current:
        print(f"perf gate: ERROR: current run has no '{args.filter}' "
              "benchmarks (did the suite rename them?)")
        return 1

    failures = []
    flagged = []
    for name, (base_time, base_unit) in sorted(baseline.items()):
        if name not in current:
            print(f"perf gate: note: '{name}' absent from current run")
            continue
        cur_time, cur_unit = current[name]
        if base_unit != cur_unit:
            print(f"perf gate: ERROR: '{name}' time unit changed "
                  f"({base_unit} -> {cur_unit})")
            failures.append(name)
            continue
        threshold = budget_for(name, args.threshold, budgets)
        ratio = cur_time / base_time if base_time > 0 else float("inf")
        lanes = max(base_lanes[name], cur_lanes[name])
        verdict = "OK"
        if ratio > 1.0 + threshold and starved and lanes > 1:
            verdict = (f"FLAGGED (> {threshold:.0%} slower on {lanes:g} "
                       "lanes, host parallelism below 2)")
            flagged.append(name)
        elif ratio > 1.0 + threshold:
            verdict = f"REGRESSION (> {threshold:.0%} slower)"
            failures.append(name)
        print(f"perf gate: {name}: {base_time:.3f} -> {cur_time:.3f} "
              f"{cur_unit} ({ratio:.2f}x baseline, budget "
              f"{threshold:.0%}) {verdict}")
    for name in sorted(set(current) - set(baseline)):
        print(f"perf gate: note: '{name}' is new (no baseline)")

    if flagged:
        print(f"perf gate: {len(flagged)} threaded benchmark(s) flagged, "
              "not gated")
    if failures:
        print(f"perf gate: FAILED: {len(failures)} benchmark(s) regressed "
              "beyond budget")
        return 1
    print("perf gate: passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
