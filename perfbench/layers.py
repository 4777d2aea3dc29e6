"""Per-layer metrics from a Chrome trace-event file.

The probe (harness.cpp) records one complete ("X") event per span with its
id, parent id and operation id in args, plus counters. This module turns
those spans into the per-layer metrics of BENCHMARK.json:

* a timing is the median over operations of the layer's self time in the
  operation (span duration minus the time its child spans cover);
* a count is summed over a unit of work (one spec in flow mode, one
  campaign in campaign mode) and the median over units is reported; for a
  fixed seed every unit carries the same count;
* the live-step census is recorded once per distinct spec and summed.
"""

import json

from measure import median

# span name -> per-layer timing metric
TIMINGS = {
    "flow.parse": "flow.parse_ms",
    "flow.cache_get": "flow.cache_get_ms",
    "flow.store_append": "flow.store_append_ms",
    "flow.report": "flow.report_ms",
    "circuit.build": "circuit.build_ms",
    "fault_model.universe": "fault_model.universe_ms",
    "analyze.gate": "analyze.gate_ms",
    "analyze.lint": "analyze.lint_ms",
    "analyze.engine": "analyze.engine_ms",
    "tpg.patterns": "tpg.patterns_ms",
    "fault.grade": "fault.grade_ms",
    "bist.session": "bist.session_ms",
    "wafer.lot": "wafer.lot_ms",
    "core.characterize": "core.characterize_ms",
}

# (span name, counter) -> per-layer count metric
COUNTS = {
    ("circuit.build", "nodes"): "circuit.nodes",
    ("fault_model.universe", "classes"): "fault_model.classes",
    ("analyze.gate", "redundant_classes"): "analyze.redundant_classes",
    ("tpg.patterns", "backtracks"): "tpg.backtracks",
    ("tpg.patterns", "decisions"): "tpg.decisions",
    ("tpg.patterns", "atpg_patterns"): "tpg.program_patterns",
    ("bist.session", "aliased_classes"): "bist.aliased_classes",
}

# Operation spans the traced composition opens, and their untraced twins.
TRACED_OPS = ("op", "campaign")
UNTRACED_OPS = {"op": "op.untraced", "campaign": "campaign.untraced"}

# metric -> (unit, better); the order of BENCHMARK.json's per_layer list.
PER_LAYER = {
    "flow.parse_ms": ("ms", "lower"),
    "flow.cache_get_ms": ("ms", "lower"),
    "flow.cache_hit_ratio": ("1", "higher"),
    "flow.store_append_ms": ("ms", "lower"),
    "flow.lane_busy_frac": ("1", "higher"),
    "flow.report_ms": ("ms", "lower"),
    "circuit.build_ms": ("ms", "lower"),
    "circuit.nodes": ("count", "lower"),
    "fault_model.universe_ms": ("ms", "lower"),
    "fault_model.classes": ("count", "lower"),
    "analyze.gate_ms": ("ms", "lower"),
    "analyze.lint_ms": ("ms", "lower"),
    "analyze.engine_ms": ("ms", "lower"),
    "analyze.redundant_classes": ("count", "higher"),
    "tpg.patterns_ms": ("ms", "lower"),
    "tpg.backtracks": ("count", "lower"),
    "tpg.decisions": ("count", "lower"),
    "tpg.program_patterns": ("count", "lower"),
    "fault.grade_ms": ("ms", "lower"),
    "fault.class_blocks": ("count", "lower"),
    "fault.ns_per_class_block": ("ns", "lower"),
    "fault.strobe_dead_share": ("1", "lower"),
    "bist.session_ms": ("ms", "lower"),
    "bist.aliased_classes": ("count", "lower"),
    "wafer.lot_ms": ("ms", "lower"),
    "core.characterize_ms": ("ms", "lower"),
    "service.submit_rtt_ms_p50": ("ms", "lower"),
    "service.queue_ms_p50": ("ms", "lower"),
    "service.queue_ms_p90": ("ms", "lower"),
    "service.run_ms_p50": ("ms", "lower"),
    "service.lane_util": ("1", "lower"),
    "service.resumed_share": ("1", "higher"),
    "service.cache_hit_ratio": ("1", "higher"),
    "client.late_ms_p99": ("ms", "lower"),
    "trace.span_coverage": ("1", "higher"),
    "trace.overhead_frac": ("1", "lower"),
}


def load_events(path):
    with open(path, encoding="utf-8") as trace:
        return json.load(trace)["traceEvents"]


def self_times(events):
    """Span id -> duration minus the time its direct children cover."""
    own = {e["args"]["id"]: e["dur"] for e in events}
    for e in events:
        parent = e["args"]["parent"]
        if parent in own:
            own[parent] -= e["dur"]
    return own


def summarize(events):
    """Per-layer metrics a trace supports; layers it does not reach are
    absent (the caller reports them as 0)."""
    by_id = {e["args"]["id"]: e for e in events}
    own = self_times(events)

    # The unit of work of each operation: its campaign when it ran inside
    # one, else the operation itself.
    def unit_of(op_span):
        parent = by_id.get(op_span["args"]["parent"])
        return parent["args"]["id"] if parent and parent["name"] == "campaign" \
            else op_span["args"]["id"]

    ops = {e["args"]["op"]: e for e in events
           if e["name"] in ("op", "probe")}
    per_op = {}     # (metric, op) -> summed self time in ms
    per_unit = {}   # (metric, unit) -> summed count
    for e in events:
        op = ops.get(e["args"]["op"])
        if op is None:
            continue
        metric = TIMINGS.get(e["name"])
        if metric is not None:
            key = (metric, e["args"]["op"])
            per_op[key] = per_op.get(key, 0.0) + own[e["args"]["id"]] / 1e3
        for (span, counter), metric in COUNTS.items():
            if e["name"] == span and counter in e["args"]:
                key = (metric, unit_of(op))
                per_unit[key] = per_unit.get(key, 0.0) + e["args"][counter]

    metrics = {}
    for metric in set(TIMINGS.values()):
        values = [v for (m, _), v in per_op.items() if m == metric]
        if values:
            metrics[metric] = median(values)
    for metric in set(COUNTS.values()):
        values = [v for (m, _), v in per_unit.items() if m == metric]
        if values:
            metrics[metric] = median(values)

    census = [e for e in events if e["name"] == "fault.census"]
    class_blocks = sum(e["args"]["class_blocks"] for e in census)
    if class_blocks:
        metrics["fault.class_blocks"] = class_blocks
        metrics["fault.strobe_dead_share"] = \
            sum(e["args"]["strobe_dead"] for e in census) / class_blocks
        # Grade time of one unit's worth of specs over its live steps.
        grade = {}
        for e in events:
            op = ops.get(e["args"]["op"])
            if e["name"] == "fault.grade" and op is not None:
                unit = unit_of(op)
                grade[unit] = grade.get(unit, 0.0) + e["dur"]
        if grade:
            metrics["fault.ns_per_class_block"] = \
                median(list(grade.values())) * 1e3 / class_blocks

    campaigns = [e for e in events if e["name"] == "campaign"]
    gets = sum(e["args"].get("cache_hits", 0) + e["args"].get("cache_misses", 0)
               for e in campaigns)
    if gets:
        metrics["flow.cache_hit_ratio"] = \
            sum(e["args"].get("cache_hits", 0) for e in campaigns) / gets

    # Coverage: how much of each traced operation its stage spans account for.
    traced = [e for e in events if e["name"] == "op"]
    covered = sum(e["dur"] - own[e["args"]["id"]] for e in traced)
    total = sum(e["dur"] for e in traced)
    if total:
        metrics["trace.span_coverage"] = covered / total

    # Overhead: the traced composition against the program's own path,
    # alternated in one invocation. Campaign mode compares whole campaigns.
    for name in TRACED_OPS:
        on = [e["dur"] for e in events
              if e["name"] == name and e["args"]["parent"] == 0]
        off = [e["dur"] for e in events if e["name"] == UNTRACED_OPS[name]]
        if on and off:
            metrics["trace.overhead_frac"] = median(on) / median(off) - 1.0
    return metrics
