"""The three workloads: table1_progressive, sweep_campaign, daemon_open_loop.

Each returns a Result. Untraced runs fill the end-to-end metrics; traced
runs (--trace 1) fill the per-layer metrics. Every output of the system
under test is checked; a mismatch is a failed operation.
"""

import hashlib
import json
import math
import os
import shutil
import subprocess
import time

import layers
import measure
import openloop
import specgen

# Set-ups per run; the median is reported as setup_s.
SETUP_REPS = 9
# Two lanes, as a 2-vCPU user would run a campaign or the daemon.
LANES = 2
# Fewest latency samples for a reportable 90th percentile.
MIN_SAMPLES = measure.samples_for(90)
# Untraced campaigns a traced sweep run takes lane_busy_frac from.
BUSY_CAMPAIGNS = 3
# Seconds the traced daemon run spends in the in-process probe.
DAEMON_PROBE_S = 3.0
# Fresh specs the traced daemon run feeds the probe.
DAEMON_PROBE_SPECS = 20
# Fresh specs per daemon run checked against the serial engine.
DAEMON_SERIAL_SPECS = 4

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "digests.json")


class BenchError(Exception):
    """The benchmark could not run a workload to the end."""


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []   # first failure messages, for the reader
        self.e2e = {}     # metric -> (value, unit, samples)
        self.layers = {}  # per-layer metric -> value

    def fail(self, count, note):
        self.failed += count
        if len(self.notes) < 10:
            self.notes.append(note)

    @property
    def correct(self):
        return self.failed == 0


class Context:
    def __init__(self, bins, workload, seed, seconds, trace, run_dir):
        self.bins = bins
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.run_dir = run_dir
        self.work = os.path.join(".bench_work", f"{workload}-s{seed}")

    def fresh(self, name):
        path = os.path.join(self.work, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def probe(self, *args):
        done = subprocess.run([self.bins["probe"], *args],
                              capture_output=True, text=True)
        if done.returncode not in (0, 1) or not done.stdout.strip():
            raise BenchError(f"perfbench_probe {args[0]} failed: "
                             f"{done.stderr.strip()}")
        return done.returncode, done.stdout.strip().splitlines()

    def reference(self, specs):
        """spec path -> reference outputs (see perfbench_probe check)."""
        code, lines = self.probe("check", *specs)
        refs = {r["spec"]: r for r in map(json.loads, lines)}
        if code != 0 or set(refs) != set(specs):
            raise BenchError("perfbench_probe check did not cover every spec")
        return refs


def canonical(record):
    """A batch/journal record minus its volatile fields."""
    return {k: v for k, v in record.items() if k not in ("wall_ms", "resumed")}


def canon_bytes(ctx, store):
    done = subprocess.run([ctx.bins["flow"], "--canon", store],
                          capture_output=True)
    if done.returncode != 0:
        raise BenchError(f"lsiq_flow --canon {store} failed")
    return done.stdout


def run_setups(setup_once):
    """Run setup_once(rep) SETUP_REPS times. Each returns (value, seconds
    of its timed part); returns the timings and the last value."""
    walls = []
    value = None
    for rep in range(SETUP_REPS):
        value, seconds = setup_once(rep)
        walls.append(seconds)
    return walls, value


def set_common(result, walls_ms, ok, elapsed_s, cpu_s, rss_kb, setup_s):
    if not walls_ms:
        raise BenchError("no operation succeeded: " + "; ".join(result.notes))
    summary = measure.timing_summary(walls_ms)
    result.e2e["spec_ms_p50"] = (summary["p50"], "ms", summary["n"])
    result.e2e["spec_ms_p90"] = (summary["p90"], "ms", summary["n"])
    if summary["p90"] is None:
        result.e2e["spec_ms_p90"] = (measure.percentile(walls_ms, 90)[0], "ms",
                                     summary["n"])
        result.notes.append(f"spec_ms_p90 has only {summary['p90_beyond']} "
                            "samples beyond it")
    result.e2e["specs_per_s"] = (ok / elapsed_s, "1/s", ok)
    result.e2e["cpu_ms_per_spec"] = (cpu_s * 1e3 / max(1, ok), "ms", ok)
    result.e2e["setup_s"] = (measure.median(setup_s), "s", len(setup_s))
    result.e2e["peak_rss_mb"] = (rss_kb / 1024.0, "MB", 1)


def trace_into(ctx, result, probe_trace, extra_events=()):
    """Summarize a probe trace into result.layers and write trace.json."""
    events = layers.load_events(probe_trace) + list(extra_events)
    result.layers.update(layers.summarize(events))
    with open(os.path.join(ctx.run_dir, "trace.json"), "w") as out:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, out)


# ---- table1_progressive ----

def table1_progressive(ctx):
    """Closed loop, one client: a fresh `lsiq_flow SPEC` process per op."""
    result = Result()

    def setup(rep):
        start = time.perf_counter()
        spec = specgen.table1_spec(ctx.fresh(f"setup{rep}"), ctx.seed)
        warm = measure.run_process([ctx.bins["flow"], spec],
                                   os.path.join(ctx.work, "warm.out"),
                                   os.path.join(ctx.work, "warm.err"))
        if warm.code != 0:
            raise BenchError("table1 warm-up run failed")
        return spec, time.perf_counter() - start

    setup_s, spec = run_setups(setup)
    expected = ctx.reference([spec])[spec]["stdout"]
    out = os.path.join(ctx.work, "op.out")
    err = os.path.join(ctx.work, "op.err")

    if ctx.trace:
        report = os.path.join(ctx.run_dir, "traced_report.txt")
        probe_trace = os.path.join(ctx.work, "probe_trace.json")
        code, lines = ctx.probe("flow", str(ctx.seconds), probe_trace, report,
                                spec)
        status = json.loads(lines[-1])
        result.attempted = status["ops"]
        if code != 0 or status["mismatches"]:
            result.fail(status["mismatches"] or 1,
                        "traced composition differs from flow::run")
        with open(report, encoding="utf-8") as traced:
            if traced.read() != expected:
                result.fail(1, "traced report differs from lsiq_flow stdout")
        trace_into(ctx, result, probe_trace)
        return result

    walls_ms = []
    cpu_s = 0.0
    rss_kb = 0
    start = time.perf_counter()
    while result.attempted < MIN_SAMPLES or \
            time.perf_counter() - start < ctx.seconds:
        run = measure.run_process([ctx.bins["flow"], spec], out, err)
        result.attempted += 1
        cpu_s += run.cpu_s
        rss_kb = max(rss_kb, run.maxrss_kb)
        with open(out, encoding="utf-8", errors="replace") as got:
            if run.code != 0 or got.read() != expected:
                result.fail(1, f"op {result.attempted}: exit {run.code} or "
                               "stdout differs from the serial reference")
                continue
        walls_ms.append(run.wall_s * 1e3)
    elapsed = time.perf_counter() - start
    set_common(result, walls_ms, len(walls_ms), elapsed, cpu_s, rss_kb,
               setup_s)
    return result


# ---- sweep_campaign ----

def run_campaign(ctx, manifest, checkpoint, stem, lanes=LANES):
    out = stem + ".out"
    run = measure.run_process(
        [ctx.bins["flow"], "--batch", "--jobs", str(lanes), "--checkpoint",
         checkpoint, "--no-resume", manifest], out, stem + ".err")
    with open(out, encoding="utf-8") as lines:
        records = [json.loads(line) for line in lines if line.strip()]
    return run, records


def check_misr_digests(ctx, result, refs, jobs):
    """At the default seed the MISR specs must reproduce recorded digests."""
    if ctx.seed != specgen.DEFAULT_SEED:
        return
    with open(DIGESTS, encoding="utf-8") as digests:
        expected = json.load(digests)["sweep_campaign"]
    for kind, path in jobs:
        if kind != "misr":
            continue
        record = json.loads(refs[path]["canonical"])
        record.pop("spec")
        digest = hashlib.sha256(
            json.dumps(record, sort_keys=True).encode()).hexdigest()
        if expected.get(os.path.basename(path)) != digest:
            result.fail(1, f"MISR record differs from its digest: {path}")


def sweep_campaign(ctx):
    """Closed loop: one `lsiq_flow --batch --jobs 2` campaign per op."""
    result = Result()
    checkpoint = os.path.join(ctx.work, "campaign.jsonl")

    def setup(rep):
        start = time.perf_counter()
        manifest, jobs = specgen.sweep_specs(ctx.fresh(f"setup{rep}"),
                                             ctx.seed)
        run, records = run_campaign(ctx, manifest, checkpoint,
                                    os.path.join(ctx.work, "warm"))
        if run.code != 0 or len(records) != len(jobs):
            raise BenchError("sweep warm-up campaign failed")
        return (manifest, jobs), time.perf_counter() - start

    setup_s, (manifest, jobs) = run_setups(setup)
    specs = [path for _, path in jobs]
    refs = ctx.reference(specs)
    for ref in refs.values():
        if not ref["reference_ok"]:
            result.fail(1, f"serial cross-check failed: {ref['spec']}")
    check_misr_digests(ctx, result, refs, jobs)
    expected = {spec: json.loads(refs[spec]["canonical"]) for spec in specs}

    def campaign(stem):
        """One campaign, checked: (run, records, ok spec count)."""
        run, records = run_campaign(ctx, manifest, checkpoint, stem)
        result.attempted += len(specs)
        seen = {r["spec"]: r for r in records}
        bad = [s for s in specs if s not in seen or seen[s]["status"] != "ok"
               or canonical(seen[s]) != expected[s]]
        if bad or run.code != 0:
            result.fail(max(1, len(bad)), f"campaign exit {run.code}, "
                        f"{len(bad)} records differ, e.g. {bad[:1]}")
        return run, records, len(specs) - len(bad)

    def busy(run, records):
        return sum(r["wall_ms"] for r in records) / (LANES * run.wall_s * 1e3)

    if ctx.trace:
        busy_fracs = [busy(*campaign(os.path.join(ctx.work, "busy"))[:2])
                      for _ in range(BUSY_CAMPAIGNS)]
        result.layers["flow.lane_busy_frac"] = measure.median(busy_fracs)
        probe_trace = os.path.join(ctx.work, "probe_trace.json")
        code, lines = ctx.probe("campaign", str(ctx.seconds), str(LANES),
                                probe_trace, *specs)
        status = json.loads(lines[-1])
        result.attempted += status["campaigns"] * len(specs)
        if code != 0 or status["mismatches"]:
            result.fail(status["mismatches"] or 1,
                        "traced campaign differs from run_batch")
        with open(probe_trace + ".traced.jsonl", encoding="utf-8") as traced:
            records = [json.loads(line) for line in traced]
        if {r["spec"]: canonical(r) for r in records} != expected:
            result.fail(1, "traced campaign differs from the serial reference")
        trace_into(ctx, result, probe_trace)
        return result

    # Per-spec latency over one job type only, the 10 mult16 LFSR specs, so
    # no percentile falls between the MISR, LFSR and ATPG specs.
    timed = {path for kind, path in jobs if kind == "lfsr"}
    spec_ms = []
    rates = []
    cpu_s = 0.0
    rss_kb = 0
    ok_specs = 0
    wall_s = 0.0
    start = time.perf_counter()
    while len(spec_ms) < MIN_SAMPLES or \
            time.perf_counter() - start < ctx.seconds:
        run, records, ok = campaign(os.path.join(ctx.work, "op"))
        spec_ms.extend(r["wall_ms"] for r in records
                       if r["status"] == "ok" and r["spec"] in timed)
        rates.append(ok / run.wall_s)
        ok_specs += ok
        wall_s += run.wall_s
        cpu_s += run.cpu_s
        rss_kb = max(rss_kb, run.maxrss_kb)
    # The last campaign's store, canonicalized by the CLI, byte for byte.
    want = "".join(refs[s]["canonical"] + "\n" for s in sorted(specs))
    if canon_bytes(ctx, checkpoint).decode() != want:
        result.fail(1, "lsiq_flow --canon of the campaign store differs")
    set_common(result, spec_ms, ok_specs, wall_s, cpu_s, rss_kb, setup_s)
    # Throughput as the median over campaigns, robust to one slow campaign.
    result.e2e["specs_per_s"] = (measure.median(rates), "1/s", len(rates))
    return result


# ---- daemon_open_loop ----

class Daemon:
    """One lsiq_flowd lifetime on a journal, with a client connection."""

    def __init__(self, ctx, sock, journal, log):
        self.log = open(log, "ab")
        self.proc = subprocess.Popen(
            [ctx.bins["flowd"], "--server", sock, "--jobs", str(LANES),
             "--store", journal], stdout=self.log, stderr=self.log)
        deadline = time.perf_counter() + 30
        while True:
            try:
                self.client = openloop.Client(sock)
                if self.client.request({"op": "ping"}).get("ok"):
                    break
                self.client.close()
            except OSError:
                pass
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise BenchError("lsiq_flowd did not answer ping")
            time.sleep(0.001)
        self.watch = openloop.JournalWatch(journal)

    def submit(self, spec):
        return bool(self.client.request({"op": "submit", "spec": spec})
                    .get("ok"))

    def completions(self, timeout):
        return [(r.get("spec"), r) for r in self.watch.wait(timeout)]

    def run_all(self, specs, timeout_s=60.0):
        jobs = openloop.open_loop([(0.0, s) for s in specs], self.submit,
                                  self.completions, lead_s=0.0,
                                  timeout_s=timeout_s)
        if any(j["done"] is None or j["record"]["status"] != "ok"
               for j in jobs):
            raise BenchError("a daemon set-up job did not complete ok")

    def stats(self):
        return self.client.request({"op": "stats"})

    def stop(self):
        """Drain and reap; kill a daemon that does not exit."""
        try:
            if hasattr(self, "client"):
                self.client.request({"op": "drain"})
        except (OSError, ValueError):
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if hasattr(self, "watch"):
            self.watch.close()
        if hasattr(self, "client"):
            self.client.close()
        self.log.close()


def daemon_open_loop(ctx):
    """Open loop against one `lsiq_flowd --jobs 2 --store JOURNAL`."""
    result = Result()
    jobs_wanted = max(math.ceil(specgen.DAEMON_RATE_PER_S * ctx.seconds),
                      MIN_SAMPLES)

    def setup(rep):
        d = ctx.fresh(f"setup{rep}")
        inputs = specgen.daemon_inputs(d, ctx.seed, jobs_wanted)
        journal = os.path.join(d, "journal.jsonl")
        log = os.path.join(d, "flowd.log")
        # An earlier daemon lifetime leaves the journal specs behind ...
        earlier = Daemon(ctx, os.path.join(d, "a.sock"), journal, log)
        try:
            earlier.run_all(inputs["journal"])
        finally:
            earlier.stop()
        # ... and the daemon under test starts on that journal, warmed up
        # with one job of its product. Set-up time is this part alone:
        # spawn until ping answers, plus the warm-up job.
        start = time.perf_counter()
        daemon = Daemon(ctx, os.path.join(d, "b.sock"), journal, log)
        try:
            daemon.run_all([inputs["warmup"]])
        except BenchError:
            daemon.stop()
            raise
        seconds = time.perf_counter() - start
        if rep + 1 < SETUP_REPS:
            daemon.stop()
            return None, seconds
        return (d, inputs, journal, daemon), seconds

    setup_s, (d, inputs, journal, daemon) = run_setups(setup)
    schedule = inputs["schedule"]
    try:
        before = daemon.stats()
        cpu0 = measure.proc_cpu_s(daemon.proc.pid)
        jobs = openloop.open_loop([(due, spec) for due, _, spec in schedule],
                                  daemon.submit, daemon.completions)
        cpu1 = measure.proc_cpu_s(daemon.proc.pid)
        rss_kb = measure.proc_peak_rss_kb(daemon.proc.pid)
        after = daemon.stats()
    finally:
        daemon.stop()

    result.attempted = len(jobs)
    ok_jobs = [j for j in jobs if j["done"] is not None
               and j["record"].get("status") == "ok"]
    if not ok_jobs:
        raise BenchError("no daemon job completed ok")
    if len(ok_jobs) != len(jobs):
        result.fail(len(jobs) - len(ok_jobs),
                    f"{len(jobs) - len(ok_jobs)} jobs refused, failed or "
                    "never completed")

    # The journal, canonicalized, must equal a --batch run of its specs ...
    with open(journal, encoding="utf-8") as lines:
        journaled = {r["spec"]: canonical(r) for r in map(json.loads, lines)}
    manifest = specgen.write(os.path.join(d, "all.list"),
                             "".join(os.path.basename(s) + "\n"
                                     for s in sorted(journaled)))
    reference = os.path.join(d, "batch.jsonl")
    # Outside the timed window, so it may use every core the host offers.
    run, _ = run_campaign(ctx, manifest, reference, os.path.join(d, "batch"),
                          lanes=len(os.sched_getaffinity(0)))
    if run.code != 0 or canon_bytes(ctx, journal) != canon_bytes(ctx,
                                                                reference):
        result.fail(1, "daemon journal differs from --batch canonical bytes")
    # ... and a sample of it must equal the serial reference engine's records.
    sample = [inputs["warmup"]] + [spec for _, kind, spec in schedule
                                   if kind == "fresh"][:DAEMON_SERIAL_SPECS]
    refs = ctx.reference(sample)
    bad = [s for s in sample
           if journaled.get(s) != json.loads(refs[s]["canonical"])]
    if bad:
        result.fail(len(bad), f"journal records differ from the serial "
                              f"reference, e.g. {bad[0]}")

    latency_ms = [(j["done"] - j["due"]) * 1e3 for j in ok_jobs]
    # From the schedule's origin, so the seeded first gap does not count.
    origin = jobs[0]["due"] - schedule[0][0]
    span_s = max(j["done"] for j in ok_jobs) - origin
    set_common(result, latency_ms, len(ok_jobs), span_s, cpu1 - cpu0, rss_kb,
               setup_s)

    if ctx.trace:
        daemon_layers(ctx, result, jobs, ok_jobs, span_s, before, after,
                      schedule)
    return result


def daemon_layers(ctx, result, jobs, ok_jobs, span_s, before, after,
                  schedule):
    """Service, client and (from a probe campaign over the daemon's own
    specs) flow-layer metrics of a traced daemon run."""
    ran = [j for j in ok_jobs if not j["record"].get("resumed")]
    run_ms = [j["record"]["wall_ms"] for j in ran]
    queue_ms = [(j["done"] - j["acked"]) * 1e3 - j["record"]["wall_ms"]
                for j in ran]
    late_ms = [(j["sent"] - j["due"]) * 1e3 for j in jobs]
    submitted = after["submitted"] - before["submitted"]
    hits = after["cache_hits"] - before["cache_hits"]
    gets = hits + after["cache_misses"] - before["cache_misses"]
    result.layers.update({
        "service.submit_rtt_ms_p50": measure.median(
            [(j["acked"] - j["sent"]) * 1e3 for j in jobs]),
        "service.queue_ms_p50": measure.percentile(queue_ms, 50)[0],
        "service.queue_ms_p90": measure.percentile(queue_ms, 90)[0],
        "service.run_ms_p50": measure.median(run_ms),
        "service.lane_util": sum(run_ms) / (LANES * span_s * 1e3),
        "service.resumed_share":
            (after["resumed"] - before["resumed"]) / max(1, submitted),
        "service.cache_hit_ratio": hits / max(1, gets),
        "client.late_ms_p99": measure.percentile(late_ms, 99)[0],
    })
    # The service spans beside the probe's: one track per job, its phases
    # as children of a span from due time to completion.
    origin = jobs[0]["due"]
    events = []

    def span(name, begin, end, n, parent):
        events.append({"name": name, "cat": "service", "ph": "X", "pid": 2,
                       "tid": n, "ts": (begin - origin) * 1e6,
                       "dur": max(0.0, end - begin) * 1e6,
                       "args": {"id": -(len(events) + 1), "parent": parent,
                                "op": -(n + 1)}})
        return events[-1]["args"]["id"]

    for n, j in enumerate(ok_jobs):
        job = span("daemon.job", j["due"], j["done"], n, 0)
        span("client.late", j["due"], j["sent"], n, job)
        span("service.submit", j["sent"], j["acked"], n, job)
        span("service.job", j["acked"], j["done"], n, job)
    fresh = [spec for _, kind, spec in schedule if kind == "fresh"]
    probe_trace = os.path.join(ctx.work, "probe_trace.json")
    code, lines = ctx.probe("campaign", str(DAEMON_PROBE_S), str(LANES),
                            probe_trace, *fresh[:DAEMON_PROBE_SPECS])
    if code != 0 or json.loads(lines[-1])["mismatches"]:
        result.fail(1, "traced campaign over daemon specs differs from "
                       "run_batch")
    trace_into(ctx, result, probe_trace, events)


WORKLOADS = {
    "table1_progressive": table1_progressive,
    "sweep_campaign": sweep_campaign,
    "daemon_open_loop": daemon_open_loop,
}
