"""Timing helpers: the percentile rule, child processes with rusage, host
context."""

import collections
import json
import math
import os
import subprocess
import time

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank q-th percentile and the number of samples beyond it.

    Returns (value, beyond); beyond counts the samples ranked after the
    percentile's own rank.
    """
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def samples_for(q):
    """Fewest samples that leave MIN_BEYOND beyond the q-th percentile."""
    n = MIN_BEYOND
    while percentile(range(n), q)[1] < MIN_BEYOND:
        n += 1
    return n


def timing_summary(values):
    """Median and the 90th percentile of a list of timings.

    The 90th percentile is reported only when MIN_BEYOND samples lie beyond
    it; otherwise it is None. Returns a dict with the sample count.
    """
    p50, _ = percentile(values, 50)
    p90, beyond = percentile(values, 90)
    return {"n": len(values), "p50": p50,
            "p90": p90 if beyond >= MIN_BEYOND else None, "p90_beyond": beyond}


def median(values):
    return percentile(values, 50)[0]


# One finished child process: wall time, exit code, rusage.
Run = collections.namedtuple("Run", "wall_s code cpu_s maxrss_kb")


def run_process(args, stdout_path, stderr_path):
    """Spawn, wait with wait4 for the child's own rusage, time spawn -> exit."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return Run(wall, proc.returncode, usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss)


def proc_cpu_s(pid):
    """User + system CPU seconds of a live process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_kb(pid):
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


# ---- host context ----

def _cpu_ticks():
    with open("/proc/stat", encoding="ascii") as stat:
        fields = [int(x) for x in stat.readline().split()[1:]]
    return sum(fields[:8]), fields[7]  # total (through steal), steal


def _loadavg():
    with open("/proc/loadavg", encoding="ascii") as loadavg:
        return [float(x) for x in loadavg.read().split()[:3]]


def parallelism(probe):
    """Effective parallelism: k spinning threads vs one, for k = 2 and 4."""
    out = subprocess.run([probe, "parallelism"], check=True,
                         capture_output=True, text=True).stdout
    walls = json.loads(out.strip().splitlines()[-1])
    return {"k2": 2 * walls["wall_1"] / walls["wall_2"],
            "k4": 4 * walls["wall_1"] / walls["wall_4"]}


class HostContext:
    """What the host gave a run: core count, effective parallelism at the
    start and end, steal ticks and load average over the run."""

    # The lanes sweep_campaign and daemon_open_loop run on.
    LANES = 2

    def __init__(self, probe):
        self.probe = probe
        self.start = {"parallelism": parallelism(probe),
                      "loadavg": _loadavg()}
        self.ticks = _cpu_ticks()

    def finish(self):
        total, steal = _cpu_ticks()
        end = {"parallelism": parallelism(self.probe), "loadavg": _loadavg()}
        # Effective parallelism: the most any k spinning threads achieved.
        worst = min(max(point["parallelism"].values())
                    for point in (self.start, end))
        context = {
            "nproc": len(os.sched_getaffinity(0)),
            "start": self.start,
            "end": end,
            "steal_ticks": steal - self.ticks[1],
            "steal_share": (steal - self.ticks[1]) /
                           max(1, total - self.ticks[0]),
            "warning": None,
        }
        # 5% slack: two threads on two free cores measure about 1.95.
        if worst < 0.95 * self.LANES:
            context["warning"] = (
                f"effective parallelism fell to {worst:.2f}, below the "
                f"{self.LANES} lanes sweep_campaign and daemon_open_loop "
                "assume; their timings measure a contended host")
        return context
