"""Seeded inputs of the three workloads.

Everything the system under test receives is a spec file written here. The
workload seed sets every LFSR, lot and ATPG seed and the daemon's arrival
schedule; nothing else varies with it, so each workload keeps the same
count of each job type under every seed.
"""

import os
import random

DEFAULT_SEED = 1981

# The paper's Table 1 / Section 7 experiment (tools/specs/table1.spec),
# with the engine pinned to single-threaded ppsfp so each spec grades on
# one thread whatever the host's core count.
TABLE1 = """\
circuit     = mult16
source      = lfsr
patterns    = 1024
lfsr_seed   = {lfsr}
observe     = progressive
strobe_step = 24
engine      = ppsfp
chips       = 277
yield       = 0.07
n0          = 8
lot_seed    = {lot}
strobes     = 0.05 0.08 0.10 0.15 0.20 0.30 0.36 0.45 0.50 0.65
method      = least_squares
targets     = 0.01 0.001
"""

# One point of the stuck-at vs transition sweep
# (tools/specs/sweeps/transition_coverage.list).
SWEEP_LFSR = """\
circuit     = mult16
fault_model = {model}
source      = lfsr
patterns    = {patterns}
lfsr_seed   = {lfsr}
observe     = full
engine      = ppsfp
chips       = 0
yield       = 0.07
n0          = 8
"""

# The sweep's deterministic transition-ATPG closure point.
SWEEP_ATPG = """\
circuit      = mult16
fault_model  = transition
source       = atpg
atpg_random  = 256
atpg_seed    = {atpg}
atpg_compact = 1
observe      = full
engine       = ppsfp
chips        = 0
yield        = 0.07
n0           = 8
"""

# One point of the MISR aliasing sweep (tools/specs/sweeps/bist_aliasing.list).
SWEEP_MISR = """\
circuit    = mult8
source     = lfsr
patterns   = {patterns}
lfsr_seed  = {lfsr}
observe    = misr
misr_width = {width}
engine     = ppsfp
chips      = 0
yield      = 0.07
n0         = 8
"""

SWEEP_LENGTHS = (64, 128, 256, 512, 1024)
MISR_POINTS = ((4, 512), (8, 512), (16, 512), (24, 512), (32, 512),
               (8, 64), (8, 128), (8, 256), (8, 1024))

# The daemon's job: a mult16 full-observation LFSR spec.
DAEMON_PATTERNS = 1024

# Arrival rate of the daemon workload, fixed at about a third of the
# measured two-lane capacity for its job (about 45 jobs/s on a host that
# gives two cores), so the daemon stays below saturation even when the
# host delivers a single core.
DAEMON_RATE_PER_S = 15.0
# Every tenth job resubmits a spec already in the journal.
DAEMON_RESUME_EVERY = 10
# Specs an earlier daemon lifetime leaves in the journal.
DAEMON_JOURNAL_SPECS = 8


def derived_seed(seed, label):
    """A 31-bit nonzero seed for one input, a pure function of (seed, label)."""
    return random.Random(f"{seed}:{label}").randrange(1, 2**31)


def write(path, text):
    with open(path, "w", encoding="ascii") as out:
        out.write(text)
    return path


def table1_spec(directory, seed):
    """The single spec of table1_progressive."""
    return write(os.path.join(directory, "table1.spec"),
                 TABLE1.format(lfsr=derived_seed(seed, "table1.lfsr"),
                               lot=derived_seed(seed, "table1.lot")))


def sweep_specs(directory, seed):
    """The 20 specs of sweep_campaign, in manifest order, plus the manifest.

    Returns (manifest path, [(job type, spec path)]).
    """
    lfsr = derived_seed(seed, "sweep.lfsr")
    misr_lfsr = derived_seed(seed, "sweep.misr_lfsr")
    jobs = []
    for model, tag in (("stuck_at", "sa"), ("transition", "tr")):
        for patterns in SWEEP_LENGTHS:
            path = write(os.path.join(directory, f"mult16_{tag}_{patterns}.spec"),
                         SWEEP_LFSR.format(model=model, patterns=patterns,
                                           lfsr=lfsr))
            jobs.append(("lfsr", path))
    jobs.append(("atpg", write(os.path.join(directory, "mult16_tr_atpg.spec"),
                               SWEEP_ATPG.format(
                                   atpg=derived_seed(seed, "sweep.atpg")))))
    for width, patterns in MISR_POINTS:
        path = write(os.path.join(directory, f"misr_k{width}_{patterns}.spec"),
                     SWEEP_MISR.format(width=width, patterns=patterns,
                                       lfsr=misr_lfsr))
        jobs.append(("misr", path))
    manifest = write(os.path.join(directory, "campaign.list"),
                     "".join(os.path.basename(p) + "\n" for _, p in jobs))
    return manifest, jobs


def daemon_spec(directory, name, seed, label):
    return write(os.path.join(directory, name + ".spec"),
                 SWEEP_LFSR.format(model="stuck_at", patterns=DAEMON_PATTERNS,
                                   lfsr=derived_seed(seed, label)))


def daemon_inputs(directory, seed, jobs):
    """Specs and arrival schedule of daemon_open_loop.

    `jobs`, rounded up to a whole number of groups of DAEMON_RESUME_EVERY,
    arrive as a Poisson process at DAEMON_RATE_PER_S, rescaled so the last
    arrival falls exactly at jobs / rate: the seed moves the arrivals but
    not the offered load. In every group
    exactly one job, at a seeded position, resubmits a journal spec; the
    rest are fresh specs never seen before.
    Returns a dict with the journal specs, the warm-up spec and the schedule
    as [(due offset in s, "fresh" | "resume", spec path)].
    """
    journal = [daemon_spec(directory, f"journal_{i:02d}", seed,
                           f"daemon.journal.{i}")
               for i in range(DAEMON_JOURNAL_SPECS)]
    warmup = daemon_spec(directory, "warmup", seed, "daemon.warmup")
    rng = random.Random(f"{seed}:daemon.schedule")
    schedule = []
    due = 0.0
    resumed = 0
    fresh = 0
    for _ in range(-(-jobs // DAEMON_RESUME_EVERY)):
        resume_at = rng.randrange(DAEMON_RESUME_EVERY)
        for k in range(DAEMON_RESUME_EVERY):
            due += rng.expovariate(DAEMON_RATE_PER_S)
            if k == resume_at:
                schedule.append((due, "resume",
                                 journal[resumed % len(journal)]))
                resumed += 1
            else:
                schedule.append((due, "fresh",
                                 daemon_spec(directory, f"fresh_{fresh:04d}",
                                             seed, f"daemon.fresh.{fresh}")))
                fresh += 1
    scale = len(schedule) / DAEMON_RATE_PER_S / schedule[-1][0]
    schedule = [(due * scale, kind, spec) for due, kind, spec in schedule]
    return {"journal": journal, "warmup": warmup, "schedule": schedule}
