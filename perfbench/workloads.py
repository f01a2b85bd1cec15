"""The benchmark's workloads: job specs generated from the workload seed.

Every job seed derives from the workload seed through one seeded
`random.Random`, so a seed always yields the same specs and the `cdp`
program receives nothing but the generated spec strings.
"""

import random

# The workloads; BENCHMARK.json and README.md say why each exists.
WORKLOADS = ("paper_scalar", "nsga_islands", "wide_mask_score", "serve_mix")

# Batch workloads: `cdp optimize --job <spec>` once per job, in sequence.
BATCH = {
    "paper_scalar": {
        "template": "dataset=adult suite=paper fitness=max iters=300 records=1000 audit=true",
        "smoke": "dataset=adult suite=paper fitness=max iters=1 records=1000 audit=true",
        "records": 1000,
        # quality metrics and the unprotected-column check use the first
        # jobs of a run, which every run completes whatever the speed of
        # the program
        "quality_jobs": 12,
        "trace_jobs": 3,
    },
    "nsga_islands": {
        "template": "dataset=adult suite=paper mode=nsga gens=20 islands=2 "
                    "obj=il,dr,eps eps=1.5 records=1000",
        "smoke": "dataset=adult suite=paper mode=nsga gens=1 islands=2 "
                 "obj=il,dr,eps eps=1.5 records=1000",
        "records": 1000,
        "quality_jobs": 10,
        "trace_jobs": 2,
    },
    "wide_mask_score": {
        # `cdp optimize` refuses iters=0 (mask-and-score exists only on the
        # library and server paths), so the batch run does one iteration:
        # one offspring against 86 full assessments of 100k rows
        "template": "dataset=adult suite=paper fitness=max iters=1 records=100000 audit=true",
        "smoke": "dataset=adult suite=paper fitness=max iters=1 records=1000 audit=true",
        "records": 100000,
        "quality_jobs": 2,
        "trace_jobs": 1,
    },
}

# serve_mix: the job kinds of the mix, with their share of requests and
# the group of hot originals they run over. `{seed}` is the original's
# seed, `{budget}` one of the kind's budgets. The shares, budgets and cold
# share are chosen for this benchmark, not taken from recorded traffic: the
# shares put the median and p95 inside one kind's cluster of service times,
# not on the edge between two (README.md gives the service times).
SERVE_KINDS = [
    ("scalar", 0.40, "adult", "dataset=adult suite=small records=500 iters={budget} seed={seed}",
     (30, 45, 60)),
    ("german", 0.20, "german", "dataset=german suite=small records=500 iters={budget} seed={seed}",
     (30, 45, 60)),
    ("nsga", 0.20, "adult", "dataset=adult suite=small records=500 mode=nsga gens={budget} seed={seed}",
     (3, 4)),
    ("mask", 0.20, "mask", "dataset=adult suite=small records=1000 iters=0 seed={seed}", (0,)),
]
# Hot originals per group: the per-original cost differences average out.
HOT_PER_GROUP = 8
# Share of requests over a cold original (a fresh seed never sent before).
COLD_SHARE = 0.15


def job_seeds(seed, n, salt):
    """`n` job seeds derived from the workload seed."""
    rng = random.Random(f"{salt}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(n)]


def batch_specs(workload, seed, n, kind="template"):
    """The first `n` job specs of a batch workload; with `kind="smoke"`,
    the same jobs at budget 1 on 1000 rows (the set-up's smoke runs)."""
    template = BATCH[workload][kind]
    return [f"{template} seed={s}" for s in job_seeds(seed, n, workload)]


def hot_seeds(seed):
    """The seeds of the originals a serve_mix server holds hot, per group
    (the adult scalar and NSGA-II kinds share theirs)."""
    groups = sorted({group for _, _, group, _, _ in SERVE_KINDS})
    seeds = job_seeds(seed, HOT_PER_GROUP * len(groups), "serve_hot")
    return {g: seeds[i * HOT_PER_GROUP:(i + 1) * HOT_PER_GROUP] for i, g in enumerate(groups)}


def warm_specs(seed):
    """The warm-up jobs: one per hot original, with the first kind of its
    group at its smallest budget."""
    hot = hot_seeds(seed)
    out, seen = [], set()
    for _, _, group, template, budgets in SERVE_KINDS:
        if group not in seen:
            seen.add(group)
            out += [template.format(budget=budgets[0], seed=s) for s in hot[group]]
    return out


def serve_requests(seed, dues, salt):
    """One request per due offset: `(due offset s, spec, cold)`. Every
    stretch of requests holds the kinds in their exact shares, each kind's
    budgets in turn, and exactly `COLD_SHARE` cold requests; the seed
    decides their order and the cold requests' fresh seeds, which no other
    request of the run uses."""
    rng = random.Random(f"serve:{salt}:{seed}")
    hot = hot_seeds(seed)
    n = len(dues)
    counts = [int(kind[1] * n) for kind in SERVE_KINDS]
    by_remainder = sorted(range(len(SERVE_KINDS)),
                          key=lambda i: SERVE_KINDS[i][1] * n - counts[i], reverse=True)
    for i in by_remainder[:n - sum(counts)]:
        counts[i] += 1
    jobs = [(hot[group][j % HOT_PER_GROUP], template,
             budgets[(j // HOT_PER_GROUP) % len(budgets)])
            for (_, _, group, template, budgets), count in zip(SERVE_KINDS, counts)
            for j in range(count)]
    rng.shuffle(jobs)
    cold = set(rng.sample(range(n), round(COLD_SHARE * n)))
    out = []
    for i, (due, (hot_seed, template, budget)) in enumerate(zip(dues, jobs)):
        job_seed = rng.randrange(2**31, 2**32) if i in cold else hot_seed
        out.append((due, template.format(budget=budget, seed=job_seed), i in cold))
    return out


def serve_schedule(seed, rate, count):
    """The fixed-rate phase: `count` requests offered at a constant `rate`
    (jobs/s) from offset 0."""
    return serve_requests(seed, [i / rate for i in range(count)], "fixed")


def serve_ramp(seed, lo, hi, duration, start):
    """The rate ladder as a ramp: requests offered at a rate rising
    linearly from `lo` to `hi` jobs/s over `duration`, from offset
    `start` (request i is due when the ramp's cumulative count reaches i)."""
    slope = (hi - lo) / duration
    dues, i = [], 0
    while True:
        # solve lo*t + slope*t^2/2 = i for t
        t = i / lo if slope == 0 else (-lo + (lo * lo + 2 * slope * i) ** 0.5) / slope
        if t >= duration:
            return serve_requests(seed, dues, "ramp")
        dues.append(start + t)
        i += 1
