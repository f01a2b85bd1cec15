#!/usr/bin/env python3
"""The `cdp` benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The script builds the `cdp`
binary and the in-process tracer (`perfbench/tracer`) with cargo, makes
the workload's job specs from `--seed`, measures for `--seconds`, checks
every output, and prints as its last stdout line one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end metrics of `BENCHMARK.json`, measured with
tracing off; with `--trace 1` they are the per-layer metrics of the
traced run. The line before it stamps the run (source revision, core
count, seed, job and sample counts, median and quartiles per metric).
See `perfbench/README.md`.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent

# serve_mix load shape. The fixed-rate phase carries the latency metrics
# (200 requests: 10 samples beyond p95). The rate ladder follows over the
# rest of --seconds as a ramp (a ladder with one rung per request): the
# offered rate rises linearly past the server's capacity, and
# max_rate_jobs_s is the rate the server completes jobs at once its backlog
# grows (see max_rate). The ramp starts below the fixed rate and ends far
# above the capacity, so neither end bounds the reading.
SERVE_WORKERS = 2
SERVE_CONNECTIONS = 2
FIXED_RATE = 11.0  # jobs/s
FIXED_REQUESTS = 200
RAMP = (5.0, 90.0)  # jobs/s, from and to
LATENCY_LIMIT_MS = 500.0
MIN_RAMP_S = 4.0
MIN_SATURATED_S = 1.0
# a traced serve run offers only this many fixed-rate requests; the
# tracer then runs the same specs in-process
TRACE_SERVE_JOBS = 40
# a serve_mix run spawns and warms a server this many times (set-up)
SETUP_SERVE_REPEATS = 3
# a batch set-up writes the originals of the quality jobs (the ones whose
# unprotected columns the output check compares) and smoke-runs the first
# SMOKE_JOBS job specs, SETUP_BATCH_REPEATS times. Several smoke runs, not
# one: a single original's smoke run costs ±20% around the mean.
SETUP_BATCH_REPEATS = 3
SMOKE_JOBS = 3
# a job running longer than this is killed and counts as failed
JOB_TIMEOUT_S = 60
# the in-process checks and traced run of one run together
TRACER_TIMEOUT_S = 120


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class Fail(Exception):
    """The benchmark itself cannot run: no result is printed."""


# -- build --------------------------------------------------------------

def build():
    """Build the `cdp` binary and the tracer; return their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        raise Fail(f"{ROOT} is not a cdp source checkout (no Cargo.toml / crates/cli)")
    if shutil.which("cargo") is None:
        raise Fail("cargo not found")
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "cdp-cli", "--bin", "cdp"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", str(HERE / "tracer" / "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise Fail(f"build failed: {' '.join(cmd)}")
    cdp, tracer = target / "release" / "cdp", target / "release" / "perftrace"
    for binary in (cdp, tracer):
        if not binary.is_file():
            raise Fail(f"missing {binary}")
    return str(cdp), str(tracer)


def source_revision():
    """The git SHA when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(base.rglob("*")) if base.is_dir() else []
        for f in files:
            if f.is_file() and "target" not in f.parts and "__pycache__" not in f.parts:
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def tracer_call(tracer, args, lines):
    """Run `perftrace <args>` over stdin lines; return its JSON lines."""
    done = subprocess.run([tracer, *args], input="".join(l + "\n" for l in lines),
                          capture_output=True, text=True, timeout=TRACER_TIMEOUT_S)
    if done.returncode != 0:
        raise Fail(f"perftrace {args[0]} failed: {done.stderr.strip()}")
    return [json.loads(l) for l in done.stdout.splitlines() if l.strip()]


# -- batch workloads ------------------------------------------------------

def run_cdp_job(cdp, spec, out_dir):
    """One `cdp optimize` run: wall seconds, peak RSS in MiB (`ru_maxrss`
    from wait4: the kernel's high-water mark of the process, its final
    `VmHWM`), exit code and stdout."""
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "stdout.txt"
    start = time.perf_counter()
    with open(log_path, "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen([cdp, "optimize", "--job", spec, "--out", str(out_dir)],
                                stdout=out, stderr=err)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        watchdog.cancel()
    wall = time.perf_counter() - start
    # wait4 reaped the child; record its status so Popen never waits again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, log_path.read_text()


def parse_front_csv(path, phase):
    """Rows of `phase` in a `scatter.csv`/`front.csv`: `(name, numbers)`
    with the numeric columns (il, dr, score, extra objectives) as written.
    Names may contain commas, so the numbers are taken from the right."""
    rows = []
    with open(path) as f:
        width = len(f.readline().strip().split(",")) - 2
        for line in f:
            parts = line.rstrip("\n").split(",")
            if parts[0] == phase:
                rows.append((",".join(parts[1:-width]), parts[-width:]))
    return rows


def dominated_members(rows):
    """Members of a written front that another member dominates. The CSV
    rounds to 4 decimals, so a pair is judged only when it differs on
    every objective the front does not hold constant: a tie after rounding
    could hide a true trade-off."""
    objs = [[float(n[0]), float(n[1])] + [float(x) for x in n[3:]] for _, n in rows]
    varying = [d for d in range(len(objs[0]) if objs else 0)
               if len({o[d] for o in objs}) > 1]
    if not varying:
        return []
    return [j for j, b in enumerate(objs)
            if any(all(a[d] < b[d] for d in varying) for i, a in enumerate(objs) if i != j)]


def check_batch_job(workload, out_dir, stdout, fresh, records):
    """Compare one run's published file and report with the fresh
    re-assessment of the published file. Returns (problems, front_hv)."""
    if fresh.get("error"):
        return [fresh["error"]], None
    problems = []
    if fresh["rows"] != records:
        problems.append(f"best.csv has {fresh['rows']} rows, expected {records}")
    if workload == "nsga_islands":
        m = re.search(r"knee point `(.+)` \(IL", stdout)
        rows = parse_front_csv(out_dir / "front.csv", "final")
        if m is None:
            return problems + ["no knee point in the report"], None
        winners = [n for name, n in rows if name == m.group(1)]
        problems += [f"front member {j} is dominated" for j in dominated_members(rows)]
        with open(out_dir / "hypervolume.csv") as f:
            front_hv = float(f.read().split()[-1].split(",")[1])
    else:
        m = re.search(r"best score [0-9.]+ -> [0-9.]+ \((.+)\), files in", stdout)
        rows = parse_front_csv(out_dir / "scatter.csv", "final")
        if m is None:
            return problems + ["no winner in the report"], None
        best = min(float(n[2]) for _, n in rows)
        winners = [n for name, n in rows if name == m.group(1) and float(n[2]) == best]
        front_hv = stats.hypervolume_2d([(float(n[0]), float(n[1])) for _, n in rows])
    if not any(n[0] == fresh["il4"] and n[1] == fresh["dr4"] for n in winners):
        problems.append(
            f"published winner re-assesses to IL {fresh['il4']} DR {fresh['dr4']}, "
            f"reported {[n[:2] for n in winners]}")
    return problems, front_hv


def batch_setup(cdp, workload, seed, quality_jobs, work):
    """One set-up of a batch run, as an analyst prepares a run: write the
    originals of the quality jobs to disk with `cdp generate` (the reference
    the output check compares the published file's unprotected columns
    with), then smoke-run the first job specs at budget 1 on 1000 rows.
    Returns the seconds it took."""
    start = time.perf_counter()
    for i, spec in enumerate(workloads.batch_specs(workload, seed, quality_jobs)):
        keys = dict(tok.split("=", 1) for tok in spec.split())
        subprocess.run([cdp, "generate", "--dataset", keys["dataset"], "--records",
                        keys["records"], "--seed", keys["seed"],
                        "--out", str(work / f"original-{i}.csv")],
                       check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    for spec in workloads.batch_specs(workload, seed, SMOKE_JOBS, "smoke"):
        subprocess.run([cdp, "optimize", "--job", spec, "--out", str(work / "smoke")],
                       check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def unprotected_columns_match(original, published, stdout):
    """Columns the job does not protect are published verbatim: all but
    the run's protected attributes (its report names their count) match
    the original column for column."""
    m = re.search(r" x (\d+) attributes", stdout)
    with open(original) as a, open(published) as b:
        rows_a = [l.rstrip("\n").split(",") for l in a]
        rows_b = [l.rstrip("\n").split(",") for l in b]
    if m is None or len(rows_a) != len(rows_b) or rows_a[0] != rows_b[0]:
        return False
    same = [j for j in range(len(rows_a[0]))
            if all(ra[j] == rb[j] for ra, rb in zip(rows_a, rows_b))]
    return len(same) >= len(rows_a[0]) - int(m.group(1))


def run_batch(workload, seed, seconds, trace, cdp, tracer, work):
    cfg = workloads.BATCH[workload]
    records = cfg["records"]
    n_min = cfg["trace_jobs"] if trace else cfg["quality_jobs"]
    # more specs than any run can use; the run takes them in order
    specs = workloads.batch_specs(workload, seed, 200)

    setup = [batch_setup(cdp, workload, seed, cfg["quality_jobs"], work)
             for _ in range(SETUP_BATCH_REPEATS)]

    walls, rss, outcomes = [], [], []
    start = time.perf_counter()
    while len(outcomes) < n_min or (not trace and time.perf_counter() - start < seconds):
        i = len(outcomes)
        out_dir = work / f"job-{i}"
        wall, peak, code, stdout = run_cdp_job(cdp, specs[i], out_dir)
        outcomes.append((specs[i], out_dir, code, stdout))
        if code == 0:
            walls.append(wall)
            rss.append(peak)

    fresh = tracer_call(tracer, ["check"],
                        [f"{d}\t{s}" for s, d, code, _ in outcomes if code == 0])
    failed, problems, eq1, hvs = 0, [], [], []
    fresh_iter = iter(fresh)
    for i, (spec, out_dir, code, stdout) in enumerate(outcomes):
        if code != 0:
            failed += 1
            problems.append(f"job {i} exited {code}: {(out_dir / 'stderr.txt').read_text()[-300:]}")
            continue
        f = next(fresh_iter)
        issues, hv = check_batch_job(workload, out_dir, stdout, f, records)
        if i < cfg["quality_jobs"] and not unprotected_columns_match(
                work / f"original-{i}.csv", out_dir / "best.csv", stdout):
            issues.append("unprotected columns differ from the generated original")
        if issues:
            failed += 1
            problems.extend(f"job {i}: {p}" for p in issues)
        elif i < n_min:
            eq1.append(f["eq1"])
            hvs.append(hv)
    attempted = len(outcomes)
    samples = {
        "job_wall_s": walls,
        "setup_s": setup,
        "peak_rss_mb": rss,
        "winner_score": eq1,
        "front_hv": hvs,
    }
    # A batch run has no offered rate: job_p50_ms and max_rate_jobs_s are
    # aliases of the job walls (their median in ms, and jobs per second of
    # job wall), not evidence of their own; only serve_mix measures them.
    values = {
        "job_wall_s": stats.median(walls),
        "job_p50_ms": stats.median(walls) * 1e3,
        "job_p95_ms": stats.percentile(walls, 95) * 1e3,
        "max_rate_jobs_s": len(walls) / sum(walls) if walls else 0.0,
        "setup_s": stats.median(setup),
        "peak_rss_mb": stats.median(rss),
        "winner_score": stats.median(eq1),
        "front_hv": stats.median(hvs),
    }
    if trace:
        values = traced_batch(workload, specs[:n_min], walls, tracer, work, problems)
        if problems and not failed:
            failed = 1
    return attempted, failed, problems, values, samples


def traced_batch(workload, specs, walls, tracer, work, problems):
    """The traced run of a batch workload: the same specs in-process."""
    spans = span_path(workload)
    traced = tracer_call(tracer, ["trace", "--spans", str(spans), "--scratch",
                                  str(work / "trace")], [f"job\t{s}" for s in specs])[0]
    if traced.get("error"):
        problems.append(f"traced run: {traced['error']}")
        return {}
    check_coverage(traced, problems)
    values = per_layer_defaults()
    values.update({k: v for k, v in traced.items() if k in values})
    untraced_ms = stats.median(walls) * 1e3
    values["trace.overhead_ratio"] = traced["trace.job_ms"] / untraced_ms if untraced_ms else 0.0
    return values


def check_coverage(traced, problems):
    coverage = traced["metrics.stage_coverage"]
    tolerance = traced["metrics.stage_coverage_tolerance"]
    if abs(coverage - 1.0) > tolerance:
        problems.append(f"stage coverage {coverage:.3f}: the metrics.stage.* spans do not sum "
                        f"to Evaluator::assess within {tolerance:.0%}")


def span_path(workload):
    spans = ROOT / ".bench_work" / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    return spans / f"{workload}-{os.getpid()}.jsonl"


# -- serve_mix ------------------------------------------------------------

# servers started by this run; main() stops any still running on exit
SERVERS = []


def start_server(cdp, cache_dir):
    proc = subprocess.Popen(
        [cdp, "serve", "--addr", "127.0.0.1:0", "--workers", str(SERVE_WORKERS),
         "--cache-dir", str(cache_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    line = proc.stdout.readline()
    m = re.search(r"listening on [^:]+:(\d+)", line)
    if m is None:
        proc.kill()
        proc.wait()
        raise Fail(f"cdp serve did not start: {line!r}")
    SERVERS.append(proc)
    return proc, int(m.group(1))


def stop_server(proc, port):
    try:
        conn = loadgen.Connection(port, timeout=10)
        conn.request("SHUTDOWN")
        conn.close()
    except OSError:
        pass
    try:
        proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
    SERVERS.remove(proc)


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def setup_server(cdp, work, seed, rep):
    """Set-up unit of serve_mix: spawn a server on a fresh cache directory
    and warm its hot originals. Returns (proc, port, seconds, problems)."""
    start = time.perf_counter()
    proc, port = start_server(cdp, work / f"cache-{rep}")
    conn = loadgen.Connection(port)
    problems = []
    for spec in workloads.warm_specs(seed):
        reply = conn.request("JOB " + spec)
        if not reply.startswith("DONE "):
            problems.append(f"warm-up `{spec}`: {reply}")
    conn.close()
    return proc, port, time.perf_counter() - start, problems


def stats_fields(port):
    conn = loadgen.Connection(port)
    line = conn.request("STATS")
    conn.close()
    return dict(tok.split("=", 1) for tok in line.split()[1:] if not tok.startswith("entry="))


def original_of(spec):
    keys = dict(tok.split("=", 1) for tok in spec.split())
    return keys["dataset"], keys.get("records"), keys["seed"]


def done_fields(line):
    return dict(tok.split("=", 1) for tok in line.split()[1:])


def eq1_of_done(line):
    d = {k: float(v) for k, v in done_fields(line).items()
         if k in ("ctbil", "dbil", "ebil", "id", "dbrl", "prl", "rsrl")}
    il = (d["ctbil"] + d["dbil"] + d["ebil"]) / 3.0
    dr = (d["id"] + d["dbrl"] + d["prl"] + d["rsrl"]) / 4.0
    return (il + dr) / 2.0


def check_serve(results, tracer, seed, stats_line, problems):
    """Every DONE equals an in-process Session::run of its spec (cache_hit
    aside, which must say hot or cold), and the server prepared each
    distinct original exactly once."""
    distinct = sorted({r.spec for r in results if r.ok})
    expected = dict(zip(distinct, tracer_call(tracer, ["expect"], distinct)))
    failed = 0
    for r in results:
        issue = None
        if not r.ok:
            issue = r.terminal
        else:
            want = expected[r.spec]
            if want.get("error"):
                issue = want["error"]
            else:
                got, ref = done_fields(r.terminal), done_fields(want["done"])
                hit = got.pop("cache_hit")
                ref.pop("cache_hit")
                if got != ref:
                    issue = f"DONE differs from Session::run: {r.terminal} vs {want['done']}"
                elif hit != ("false" if r.cold else "true"):
                    issue = f"cache_hit={hit} for a {'cold' if r.cold else 'hot'} original"
        if issue:
            failed += 1
            problems.append(f"`{r.spec}`: {issue}")
    originals = {original_of(s) for s in workloads.warm_specs(seed)}
    originals |= {original_of(r.spec) for r in results}
    if int(stats_line["preparations"]) != len(originals):
        failed += 1
        problems.append(f"STATS preparations={stats_line['preparations']}, "
                        f"{len(originals)} distinct originals sent")
    return failed


def max_rate(results, fixed_s):
    """The highest rate the server sustains: jobs completed per second
    while the ramp held it saturated. Saturation starts at the last ramp
    request that still found the backlog at most one request per connection
    deep and was served within the latency limit (a failed request misses
    any limit); from then on the offered rate only exceeds what the server
    completes, so the queue never empties until the last request is sent.
    Completions in that span measure the rate at which the backlog stops
    growing, from many jobs rather than from the one request at the edge.
    None when no ramp request met the limits, or when the ramp did not
    saturate the server for MIN_SATURATED_S."""
    ramp = [r for r in results if r.due >= fixed_s]
    start = None
    for r in ramp:
        if (r.ok and r.latency * 1e3 <= LATENCY_LIMIT_MS
                and loadgen.backlog_at(results, r.released) <= SERVE_CONNECTIONS):
            start = r.released if start is None else max(start, r.released)
    sent = [r.sent for r in ramp if r.sent is not None]
    if start is None or not sent or max(sent) - start < MIN_SATURATED_S:
        return None
    end = max(sent)
    return sum(1 for r in ramp if r.ok and start < r.done <= end) / (end - start)


def run_serve(seed, seconds, trace, cdp, tracer, work):
    problems, setup = [], []
    proc = None
    repeats = 1 if trace else SETUP_SERVE_REPEATS
    for rep in range(repeats):
        if proc is not None:
            stop_server(proc, port)
        proc, port, took, issues = setup_server(cdp, work, seed, rep)
        setup.append(took)
        problems += issues
    fixed_s = FIXED_REQUESTS / FIXED_RATE
    schedule = workloads.serve_schedule(seed, FIXED_RATE, FIXED_REQUESTS)
    ramp_s = max(MIN_RAMP_S, seconds - fixed_s)
    if trace:
        schedule = schedule[:TRACE_SERVE_JOBS]
    else:
        schedule += workloads.serve_ramp(seed, *RAMP, ramp_s, fixed_s)
    try:
        results = loadgen.run_open_loop(port, schedule, SERVE_CONNECTIONS)
        peak = vm_hwm_mb(proc.pid)
        stats_line = stats_fields(port)
    finally:
        stop_server(proc, port)
    failed = check_serve(results, tracer, seed, stats_line, problems)
    attempted = len(results) + 1  # every request, plus the STATS reconciliation
    top_rate = max_rate(results, fixed_s)
    if top_rate is None and not trace:
        failed += 1
        problems.append(f"the {RAMP[0]:.0f} -> {RAMP[1]:.0f} jobs/s ramp found no rate the "
                        f"server sustains, or never saturated it for {MIN_SATURATED_S} s")

    fixed = [r for r in results if r.due < fixed_s]
    ok = [r for r in fixed if r.ok]
    lat = [r.latency for r in ok]
    service = [r.done - r.sent for r in ok]
    eq1 = [eq1_of_done(r.terminal) for r in ok]
    hvs = [float(re.search(r"hypervolume=([0-9.eE+-]+)", r.events[-1]).group(1))
           for r in ok if r.events]
    samples = {"job_p50_ms": [x * 1e3 for x in lat], "setup_s": setup,
               "winner_score": eq1, "front_hv": hvs, "job_wall_s": service}
    values = {
        "job_wall_s": stats.median(service),
        "job_p50_ms": stats.median(lat) * 1e3,
        "job_p95_ms": stats.percentile(lat, 95) * 1e3,
        "max_rate_jobs_s": top_rate or 0.0,
        "setup_s": stats.median(setup),
        "peak_rss_mb": peak,
        "winner_score": stats.median(eq1),
        "front_hv": stats.median(hvs),
    }
    if trace:
        values = per_layer_defaults()
        values["cli.queue_wait_ms"] = stats.median(
            [(r.first_event - r.due) * 1e3 for r in ok if r.first_event is not None])
        values["cli.wire_lines_per_job"] = stats.median([r.lines for r in ok])
        values["cli.wire_bytes_per_job"] = stats.median([r.bytes for r in ok])
        values["loadgen.late_ms"] = stats.percentile(
            [(r.released - r.due) * 1e3 for r in results], 95)
        lines = [f"warm\t{s}" for s in workloads.warm_specs(seed)]
        lines += [f"job\t{r.spec}" for r in fixed]
        traced = tracer_call(tracer, ["trace", "--spans", str(span_path("serve_mix")),
                                      "--scratch", str(work / "trace"), "--snapshot-dir",
                                      str(work / "trace-cache")], lines)[0]
        if traced.get("error"):
            problems.append(f"traced run: {traced['error']}")
        else:
            check_coverage(traced, problems)
            values.update({k: v for k, v in traced.items() if k in values})
            values["trace.overhead_ratio"] = traced["trace.job_ms"] / (
                stats.median(service) * 1e3)
        if problems and not failed:
            failed = 1
    return attempted, failed, problems, values, samples


# -- output ---------------------------------------------------------------

def benchmark_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise Fail("BENCHMARK.json not found at the checkout root")
    return json.loads(path.read_text())


def per_layer_defaults():
    """Every per-layer metric at 0: the value of a layer that does not run
    on the workload."""
    return {m["name"]: 0.0 for m in benchmark_spec()["per_layer"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        spec = benchmark_spec()
        cdp, tracer = build()
        work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            if args.workload == "serve_mix":
                result = run_serve(args.seed, args.seconds, args.trace, cdp, tracer, work)
            else:
                result = run_batch(args.workload, args.seed, args.seconds, args.trace,
                                   cdp, tracer, work)
        finally:
            for proc in SERVERS:
                proc.kill()
                proc.communicate()
            shutil.rmtree(work, ignore_errors=True)
    except Fail as e:
        log(f"perfbench: {e}")
        return 3
    attempted, failed, problems, values, samples = result
    for p in problems:
        log(f"perfbench: check failed: {p}")
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        if m["name"] not in values:
            log(f"perfbench: metric {m['name']} was not measured")
            return 3
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    stamp = {
        "revision": source_revision(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": 1,
        "jobs": attempted,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "samples": {k: stats.summary(v) for k, v in samples.items()},
    }
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
