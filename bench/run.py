"""oddfarey benchmark: run one workload's `farey` jobs and print its metrics.

    python3 bench/run.py --workload {stream,enclose,verify} --seed N --seconds S --trace {0,1}

Run from anywhere; the package is taken from ``src/`` next to this directory.
One client runs the workload's jobs one after another (closed loop), each in
a fresh interpreter (bench/job.py), and repeats the job list until about S
seconds have passed; every job runs at least once.  Inputs come from the seed
only (bench/workloads.py).  Every job's output is checked; a job fails when
it raises, exits 2, or fails its check.

--trace 0 reports the end-to-end metrics, from untraced jobs: the sum over
jobs of the median time inside ``cli.main`` at nominal machine speed
(job_s); set-up (setup_s): input generation plus, per job, the median time
from spawning an interpreter to having imported oddfarey, over every job run
and the ``farey --version`` probes at the start and the end of the run; and
the largest median peak RSS of a job process (peak_rss_mb).

The shared box runs the same code up to half again slower while other
tenants contend for the core, and CPU time slows with wall time.  So each
job process runs a probe thread on its own core (bench/pace.py) that times a
fixed slice of pure-Python work every 20 ms; a job's time is its wall time
inside ``cli.main``, less the probes' time, times the mean speed the probes
saw.  The per-layer times get the same factor.  The unscaled job time and
the median speed are printed on the context line and kept in
.bench_out/<workload>-seed<N>/context.json.  Set-up is not scaled: it
happens before the probe starts, and scaling each start by the probes right
after it made setup_s spread more, not less.

--trace 1 alternates traced and untraced passes (at least two traced around
one untraced) and reports the per-layer metrics from the traced jobs' spans,
plus the tracing overhead and any count that did not repeat exactly.  Spans
go to .bench_out/<workload>-seed<N>/ as JSON lines.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
The fail ratio is failed / attempted there (and on the ``fail_ratio`` line);
it is not an end-to-end metric, since those must never read 0.  For the seeds
in bench/expected.json every job's stdout and exit code must also match the
recorded digests; bench/record.py rewrites that file.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import (  # noqa: E402
    CROSS_CHECKS, RECORDED_SEEDS, WORKLOADS, Job, check_exit, farey_size, make_jobs,
)

EXPECTED = BENCH / "expected.json"
JOB_TIMEOUT_S = 120
SETUP_PROBES = 5  # at the start of a run, and as many again at its end
RUN_DEADLINE_S = 150  # after the first pass, start no job that would end later

# (name, unit, better); end-to-end bounds live in BENCHMARK.json.
END_TO_END = [("job_s", "s", "lower"), ("setup_s", "s", "lower"), ("peak_rss_mb", "MB", "lower")]

# (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = [
    ("farey.gap_histogram_s", "s", "lower", "job_s on stream; verify less"),
    ("farey.count_delta_tuples_s", "s", "lower", "job_s on stream"),
    ("farey.window_count_s", "s", "lower", "job_s on stream"),
    ("farey.calls", "count", "lower", "job_s on stream and verify"),
    ("farey.elements_per_s", "1/s", "higher", "job_s on stream (computed: #F(Q) per pass / pass time)"),
    ("farey.passes_per_job", "count", "lower", "job_s on stream (ideal 1; short-interval makes 4)"),
    ("geometry.cylinder_s", "s", "lower", "job_s on enclose"),
    ("geometry.cylinder_calls", "count", "lower", "job_s on enclose"),
    ("geometry.cylinder_area_calls", "count", "lower", "job_s on enclose"),
    ("geometry.cylinder_area_hit_ratio", "ratio", "higher", "job_s on enclose (base: cache calls)"),
    ("geometry.cylinder_area_cache_size", "count", "lower", "peak_rss_mb on enclose"),
    ("density.rho_odd_self_s", "s", "lower", "job_s on enclose"),
    ("density.rho_odd_cutoff", "count", "lower", "job_s on enclose"),
    ("density.family_sum_upto_calls", "count", "lower", "job_s on enclose"),
    ("paths.families_s", "s", "lower", "none: expected to stay small everywhere"),
    ("lattice.decode_histogram_s", "s", "lower", "job_s on verify"),
    ("lattice.decoded_points", "count", "lower", "job_s on verify"),
    ("lattice.decode_points_per_s", "1/s", "higher", "job_s on verify (computed)"),
    ("lattice.boundary_window_histogram_s", "s", "lower", "job_s on verify"),
    ("lattice.count_lattice_s", "s", "lower", "job_s on verify"),
    ("lattice.count_lattice_interval_s", "s", "lower", "job_s on verify"),
    ("lattice.parity_profile_s", "s", "lower", "job_s on verify"),
    ("lattice.verify_self_s", "s", "lower", "job_s on verify"),
    ("lattice.endpoint_notes", "count", "lower", "none: closed/half-open endpoint notes in verify output"),
    ("dynamics.orbit_kappas_s", "s", "lower", "job_s on verify, by very little"),
    ("cli.self_s", "s", "lower", "job_s on every workload, most on stream"),
    ("cli.stdout_bytes", "bytes", "lower", "job_s on every workload, most on stream"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced job_s / untraced job_s"),
    ("trace.spans", "count", "lower", "none: spans recorded per job list"),
    ("trace.unstable_counts", "count", "lower", "none: counts that did not repeat exactly"),
]

# Counts that must repeat exactly between runs of the same seed.
EXACT_COUNTS = [name for name, unit, _, _ in PER_LAYER if unit in ("count", "bytes")]
_STREAM_PASSES = ("farey.gap_histogram", "farey.count_delta_tuples")
_VERIFY_FNS = ("lattice.verify_tuple_identity", "lattice.verify_interval_identity",
               "lattice.verify_parity_swap")


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# running one job
# ---------------------------------------------------------------------------


def run_job(job: Job, spans_file: Path | None, expected: dict | None) -> dict:
    """Run ``job`` in a fresh interpreter; return its timings and problems."""
    cmd = [sys.executable, str(BENCH / "job.py"), str(spans_file) if spans_file else "-", "--",
           *job.argv]
    t_spawn = _monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        wall = _monotonic() - t_spawn
        return {"problems": [f"timed out after {JOB_TIMEOUT_S} s"], "wall": wall,
                "main_s": wall, "job_s": wall, "scale": 1.0, "setup_s": 0.0, "rss_kb": 0}
    wall = _monotonic() - t_spawn
    if proc.returncode != 0 or not proc.stdout:
        return {"problems": [f"job process exited {proc.returncode}: {proc.stderr[-500:]}"],
                "wall": wall, "main_s": wall, "job_s": wall, "scale": 1.0, "setup_s": 0.0,
                "rss_kb": 0}
    rep = json.loads(proc.stdout.splitlines()[-1])
    # Wall time inside main, less the probes' own time, at nominal speed (bench/pace.py).
    pace = rep["pace"]
    scale = pace["speed"] * (1 - pace["probe_s"] / rep["main_s"]) if rep["main_s"] > 0 else 1.0
    res = {
        "wall": wall,
        "main_s": rep["main_s"],
        "job_s": rep["main_s"] * scale,
        "scale": scale,
        "speed": pace["speed"],
        "setup_s": rep["ready"] - t_spawn,
        "rss_kb": rep["maxrss_kb"],
        "rc": rep["rc"],
        "stdout_bytes": len(rep["stdout"].encode()),
        "sha256": hashlib.sha256(rep["stdout"].encode()).hexdigest(),
        "cache": rep.get("cylinder_area_cache"),
        "problems": [],
    }
    if rep["error"]:
        res["problems"].append("raised: " + rep["error"].strip().splitlines()[-1])
    elif rep["rc"] == 2:
        res["problems"].append("exit code 2: " + rep["stderr"].strip()[-300:])
    else:
        job.parsed = None
        try:
            res["problems"] += job.check(job, rep["rc"], rep["stdout"])
        except (ValueError, KeyError, TypeError) as exc:
            res["problems"].append(f"unreadable output ({exc!r})")
        res["parsed"] = job.parsed
    if expected is not None:
        want = (expected["argv"], expected["rc"], expected["stdout_sha256"])
        if (job.argv, res["rc"], res["sha256"]) != want:
            res["problems"].append("stdout/exit-code digest differs from the recorded one")
    return res


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def run_loop(jobs: list[Job], seconds: int, trace: bool, out_dir: Path, expected: list | None):
    """Repeat the job list until ``seconds`` pass; return per-job result lists.

    Pass p is traced when tracing and p is even, so a traced run has an
    untraced pass between two traced ones at least, and drift of the box
    between passes does not bias the tracing overhead.  After those passes
    a job is skipped once its median wall time would run past ``seconds``.
    """
    untraced: list[list[dict]] = [[] for _ in jobs]
    traced: list[list[dict]] = [[] for _ in jobs]
    min_passes = 3 if trace else 1
    t0 = _monotonic()
    # Set-up probes: `farey --version` costs its set-up and nearly nothing else.
    def setup_probes():
        return [run_job(Job(["--version"], check_exit), None, None) for _ in range(SETUP_PROBES)]

    probes = setup_probes()
    p = 0
    while True:
        ran = False
        is_traced = trace and p % 2 == 0
        for j, job in enumerate(jobs):
            done = untraced[j] + traced[j]
            if p >= min_passes:
                est = statistics.median(r["wall"] for r in done)
                elapsed = _monotonic() - t0
                if elapsed + est > min(seconds, RUN_DEADLINE_S):
                    continue
            spans_file = out_dir / f"j{j}-r{len(traced[j])}.jsonl" if is_traced else None
            res = run_job(job, spans_file, expected[j] if expected else None)
            (traced if is_traced else untraced)[j].append(res)
            ran = True
        if not ran:
            break
        p += 1
    return untraced, traced, probes + setup_probes()


# ---------------------------------------------------------------------------
# spans -> layer numbers
# ---------------------------------------------------------------------------


def read_spans(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def layer_numbers(spans: list[dict], res: dict, f_size) -> dict:
    """Layer times and counts of one traced job execution."""
    n = len(spans)
    dur = [s["end"] - s["start"] for s in spans]
    child_time = [0.0] * n
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += dur[s["id"]]

    def outermost(s: dict) -> bool:
        p = s["parent"]
        while p >= 0:
            if spans[p]["name"] == s["name"]:
                return False
            p = spans[p]["parent"]
        return True

    incl: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    values: dict[str, int] = defaultdict(int)
    elements = 0
    for s in spans:
        name = s["name"]
        calls[name] += 1
        self_t[name] += dur[s["id"]] - child_time[s["id"]]
        if outermost(s):
            incl[name] += dur[s["id"]]
        if s["value"] is not None:
            values[name] += s["value"]
            if name in _STREAM_PASSES:
                elements += f_size(s["value"])
    scale = res["scale"]  # wall seconds -> seconds at nominal speed, as for job_s
    hits, misses, size = res["cache"]
    notes = res["parsed"]["endpoint_notes"] if isinstance(res.get("parsed"), dict) else 0
    numbers = {
        "farey.gap_histogram_s": incl["farey.gap_histogram"],
        "farey.count_delta_tuples_s": incl["farey.count_delta_tuples"],
        "farey.window_count_s": incl["farey.window_count"],
        "farey.calls": sum(c for k, c in calls.items() if k.startswith("farey.")),
        "stream_s": sum(incl[k] for k in _STREAM_PASSES),
        "stream_elements": elements,
        "farey.passes": sum(calls[k] for k in _STREAM_PASSES),
        "geometry.cylinder_s": incl["geometry.cylinder"],
        "geometry.cylinder_calls": calls["geometry.cylinder"],
        "cache_hits": hits,
        "geometry.cylinder_area_calls": hits + misses,
        "geometry.cylinder_area_cache_size": size,
        "density.rho_odd_self_s": self_t["density.rho_odd"],
        "density.rho_odd_cutoff": values["density.rho_odd"],
        "density.family_sum_upto_calls": calls["density.family_sum_upto"],
        "paths.families_s": incl["paths.families"],
        "lattice.decode_histogram_s": incl["lattice.decode_histogram"],
        "lattice.decoded_points": values["lattice.decode_histogram"],
        "lattice.boundary_window_histogram_s": incl["lattice.boundary_window_histogram"],
        "lattice.count_lattice_s": incl["lattice.count_lattice"],
        "lattice.count_lattice_interval_s": incl["lattice.count_lattice_interval"],
        "lattice.parity_profile_s": incl["lattice.parity_profile"],
        "lattice.verify_self_s": sum(self_t[k] for k in _VERIFY_FNS),
        "lattice.endpoint_notes": notes,
        "dynamics.orbit_kappas_s": incl["dynamics.orbit_kappas"],
        "cli.self_s": self_t["cli.main"],
        "cli.stdout_bytes": res["stdout_bytes"],
        "trace.spans": n,
    }
    return {k: v * scale if k.endswith("_s") else v for k, v in numbers.items()}


def per_layer_metrics(jobs, untraced, traced, out_dir: Path) -> tuple[dict, list[str]]:
    """Per-layer metrics of the workload: per job, the median time over the
    traced executions and the count of the first one; then summed over jobs."""
    sizes: dict[int, int] = {}

    def f_size(q: int) -> int:
        if q not in sizes:
            sizes[q] = farey_size(q)
        return sizes[q]

    flags = []
    total: dict[str, float] = defaultdict(int)
    cache_max = 0
    jobs_with_passes = 0
    for j, job in enumerate(jobs):
        execs = [layer_numbers(read_spans(out_dir / f"j{j}-r{r}.jsonl"), res, f_size)
                 for r, res in enumerate(traced[j]) if "cache" in res]
        if not execs:  # every traced run of the job failed; that is reported already
            continue
        for key in execs[0]:
            vals = [e[key] for e in execs]
            if key.endswith("_s"):
                total[key] += statistics.median(vals)
                continue
            if key in EXACT_COUNTS and len(set(vals)) > 1:
                flags.append(f"{key} did not repeat for `{job.label}`: {vals}")
            total[key] += vals[0]
        cache_max = max(cache_max, execs[0]["geometry.cylinder_area_cache_size"])
        jobs_with_passes += execs[0]["farey.passes"] > 0
        for r in untraced[j] + traced[j]:
            if r.get("stdout_bytes") not in (None, execs[0]["cli.stdout_bytes"]):
                flags.append(f"cli.stdout_bytes did not repeat for `{job.label}`")
                break

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    untraced_s = sum(statistics.median(r["job_s"] for r in rs) for rs in untraced)
    traced_s = sum(statistics.median(r["job_s"] for r in rs) for rs in traced)
    metrics = {name: total.get(name, 0) for name, *_ in PER_LAYER}
    metrics.update({
        "farey.elements_per_s": ratio(total["stream_elements"], total["stream_s"]),
        "farey.passes_per_job": ratio(total["farey.passes"], jobs_with_passes),
        "geometry.cylinder_area_hit_ratio": ratio(total["cache_hits"],
                                                  total["geometry.cylinder_area_calls"]),
        "geometry.cylinder_area_cache_size": cache_max,
        "lattice.decode_points_per_s": ratio(total["lattice.decoded_points"],
                                             total["lattice.decode_histogram_s"]),
        "trace.overhead_ratio": ratio(traced_s, untraced_s),
        "trace.unstable_counts": len(flags),
    })
    return metrics, flags


def end_to_end_metrics(untraced, probes, gen_s: float) -> tuple[dict, dict]:
    """End-to-end metrics, and the unscaled numbers behind them.

    Set-up does not depend on the job (argv is parsed inside main), so one
    median over every interpreter start of the run stands for each job.
    """
    med = statistics.median
    ok = [r for r in [r for rs in untraced for r in rs] + probes if "rc" in r]
    wall = {
        "job_s": sum(med(r["main_s"] for r in rs) for rs in untraced),
        "speed": med(r["speed"] for r in ok) if ok else None,
    }
    metrics = {
        "job_s": sum(med(r["job_s"] for r in rs) for rs in untraced),
        "setup_s": gen_s + len(untraced) * (med(r["setup_s"] for r in ok) if ok else 0.0),
        "peak_rss_mb": max(med(r["rss_kb"] for r in rs) for rs in untraced) / 1024,
    }
    return metrics, wall


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def run_context() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": Path("/proc/loadavg").read_text().split()[:3],
    }


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=RECORDED_SEEDS[0])
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "oddfarey" / "cli.py").is_file():
        print(f"error: no oddfarey sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    context = {"start": run_context()}
    compileall.compile_dir(str(ROOT / "src"), quiet=1)  # what an install would leave
    expected = load_expected()
    t = _monotonic()
    jobs = make_jobs(args.workload, args.seed, expected)
    gen_s = _monotonic() - t
    digests = expected["digests"].get(args.workload, {}).get(str(args.seed))

    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    untraced, traced, probes = run_loop(jobs, args.seconds, bool(args.trace), out_dir, digests)
    context["end"] = run_context()

    runs = [(job, r) for job, us, ts in zip(jobs, untraced, traced) for r in us + ts]
    runs += [(Job(["--version"], check_exit), r) for r in probes]
    problems = [f"`{job.label}`: {p}" for job, r in runs for p in r["problems"]]
    problems += CROSS_CHECKS.get(args.workload, lambda _: [])(jobs)
    attempted = len(runs)
    failed = sum(1 for _, r in runs if r["problems"])

    for job, us, ts in zip(jobs, untraced, traced):
        med = statistics.median(r["job_s"] for r in us)
        raw = statistics.median(r["main_s"] for r in us)
        print(f"job {job.label!r}: {len(us)} untraced, {len(ts)} traced run(s), "
              f"median main {med:.3f} s at nominal speed ({raw:.3f} s wall)")
    if args.trace:
        metrics, flags = per_layer_metrics(jobs, untraced, traced, out_dir)
        for f in flags:
            print(f"FLAG: {f}", file=sys.stderr)
        units = {name: unit for name, unit, *_ in PER_LAYER}
    else:
        metrics, context["wall"] = end_to_end_metrics(untraced, probes, gen_s)
        units = {name: unit for name, unit, _ in END_TO_END}
    print(f"context: {json.dumps(context)}")
    print(f"fail_ratio: {failed / attempted} ({failed} of {attempted} runs failed)")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    (out_dir / "context.json").write_text(json.dumps(context) + "\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
