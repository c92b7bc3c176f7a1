"""Benchmark of `paraplag evaluate` on generated corpora.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates its corpus and resources from the seed into a temporary
directory under `.perfbench_work/`, then measures:

* `--trace 0`: evaluate jobs, each in a fresh process (`job.py`), repeated
  while the next should end within S seconds, and at least three.
  Throughputs and `job_s` sum the jobs' stage times, scaled to a reference
  host speed (see job.py); set-up, RSS and F1 are medians over the jobs.
* `--trace 1`: one job as above, then a traced serial pass in another fresh
  process (`traced.py`) for the per-layer metrics.  Spans are written to
  `.perfbench_out/<workload>.spans.jsonl`.

Every run checks the outputs (verbatim copies score 1.0, features lie in
[0, 1], repeated jobs agree, traced vectors equal untraced ones); a pair
that fails a check counts as failed.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
lines before it list every metric with its unit, the failed share, the
output hashes and any stage errors.  Metric names and units come from
`BENCHMARK.json`.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Why each workload exists is in README.md beside this file.  "baseline"
# says where the tiling baseline runs: inside the job (`evaluate
# --baseline`), or after the job's clock has stopped, so that a workload
# without it still reports tiling throughput.
WORKLOADS = {
    "answers-full": {"shape": "answers", "resources": True, "jobs": 1, "baseline": "after"},
    "answers-bare": {"shape": "answers", "resources": False, "jobs": 1, "baseline": "job"},
    "crowd-pool": {"shape": "crowd", "resources": True, "jobs": 2, "baseline": "job"},
}
MIN_JOBS = 3
# Every child must end in time for the whole run to finish within 180 s.
RUN_LIMIT_S = 170.0


def run_child(script, args, deadline):
    """(the child's last stdout line as JSON, None), or (None, reason).

    This process stays small (no numpy, no generated data): a child's
    RUSAGE_SELF peak can include the memory of the process it was forked
    from.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, script), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pool workers go too
        proc.communicate()
        return None, f"{script} timed out"
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.decode("utf-8", "replace").strip().splitlines()[-5:]
        return None, f"{script} exited {proc.returncode}: " + " | ".join(tail)
    return json.loads(lines[-1]), None


def run_spec(script, spec, work, deadline):
    path = os.path.join(work, f"spec-{os.path.basename(spec['out_dir'])}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return run_child(script, [path], deadline)


class Tally:
    """Attempted and failed pairs, over stages and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, name, attempted, failed, error=None):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.errors.append(f"{name}: {failed} of {attempted} failed" +
                               (f": {error.strip()}" if error else ""))


# Stages a job always reports; a job that died counts all their pairs failed.
JOB_STAGES = ("setup", "features", "crossval", "write", "baseline", "baseline_report")


def tally_job(tally, job, error, n_pairs, label):
    if job is None:
        for stage in JOB_STAGES:
            tally.add(f"{label} {stage}", n_pairs, n_pairs, error)
        return
    for stage, rec in job["stages"].items():
        tally.add(f"{label} {stage}", rec["attempted"], rec["failed"], rec["error"])


def check_vectors(tally, label, pairs, vectors, containments):
    """Features in [0, 1]; verbatim copies at exactly 1.0 everywhere."""
    if vectors is None:
        return
    bad = sum(1 for v in vectors if not all(math.isfinite(x) and 0.0 <= x <= 1.0 for x in v))
    tally.add(f"{label} check features in [0, 1]", len(vectors), bad)
    copies = [i for i, p in enumerate(pairs) if p["raw_category"] == "cut"]
    bad = sum(
        1 for i in copies
        if vectors[i] != [1.0, 1.0, 1.0] or (containments is not None and containments[i] != 1.0)
    )
    tally.add(f"{label} check verbatim copies score 1.0", len(copies), bad)


def check_equal(tally, name, n_pairs, reference, vectors) -> int:
    """Pairs whose vectors differ; a missing side fails every pair."""
    if reference is None or vectors is None:
        bad = n_pairs
    else:
        bad = sum(1 for a, b in zip(reference, vectors) if a != b) + abs(n_pairs - len(vectors))
    tally.add(name, n_pairs, bad)
    return bad


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _scaled(rec):
    """A stage's wall time at the reference host speed (see job.py)."""
    return rec["wall_s"] * rec["scale"]


def _rate(n_pairs, jobs, stage):
    """Pairs over scaled wall time, summed over the jobs where the stage succeeded."""
    walls = [_scaled(j["stages"][stage]) for j in jobs if not j["stages"][stage]["failed"]]
    return n_pairs * len(walls) / sum(walls) if walls else None


def _job_s(job):
    return sum(_scaled(job["stages"][name]) for name in job["job_stages"])


def end_to_end(jobs, n_pairs):
    # Work and time summed over the whole run vary less from run to run
    # than the median job; set-up, repeated once per job, is a median.
    ok = [j for j in jobs if j is not None]
    return {
        "setup_s": _median(_scaled(j["stages"]["setup"]) for j in ok),
        "features_pairs_per_s": _rate(n_pairs, ok, "features"),
        "baseline_pairs_per_s": _rate(n_pairs, ok, "baseline"),
        "job_s": statistics.mean(_job_s(j) for j in ok) if ok else None,
        "peak_rss_mb": _median(j["peak_rss_mb"] for j in ok),
        "worker_peak_rss_mb": _median(j["worker_peak_rss_mb"] for j in ok),
        "f1": _median(j["f1"] for j in ok),
        "baseline_f1": _median(j["baseline_f1"] for j in ok),
    }


def measure(args, wl, spec, pairs, work, deadline, tally):
    """trace 0: repeated untraced jobs; returns (metrics, detail)."""
    jobs = []
    started = time.monotonic()
    last = 0.0
    # Start another job only while it should end within the measuring time.
    while len(jobs) < MIN_JOBS or time.monotonic() + last - started <= args.seconds:
        if jobs and time.monotonic() + last > deadline:
            break
        t0 = time.monotonic()
        job, error = run_spec(
            "job.py", dict(spec, out_dir=os.path.join(work, f"job{len(jobs)}")), work, deadline
        )
        last = time.monotonic() - t0
        label = f"job {len(jobs)}"
        tally_job(tally, job, error, len(pairs), label)
        if job is not None:
            check_vectors(tally, label, pairs, job["vectors"], job["containments"])
            if jobs and jobs[0] is not None:
                check_equal(tally, f"{label} check same vectors as job 0", len(pairs),
                            jobs[0]["vectors"], job["vectors"])
        jobs.append(job)
    metrics = end_to_end(jobs, len(pairs))
    digests = {}
    for job in jobs:
        for name, digest in (job or {}).get("sha256", {}).items():
            if digest is not None:
                digests.setdefault(name, set()).add(digest)
    for name, seen in digests.items():
        tally.add(f"check {name} identical in every job", len(pairs),
                  len(pairs) if len(seen) > 1 else 0)
    detail = {"jobs": len(jobs), "sha256": {n: sorted(d) for n, d in sorted(digests.items())}}
    detail["per_job"] = [
        {name: [rec["wall_s"], rec["scale"]] for name, rec in j["stages"].items()}
        for j in jobs if j is not None
    ]
    return metrics, detail


def trace(args, wl, spec, pairs, work, deadline, tally):
    """trace 1: one untraced job, then the traced pass; per-layer metrics."""
    job, error = run_spec("job.py", dict(spec, out_dir=os.path.join(work, "job")), work, deadline)
    tally_job(tally, job, error, len(pairs), "job")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    traced_spec = dict(spec, out_dir=os.path.join(work, "traced"),
                       spans_path=os.path.join(out_dir, f"{args.workload}.spans.jsonl"))
    result, terror = run_spec("traced.py", traced_spec, work, deadline)
    if result is None:
        tally.add("traced pass", len(pairs), len(pairs), terror)
        return {}, {}
    tally.add("traced pass", len(pairs), 0)
    metrics = dict(result["metrics"])
    metrics["trace.vector_mismatches"] = check_equal(
        tally, "check traced vectors equal the job's", len(pairs),
        job["vectors"] if job else None, result["vectors"])
    if job is None:
        return metrics, {}
    check_vectors(tally, "job", pairs, job["vectors"], job["containments"])
    for stage, key in (("features", "serial_features_s"), ("baseline", "serial_baseline_s")):
        rec = job["stages"][stage]
        if not rec["failed"]:
            metrics[f"engine.{stage}_fanout"] = result[key] / (wl["jobs"] * rec["wall_s"])
    return metrics, {"sha256": {n: [d] for n, d in sorted(job["sha256"].items()) if d}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "paraplag", "__init__.py")):
        print(f"perfbench: no paraplag sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    section = bench["per_layer"] if args.trace else bench["end_to_end"]
    names_units = [(m["name"], m["unit"]) for m in section]

    wl = WORKLOADS[args.workload]
    parent = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(parent, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=parent)
    try:
        paths, error = run_child(
            "corpusgen.py", [wl["shape"], str(args.seed), os.path.join(work, "inputs")], deadline
        )
        if paths is None:
            print(f"perfbench: input generation failed: {error}", file=sys.stderr)
            return 2
        resources = {k: paths[k] for k in ("lexdb_dir", "ic_file", "embedding_file",
                                          "embedding_format")}
        config_path = os.path.join(work, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(resources if wl["resources"] else {}, fh)
        with open(paths["corpus"], encoding="utf-8") as fh:
            pairs = [json.loads(line) for line in fh]
        spec = {"config": config_path, "corpus": paths["corpus"], "pairs": len(pairs),
                "jobs": wl["jobs"], "baseline": wl["baseline"], "resources": resources}
        tally = Tally()
        step = trace if args.trace else measure
        values, detail = step(args, wl, spec, pairs, work, deadline, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in names_units}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} pairs={len(pairs)}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']!r:>24} {m['unit']}")
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_share':32s} {share!r:>24} ratio ({tally.failed} of {tally.attempted})")
    for name, digests in detail.get("sha256", {}).items():
        print(f"  sha256 {name:25s} {' '.join(digests)}")
    for error in tally.errors:
        print(f"  FAILED {error}")
    print("detail " + json.dumps(detail, sort_keys=True))
    missing = [n for n, m in metrics.items() if m["value"] is None]
    result = {
        "correct": tally.failed == 0 and not missing,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
