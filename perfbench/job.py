"""One untraced `paraplag evaluate` job, run in a fresh process.

Usage: python job.py SPEC_JSON

The spec names the config file, the JSON-lines corpus, the output
directory, the worker count, and where the tiling baseline runs: "job"
(inside the job, as `evaluate --baseline`) or "after" (once the job's clock
has stopped).  The job calls paraplag's public API in the order `paraplag evaluate`
does, times each stage from outside, and prints one JSON line: stage wall
times with attempted and failed pair counts, peak RSS, F1 values, output
file hashes, and the vectors and containments for the caller's checks.

A stage that raises fails all of its pairs; stages that need its result
are skipped and fail theirs, and the rest still run and report.

On a shared host the CPU's speed swings by a fifth and more, in phases of
tens of seconds.  A fixed pure-Python loop is timed before the job and
after every stage, and each stage records a scale: PROBE_REFERENCE_S over
the mean of the probes on either side of it.  Wall time times scale is
what the stage would take on a host that runs the loop in
PROBE_REFERENCE_S (about this benchmark's development host in its fast
phases).  Probe time is outside every stage and so outside the job's time.
"""

import time

PROBE_LOOPS = 300_000
PROBE_REFERENCE_S = 0.02


def probe() -> float:
    """Seconds the fixed loop takes now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - t0


FIRST_PROBE = probe()
# Set-up is timed from here, before paraplag (and numpy) is imported,
# because every `paraplag evaluate` run pays for the import.
START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from paraplag.classify import cross_validate, report_to_json  # noqa: E402
from paraplag.config import build_stores, classifier_spec, load_config  # noqa: E402
from paraplag.corpus import load_pairs_jsonl  # noqa: E402
from paraplag.engine import (  # noqa: E402
    baseline_containments,
    baseline_csv_rows,
    extract_features,
    labelled_dataset,
    threshold_report,
    write_feature_csv,
)

OUTPUTS = ("features.csv", "report.json", "baseline.csv")


class Stages:
    """Wall time, host-speed scale and attempted/failed pairs per stage."""

    def __init__(self, pairs: int):
        self.pairs = pairs
        self.records: dict[str, dict] = {}
        self.last_probe = FIRST_PROBE

    def run(self, name, fn, *args, since=None):
        """fn's result, or None after recording why it raised.

        The stage is timed from ``since`` when given, else from now.
        """
        t0 = time.perf_counter() if since is None else since
        error = None
        try:
            result = fn(*args)
        except Exception:  # the job reports a failed stage and goes on
            result = None
            error = traceback.format_exc(limit=4)
        wall = time.perf_counter() - t0
        after = probe()
        scale = 2.0 * PROBE_REFERENCE_S / (self.last_probe + after)
        self.last_probe = after
        self._record(name, wall, scale, error)
        return result

    def skip(self, name, reason: str) -> None:
        self._record(name, 0.0, 1.0, f"skipped: {reason}")

    def _record(self, name, wall, scale, error):
        self.records[name] = {
            "wall_s": wall,
            "scale": scale,
            "attempted": self.pairs,
            "failed": self.pairs if error else 0,
            "error": error,
        }


def _setup(spec):
    config = load_config(spec["config"])
    pairs = load_pairs_jsonl(spec["corpus"])
    # With a pool, `paraplag evaluate` loads no stores in the parent; the
    # workers load their own inside extract_features.
    stores = build_stores(config) if spec["jobs"] == 1 else None
    return config, pairs, stores


def _write_report(path, report) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(report))
        fh.write("\n")


def _cross_validate(config, pairs, vectors):
    dataset = labelled_dataset(pairs, vectors)
    return cross_validate(dataset, classifier_spec(config), k=config.folds, seed=config.seed)


def _write_features(out, pairs, vectors, report) -> None:
    _write_report(os.path.join(out, "report.json"), report)
    write_feature_csv(os.path.join(out, "features.csv"), pairs, vectors)


def _baseline_report(out, config, pairs, containments):
    labels = [p.is_paraphrased for p in pairs]
    report = threshold_report(containments, labels, config.gst_threshold)
    _write_report(os.path.join(out, "baseline.json"), report)
    baseline_csv_rows(os.path.join(out, "baseline.csv"), pairs, containments)
    return report


def _baseline(stages, spec, config, pairs):
    """(containments, report), None for each that did not come out."""
    if config is None:
        stages.skip("baseline", "setup failed")
        stages.skip("baseline_report", "setup failed")
        return None, None
    containments = stages.run("baseline", baseline_containments, pairs, config, spec["jobs"])
    if containments is None:
        stages.skip("baseline_report", "baseline failed")
        return None, None
    report = stages.run(
        "baseline_report", _baseline_report, spec["out_dir"], config, pairs, containments
    )
    return containments, report


def _sha256(path):
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(spec) -> dict:
    out = spec["out_dir"]
    os.makedirs(out, exist_ok=True)
    stages = Stages(spec["pairs"])
    config = pairs = vectors = report = containments = breport = None

    loaded = stages.run("setup", _setup, spec, since=START)
    if loaded is None:
        for name in ("features", "crossval", "write"):
            stages.skip(name, "setup failed")
    else:
        config, pairs, stores = loaded
        vectors = stages.run("features", extract_features, pairs, config, spec["jobs"], stores)
        if vectors is None:
            stages.skip("crossval", "features failed")
            stages.skip("write", "features failed")
        else:
            report = stages.run("crossval", _cross_validate, config, pairs, vectors)
            if report is None:
                stages.skip("write", "crossval failed")
            else:
                stages.run("write", _write_features, out, pairs, vectors, report)
    if spec["baseline"] == "job":
        containments, breport = _baseline(stages, spec, config, pairs)
    job_stages = list(stages.records)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if spec["baseline"] == "after":
        containments, breport = _baseline(stages, spec, config, pairs)

    return {
        "stages": stages.records,
        # the evaluate job proper: its stages' times add up to the job's
        "job_stages": job_stages,
        "peak_rss_mb": self_rss,
        # With one job the parent scores every pair itself.
        "worker_peak_rss_mb": children_rss if spec["jobs"] > 1 else self_rss,
        "f1": report.f1 if report is not None else None,
        "baseline_f1": breport.f1 if breport is not None else None,
        "sha256": {name: _sha256(os.path.join(out, name)) for name in OUTPUTS},
        "vectors": [[v.semantic, v.syntactic, v.insdel] for v in vectors] if vectors else None,
        "containments": containments,
    }


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        print(json.dumps(main(json.load(fh))))
