"""The benchmark's job script runs the golden corpus and writes the golden outputs.

`perfbench/job.py` calls the engine's entry points positionally, in a fresh
process, for every benchmark workload; a signature it no longer matches
would otherwise show only as a benchmark run in which every stage fails.
It is run here as it is, on `tests/fixtures/golden`, serially and with a
pool, with the tiling baseline inside the job.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import CORPUS, EXPECTED, read_bytes, write_config

ROOT = Path(__file__).resolve().parent.parent
OUTPUTS = ("features.csv", "report.json", "baseline.csv")


@pytest.mark.parametrize("jobs", [1, 2])
def test_job_writes_golden_outputs(tmp_path, jobs):
    with open(CORPUS, encoding="utf-8") as fh:
        pairs = sum(1 for _ in fh)
    spec = {
        "config": write_config(str(tmp_path), "knn"),
        "corpus": CORPUS,
        "out_dir": str(tmp_path / "out"),
        "jobs": jobs,
        "baseline": "job",
        "pairs": pairs,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "job.py"), str(spec_path)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    result = json.loads(done.stdout)

    assert set(result["stages"]) == {
        "setup", "features", "crossval", "write", "baseline", "baseline_report"
    }
    for name, stage in result["stages"].items():
        assert (stage["failed"], stage["error"]) == (0, None), name
    for name in OUTPUTS:
        assert read_bytes(tmp_path / "out" / name) == read_bytes(os.path.join(EXPECTED, name)), name
