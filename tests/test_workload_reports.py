"""The benchmark workloads' reports, checked in the quick suite.

Each workload of ``perfbench/run.py`` (``WORKLOADS``) runs once through
the CLI in a fresh process, and its JSON report must equal
``perfbench/expected/<workload>.json`` apart from ``ms``.  A changed
witness or status thus fails here, not only in the benchmark.  The
expected files are only read.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _perfbench_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _perfbench_run()


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_report_matches_expected(workload, tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "picfold.cli", *run.WORKLOADS[workload],
         "--format", "json", "--out", str(out)],
        cwd=run.ROOT, env=run.child_env(0), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    for result in report["results"]:
        del result["ms"]
    assert report == run.load_expected(workload)
