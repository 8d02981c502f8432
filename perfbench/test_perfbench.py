"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q

It takes about a minute: every workload runs once.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer

sys.path.insert(0, str(run.ROOT / "src"))

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _without_ms(report):
    return [{k: v for k, v in r.items() if k != "ms"} for r in report["results"]]


def test_benchmark_json_matches_the_benchmark():
    spec = _spec()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert len(spec["end_to_end"]) <= 16 and len(spec["per_layer"]) <= 128
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.per_layer_spec()
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_a_sampled_child_is_timed_without_its_stops():
    child = run.Measured([sys.executable, "-c", "sum(range(2 * 10**7))"],
                         run.child_env(0), subprocess.DEVNULL, None)
    assert child.returncode == 0
    assert 0 < child.wall_s < child.elapsed_s and 0 < child.running < 1
    assert child.speed > 0 and child.cpu_s > 0


def test_tracer_leaves_no_unwrapped_binding():
    from picfold import moduli, rootsys

    t = tracer.Tracer().install()
    try:
        assert t.unbound() == []
        names = {name for name, _ in t.originals.values()}
        assert set(run.SPAN_MEASURES) <= names
        # imported by name into another module, so rebound there too
        assert moduli.weyl_generate is rootsys.weyl_generate
        assert hasattr(moduli.weyl_generate, "__wrapped__")
    finally:
        t.uninstall()
    assert not hasattr(moduli.weyl_generate, "__wrapped__")


def test_traced_report_equals_untraced_and_spans_add_up():
    env = run.child_env(0)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as workdir:
        plain = run.run_verify("verify_all", env, workdir)
        traced = run.run_traced("verify_all", env, workdir)
    assert plain.returncode == traced.returncode == 0
    assert _without_ms(traced.report) == _without_ms(plain.report)
    assert traced.report["run"] == plain.report["run"]
    total = traced.trace["top_level_s"] + traced.trace["cli_self_s"]
    claims_s = sum(r["ms"] for r in traced.report["results"]) / 1000.0
    assert abs(total - claims_s) <= 0.01 * claims_s


def test_every_workload_passes():
    for workload in run.WORKLOADS:
        out = _result(_bench("--workload", workload, "--seed", "0", "--seconds", "0"))
        assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
        assert set(out["metrics"]) == set(run.END_TO_END)
        assert out["metrics"]["claims_ok_frac"]["value"] == 1.0


def test_trace_run_reports_every_per_layer_metric():
    out = _result(_bench("--workload", "moduli_sigma3", "--seed", "0", "--seconds", "0",
                         "--trace", "1"))
    assert out["correct"] and out["failed"] == 0
    assert list(out["metrics"]) == list(run.per_layer_spec())


def test_fails_without_the_program():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "verify_all", "--seed", "0", "--seconds", "1", cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
