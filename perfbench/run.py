"""Benchmark of `picfold verify`: wall, CPU, memory and in-process time.

Run from the repository root:

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 35 --trace 0

One client in a closed loop: the benchmark starts one fresh
``python -m picfold.cli verify ... --format json`` child at a time, and
starts the next only after the previous one has ended, until ``--seconds``
have passed.  ``--parallel`` is never used.  Each child is measured by
itself, from its own rusage.  Every report is compared with the expected
report of its workload (``perfbench/expected/``) apart from ``ms``; a
claim that differs, or every claim of a child that exits non-zero, counts
as failed.

Every time is reported at a fixed reference speed.  The host that runs the
benchmark lends its CPUs to others, and their speed drifts by up to half
over seconds to minutes, in wall and CPU time alike.  So the benchmark and
its children share one CPU, and every ``SAMPLE_PERIOD_S`` of a child's life
(``SETUP_SAMPLE_PERIOD_S`` for the short import children of ``setup_s``)
the benchmark stops the child, times a fixed reference computation on that
CPU and lets the child go on.  A child's time is its own time (wall time
without the stops) multiplied by ``REF_S`` over the mean reference time
measured during its life: the time it would have taken on a CPU that runs
the reference in ``REF_S``.  The raw median wall time and the median speed
factor are printed on the detail line.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics: one child runs under ``perfbench/tracer.py``, which wraps the
public functions of each layer from outside the package, and untraced
children fill the rest of the time, for the per-claim ms and the tracing
overhead.  Traced numbers never enter an end-to-end metric.

The workloads are deterministic: the checks are exhaustive and the claims
seed their own RNGs.  ``--seed`` sets the children's PYTHONHASHSEED, so a
seed fixes the run, and different seeds exercise the promise that reports
do not depend on hash order.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the machine block and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter, sleep

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

WORKLOADS = {
    "verify_all": ["verify", "all"],
    "moduli_sigma3": ["verify", "moduli", "--config", "perfbench/moduli_sigma3.cfg"],
    "configs_rank5": ["verify", "configs", "--rank-b", "5", "--rank-c", "4"],
}

SETUP_RUNS = 5
CHILD_TIMEOUT_S = 120  # keeps a run under 180 s even if a child hangs
SAMPLE_PERIOD_S = 0.1  # child running time between two reference timings
SETUP_SAMPLE_PERIOD_S = 0.02  # the same for an import, ~0.3 s long
# Typical time of reference() on the machine the benchmark was written on
# (2 vCPU Xeon 2.1 GHz); it only sets the scale of the reported times.
REF_S = 0.0025

# name -> (unit, better)
END_TO_END = {
    "verify_s": ("s", "lower"),
    "verify_cpu_s": ("s", "lower"),
    "claims_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "claims_ok_frac": ("ratio", "higher"),
}

# Spans measured from outside the package, "<module>.<function>" -> measures.
SPAN_MEASURES = {
    "rootsys.weyl_generate": ("calls", "self_s"),
    "rootsys.orbit": ("calls", "self_s"),
    "rootsys.restrict_to_basis": ("self_s",),
    "liealg.verify_jacobi": ("self_s",),
    "liealg.structure_constants": ("self_s",),
    "moduli.chi_injectivity_check": ("self_s",),
    "moduli.invariance_agreement_exhaustive": ("self_s",),
    "moduli.reconstruct_points": ("calls", "self_s"),
    "configs.enumerate_exceptional_systems": ("calls", "self_s"),
    "configs.simple_transitivity_check": ("self_s",),
    "configs.cubic_combinatorics": ("self_s",),
    "configs.triangle_stabilizer": ("self_s",),
    "folding.folded_weyl_group": ("calls", "self_s"),
    "folding.restricted_reflection_matrices": ("self_s",),
    "folding.folded_root_system": ("self_s",),
    "lattice.enumerate_classes": ("calls", "self_s"),
    "lattice.make_blowup_lattice": ("calls",),
    "_linalg.rational_solve": ("calls", "self_s"),
    "_linalg.smith_normal_form": ("calls", "self_s"),
    "abelian.solve_group_system": ("calls", "self_s"),
    "repbundles.g2_triple_locus": ("self_s",),
    "repbundles.wedge_locus": ("self_s",),
    "repbundles.spinor_locus": ("self_s",),
}

# Work counted by the tracer.
COUNTERS = (
    "rootsys.weyl_generate.elements",
    "liealg.verify_jacobi.triples",
    "moduli.chi_injectivity_check.domain",
    "moduli.chi_injectivity_check.orbits",
    "moduli.invariance_agreement_exhaustive.tuples",
    "configs.enumerate_exceptional_systems.systems",
    "lattice.enumerate_classes.emitted",
)

# Rates: name -> (counter, span whose busy time divides it).
RATES = {
    "liealg.verify_jacobi.triples_per_s": ("liealg.verify_jacobi.triples",
                                          "liealg.verify_jacobi"),
    "moduli.chi_injectivity_check.tuples_per_s": ("moduli.chi_injectivity_check.domain",
                                                 "moduli.chi_injectivity_check"),
}


def claim_metric(claim_id):
    return "claim." + re.sub(r"[^A-Za-z0-9_.-]", "-", claim_id) + ".ms"


def load_expected(workload):
    with open(BENCH / "expected" / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def claim_ids():
    """Every claim id, in report order; `verify all` runs all of them."""
    return [r["id"] for r in load_expected("verify_all")["results"]]


def per_layer_spec():
    """name -> (unit, better) for every per-layer metric, in a fixed order."""
    spec = {}
    for span, measures in SPAN_MEASURES.items():
        for m in measures:
            spec[f"{span}.{m}"] = ("count" if m == "calls" else "s", "lower")
    spec.update((name, ("count", "lower")) for name in COUNTERS)
    spec["rootsys.weyl_generate.repeat_frac"] = ("ratio", "lower")
    spec.update((name, ("1/s", "higher")) for name in RATES)
    spec["cli.self_s"] = ("s", "lower")
    spec["trace.overhead_frac"] = ("ratio", "lower")
    spec.update((claim_metric(cid), ("ms", "lower")) for cid in claim_ids())
    return spec


# -- children -------------------------------------------------------------------

def child_env(seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


_REF_MATRIX = np.arange(64, dtype=np.int64).reshape(8, 8) % 5


def reference():
    """Fixed work of the program's two kinds: dict updates on ints and
    products of small int64 matrices."""
    total, table = 0, {}
    for i in range(10000):
        k = (i * 7919) & 511
        table[k] = table.get(k, 0) + i
        total += k * k % 13
    a = _REF_MATRIX
    for _ in range(60):
        a = (a @ _REF_MATRIX) % 7
    return total + int(a.sum())


class Measured:
    """One finished child process, measured by itself.

    CPU time and peak RSS come from the child's own rusage (``wait4``;
    RUSAGE_CHILDREN would give a running maximum of ru_maxrss over every
    child so far).  Every ``period`` seconds the child is stopped while
    ``reference()`` is timed on the CPU it runs on.  ``wall_s`` is the
    child's running time without those stops, ``running`` the share of its
    elapsed time it was not stopped, and ``speed`` is REF_S over the mean
    reference time: multiplying a time by ``speed`` gives it at the
    reference speed.
    """

    def __init__(self, cmd, env, stdout, stderr, period=SAMPLE_PERIOD_S):
        paused, samples = 0.0, []
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=stdout, stderr=stderr)
        try:
            while True:
                sleep(period)
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if perf_counter() - t0 > CHILD_TIMEOUT_S:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                t_stop = perf_counter()
                os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                if not os.WIFSTOPPED(status):
                    break  # it ended before it stopped
                r0 = perf_counter()
                reference()
                samples.append(perf_counter() - r0)
                os.kill(proc.pid, signal.SIGCONT)
                paused += perf_counter() - t_stop
        except BaseException:
            proc.kill()  # also ends a stopped child
            proc.wait()
            raise
        elapsed = perf_counter() - t0
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        if not samples:  # ended within one period
            r0 = perf_counter()
            reference()
            samples.append(perf_counter() - r0)
        self.elapsed_s = elapsed
        self.wall_s = elapsed - paused
        self.running = self.wall_s / elapsed
        self.speed = REF_S / statistics.fmean(samples)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


class Child(Measured):
    """One ``picfold`` child and its JSON report."""

    def __init__(self, argv, env, workdir):
        self.out = Path(workdir) / "report.json"
        self.out.unlink(missing_ok=True)
        with open(Path(workdir) / "stderr.txt", "wb") as err:
            super().__init__(
                [sys.executable, *argv, "--format", "json", "--out", str(self.out)],
                env, subprocess.DEVNULL, err)
        try:
            self.report = json.loads(self.out.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.report = None

    def at_ref(self, seconds):
        """A time measured inside the child, without the stops, at the
        reference speed.  The stops come at even steps of running time, so
        each stretch of it holds its share of them."""
        return seconds * self.running * self.speed

    @property
    def verify_s(self):
        return self.wall_s * self.speed

    @property
    def verify_cpu_s(self):
        return self.cpu_s * self.speed

    @property
    def claims_s(self):
        return self.at_ref(sum(r["ms"] for r in self.report["results"]) / 1000.0)

    def failures(self, expected):
        """(attempted, failed) claims against the expected report."""
        want = expected["results"]
        if self.report is None or self.returncode != 0 or self.report.get("run") != expected["run"]:
            return len(want), len(want)
        got = [{k: v for k, v in r.items() if k != "ms"} for r in self.report["results"]]
        attempted = max(len(want), len(got))
        failed = sum(1 for i in range(attempted)
                     if i >= len(want) or i >= len(got) or got[i] != want[i])
        return attempted, failed


def run_verify(workload, env, workdir):
    return Child(["-m", "picfold.cli", *WORKLOADS[workload]], env, workdir)


def run_traced(workload, env, workdir):
    """A child under the layer tracer, with its spans as ``child.trace``."""
    trace_path = Path(workdir) / "trace.json"
    trace_path.unlink(missing_ok=True)
    child = Child([str(BENCH / "tracer.py"), str(trace_path), *WORKLOADS[workload]],
                  env, workdir)
    try:
        child.trace = json.loads(trace_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        child.trace = None
    return child


def time_setup(env):
    """Median wall time, at the reference speed, of a fresh interpreter
    importing picfold.cli.

    One untimed import first writes the bytecode cache, which a user pays
    for once.
    """
    argv = [sys.executable, "-c", "import picfold.cli"]
    times = []
    for i in range(SETUP_RUNS + 1):
        child = Measured(argv, env, subprocess.DEVNULL, None, SETUP_SAMPLE_PERIOD_S)
        if child.returncode != 0:
            raise RuntimeError(f"exit code {child.returncode}")
        if i:
            times.append(child.wall_s * child.speed)
    return statistics.median(times)


# -- metrics --------------------------------------------------------------------

def high_percentile(values):
    """Median, and the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values)}
    if n >= 11:
        out[f"p{100 * (n - 10) // n}"] = values[n - 11]
    return out


def end_to_end_metrics(children, setup_s, ok_frac):
    good = [c for c in children if c.report is not None]
    values = {
        "verify_s": statistics.median(c.verify_s for c in children),
        "verify_cpu_s": statistics.median(c.verify_cpu_s for c in children),
        "claims_s": statistics.median(c.claims_s for c in good),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in children),
        "claims_ok_frac": ok_frac,
    }
    return {k: {"value": values[k], "unit": END_TO_END[k][0]} for k in END_TO_END}


def layer_values(child):
    """Span, counter and rate metrics of one traced child, times at the
    reference speed."""
    trace = child.trace
    spans, counts = trace["spans"], trace["counts"]
    values = {}
    for span, measures in SPAN_MEASURES.items():
        for m in measures:
            v = spans[span][m]
            values[f"{span}.{m}"] = v if m == "calls" else child.at_ref(v)
    for name in COUNTERS:
        values[name] = counts.get(name, 0)
    closures = counts.get("rootsys.weyl_generate.closures", 0)
    values["rootsys.weyl_generate.repeat_frac"] = (
        counts.get("rootsys.weyl_generate.repeats", 0) / closures if closures else 0.0)
    for name, (counter, span) in RATES.items():
        busy = child.at_ref(spans[span]["busy_s"])
        values[name] = counts.get(counter, 0) / busy if busy else 0.0
    values["cli.self_s"] = child.at_ref(trace["cli_self_s"])
    return values


def per_layer_metrics(traced, untraced):
    """Medians over the traced children; per-claim ms from the untraced ones."""
    each = [layer_values(c) for c in traced]
    values = {k: statistics.median(v[k] for v in each) for k in each[0]}
    good = [c for c in untraced if c.report is not None]
    values["trace.overhead_frac"] = (
        statistics.median(c.claims_s for c in traced)
        / statistics.median(c.claims_s for c in good) - 1.0)
    per_claim = {}
    for c in good:
        for r in c.report["results"]:
            per_claim.setdefault(r["id"], []).append(c.at_ref(r["ms"]))
    for cid in claim_ids():
        ms = per_claim.get(cid)
        values[claim_metric(cid)] = statistics.median(ms) if ms else 0.0
    spec = per_layer_spec()
    return {k: {"value": values[k], "unit": spec[k][0]} for k in spec}


def machine_block(cpu):
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "load": "one client, closed loop, one child process at a time, "
                "benchmark and child on one CPU",
    }


# -- main -----------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "picfold" / "cli.py").is_file():
        print(f"picfold sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a SIGTERM unwinds like an exception, so no child is left stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # children inherit the CPU, so reference() times the CPU they run on
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    reference()  # warm-up
    expected = load_expected(args.workload)
    env = child_env(args.seed)
    try:
        setup_s = time_setup(env)
    except RuntimeError as exc:
        print(f"importing picfold failed: {exc}", file=sys.stderr)
        return 2

    children, traced = [], []
    start = perf_counter()

    def another():
        if not children or (args.trace and not traced):
            return True
        # start a child only if one of the usual length still ends in time
        usual = statistics.median(c.elapsed_s for c in children + traced)
        return perf_counter() - start + usual <= args.seconds

    attempted = failed = 0
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        while another():
            # traced and untraced children alternate, so that drift in the
            # machine's speed does not enter the tracing overhead
            if args.trace and len(traced) <= len(children):
                child = run_traced(args.workload, env, workdir)
                traced.append(child)
            else:
                child = run_verify(args.workload, env, workdir)
                children.append(child)
            a, f = child.failures(expected)
            attempted, failed = attempted + a, failed + f

    traced = [c for c in traced if c.report is not None and c.trace is not None]
    if not any(c.report for c in children) or (args.trace and not traced):
        print("no child produced a report", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer_metrics(traced, children)
    else:
        metrics = end_to_end_metrics(children, setup_s, 1.0 - failed / attempted)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_block(cpu),
        "children": len(children),
        "traced_children": len(traced),
        "verify_s": high_percentile([c.verify_s for c in children]),
        "raw_verify_s": statistics.median(c.wall_s for c in children),
        "speed": statistics.median(c.speed for c in children),
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
