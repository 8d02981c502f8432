"""Layer tracer for picfold, applied from outside the package.

Usage, from the repository root with ``src`` on ``PYTHONPATH``:

    python perfbench/tracer.py TRACE_OUT verify <suite> [picfold options]

The tracer wraps every public function of each layer module, and every
claim that ``picfold.cli`` runs, in a span.  It then runs
``picfold.cli.main`` with the remaining arguments and writes the spans
(calls, busy seconds, self seconds) and a few work counters to TRACE_OUT
as JSON.  The package itself is not changed.  The layer modules import
each other's functions by name (``from .rootsys import weyl_generate``),
so a wrapper is bound over every ``picfold.*`` module global that *is* a
target function, not only over the defining module's attribute.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("_linalg", "abelian", "lattice", "rootsys", "folding", "configs",
          "moduli", "liealg", "repbundles")


class Tracer:
    """Spans with self time, kept in memory.

    A span's self time is its duration minus the time of the spans nested
    in it.  Busy time counts only the outermost span of a function, so a
    function that reaches itself again is not counted twice.  Everything
    runs on one thread.
    """

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.counts: dict[str, int] = {}
        self.cli_self_s = 0.0    # claim time under no layer span
        self.top_level_s = 0.0   # layer spans directly under a claim span
        self._stack: list[list] = []  # [time of nested spans, is a claim]
        self._active: dict[str, int] = {}
        self._closures: set = set()
        self._bound: list[tuple] = []  # (module, name, original)
        self.originals: dict[int, tuple[str, object]] = {}

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    # -- spans --------------------------------------------------------------

    def _enter(self, claim):
        self._stack.append([0.0, claim])
        return perf_counter()

    def _exit(self, t0, name):
        dur = perf_counter() - t0
        nested, claim = self._stack.pop()
        if claim:
            self.cli_self_s += dur - nested
        else:
            rec = self.spans[name]
            rec[0] += 1
            rec[2] += dur - nested
            self._active[name] -= 1
            if not self._active[name]:
                rec[1] += dur
            if self._stack and self._stack[-1][1]:
                self.top_level_s += dur
        if self._stack:
            self._stack[-1][0] += dur

    def wrap(self, name, fn, after=None, prepare=None):
        self.spans.setdefault(name, [0, 0.0, 0.0])
        self._active.setdefault(name, 0)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(self, args, kwargs)
            self._active[name] += 1
            t0 = self._enter(False)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(t0, name)
            if after is not None:
                after(self, result)
            return result

        return span

    def wrap_claim(self, fn):
        @functools.wraps(fn)
        def claim(*args, **kwargs):
            t0 = self._enter(True)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(t0, None)

        return claim

    # -- binding ------------------------------------------------------------

    def install(self):
        """Bind a span over every picfold global that is a target function."""
        cli = importlib.import_module("picfold.cli")
        for layer in LAYERS:
            mod = importlib.import_module(f"picfold.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_")
                        and getattr(obj, "__module__", None) == mod.__name__
                        and inspect.isfunction(inspect.unwrap(obj))):
                    self.originals[id(obj)] = (f"{layer}.{attr}", obj)
        wrappers = {}
        for key, (name, obj) in self.originals.items():
            extra = _HOOKS.get(name, {})
            wrappers[key] = self.wrap(name, obj, **extra)
        for mod in _picfold_modules():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in self.originals and self.originals[id(obj)][1] is obj:
                    self._bound.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        run_claims = cli._run_claims
        self._bound.append((cli, "_run_claims", run_claims))
        cli._run_claims = lambda claims: run_claims(
            [(cid, self.wrap_claim(fn)) for cid, fn in claims])
        return self

    def uninstall(self):
        for mod, attr, obj in reversed(self._bound):
            setattr(mod, attr, obj)
        self._bound.clear()

    def unbound(self):
        """picfold globals that still hold an unwrapped target function."""
        return [f"{mod.__name__}.{attr}"
                for mod in _picfold_modules()
                for attr, obj in vars(mod).items()
                if id(obj) in self.originals and self.originals[id(obj)][1] is obj]

    def as_dict(self):
        return {
            "spans": {name: {"calls": c, "busy_s": b, "self_s": s}
                      for name, (c, b, s) in sorted(self.spans.items())},
            "counts": dict(sorted(self.counts.items())),
            "cli_self_s": self.cli_self_s,
            "top_level_s": self.top_level_s,
        }


def _picfold_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "picfold" or n.startswith("picfold."))]


# -- work counters ------------------------------------------------------------

def _closure_key(tracer, args, kwargs):
    """Materialise the generators once, and note whether this closure repeats.

    The key is the generator-stack bytes and the cap, which is what the
    closure depends on.
    """
    import numpy as np
    from picfold import rootsys

    bound = inspect.signature(rootsys.weyl_generate).bind(*args, **kwargs)
    bound.apply_defaults()
    gens = list(bound.arguments["gens"])
    bound.arguments["gens"] = gens
    if gens:
        stack = np.stack([g.mat for g in gens]).astype(np.int64)
        key = (stack.shape, stack.tobytes(), bound.arguments["cap"])
    else:
        key = ((), b"", bound.arguments["rank"])
    tracer.count("rootsys.weyl_generate.closures")
    if key in tracer._closures:
        tracer.count("rootsys.weyl_generate.repeats")
    tracer._closures.add(key)
    return bound.args, bound.kwargs


def _counter(key, measure):
    return lambda tracer, result: tracer.count(key, measure(result))


def _chi_counts(tracer, report):
    tracer.count("moduli.chi_injectivity_check.domain", report.domain_size)
    tracer.count("moduli.chi_injectivity_check.orbits", report.orbits_checked)


_HOOKS = {
    "rootsys.weyl_generate": {
        "prepare": _closure_key,
        "after": _counter("rootsys.weyl_generate.elements", len),
    },
    "liealg.verify_jacobi": {
        "after": _counter("liealg.verify_jacobi.triples", lambda r: r.triples_checked),
    },
    "moduli.chi_injectivity_check": {"after": _chi_counts},
    "moduli.invariance_agreement_exhaustive": {
        "after": _counter("moduli.invariance_agreement_exhaustive.tuples", int),
    },
    "configs.enumerate_exceptional_systems": {
        "after": _counter("configs.enumerate_exceptional_systems.systems", len),
    },
    "lattice.enumerate_classes": {
        "after": _counter("lattice.enumerate_classes.emitted", len),
    },
}


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    trace_out, cli_args = argv[0], argv[1:]
    from picfold import cli

    tracer = Tracer().install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.as_dict(), fh, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
