"""The names the benchmark in ``perfbench/`` binds to.

``perfbench/run.py`` measures spans named ``<module>.<function>``, and
``perfbench/tracer.py`` binds ``weyl_generate``'s arguments by name and
relies on ``moduli`` importing it by name.  Its work counters take the
``len`` of what a span returns.  A rename or a broken counter fails here,
in the quick suite, not only in the benchmark's own minute-long self-test.
``run.py`` is executed as a plain module, without its ``main``.
"""

import importlib
import importlib.util
import inspect
import runpy
from pathlib import Path

from picfold import cli, configs, moduli, rootsys

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RUN = runpy.run_path(str(PERFBENCH / "run.py"), run_name="perfbench_run")


def test_every_measured_span_is_a_public_function_of_its_module():
    missing = []
    for span in RUN["SPAN_MEASURES"]:
        module, name = span.split(".")
        mod = importlib.import_module(f"picfold.{module}")
        fn = getattr(mod, name, None)
        if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
            missing.append(span)
    assert missing == []


def test_weyl_generate_binds_gens_cap_and_rank():
    bound = inspect.signature(rootsys.weyl_generate).bind([], cap=1, rank=2)
    assert set(bound.arguments) == {"gens", "cap", "rank"}
    assert moduli.weyl_generate is rootsys.weyl_generate


def test_tracer_counts_the_systems_the_configs_claims_enumerate(tmp_path, capsys):
    # the tracer wraps ``verify configs`` in process; the counter must be
    # the total size of what the claims' calls returned
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    original = configs.enumerate_exceptional_systems
    tracer = tracer_module.Tracer().install()
    try:
        assert tracer.unbound() == []
        span, sizes = configs.enumerate_exceptional_systems, []

        def recorded(*args, **kwargs):
            systems = span(*args, **kwargs)
            sizes.append(len(systems))
            return systems

        configs.enumerate_exceptional_systems = recorded
        code = cli.main(["verify", "configs", "--format", "json", "--out", str(tmp_path / "r.json")])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0 and configs.enumerate_exceptional_systems is original
    assert sizes and tracer.counts["configs.enumerate_exceptional_systems.systems"] == sum(sizes)
