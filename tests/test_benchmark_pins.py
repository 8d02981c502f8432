"""The names the benchmark in ``perfbench/`` binds to.

``perfbench/run.py`` measures spans named ``<module>.<function>``, and
``perfbench/tracer.py`` binds ``weyl_generate``'s arguments by name and
relies on ``moduli`` importing it by name.  A rename fails here, in the
quick suite, not only in the benchmark's own minute-long self-test.
``run.py`` is executed as a plain module, without its ``main``.
"""

import importlib
import inspect
import runpy
from pathlib import Path

from picfold import moduli, rootsys

RUN = runpy.run_path(str(Path(__file__).resolve().parent.parent / "perfbench" / "run.py"),
                     run_name="perfbench_run")


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
