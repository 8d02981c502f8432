"""Every public src name backs something, and every src import is used.

The modules are parsed with ``ast``, so a name that appears only in a
docstring or a comment does not count as a use.  A public top-level
function or class of ``src/picfold`` must be referenced by name from src
outside its own definition, be a span the benchmark measures (a
``SPAN_MEASURES`` key of ``perfbench/run.py``, read as
``test_benchmark_pins.py`` reads it), or be listed in ``TEST_ONLY`` with
the reason its tests keep it.
"""

import ast
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "picfold"
SPANS = set(runpy.run_path(str(ROOT / "perfbench" / "run.py"), run_name="perfbench_run")
            ["SPAN_MEASURES"])

# public names no src code calls, each kept for a fact its tests record
TEST_ONLY = {
    "_linalg.bareiss_det": "the exact determinants of the reconstruction systems M P",
    "configs.GConfiguration": "the defining conditions of a G-configuration, points included",
    "moduli.invariance_closed_form": "Q x = 0, checked per assignment against the direct form",
    "moduli.invariance_literal_c": "the pairwise C_n form, equivalent only for n = 2",
    "repbundles.dual": "the dual of a weight bundle, and its double dual",
    "repbundles.twisted_identity": "the twisted identity on a weight bundle",
}


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _referenced(node) -> set[str]:
    """The identifiers node reads: plain names and attribute names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_public_src_name_has_a_src_caller_a_span_or_a_reason():
    modules = _modules()
    defined = {}  # "<module>.<name>" -> its top-level definition
    for mod, tree in modules.items():
        for stmt in tree.body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                defined[f"{mod}.{stmt.name}"] = stmt
    used = set()  # names read by some top-level statement other than their own definition
    for mod, tree in modules.items():
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            used |= {name for name in _referenced(stmt) if name != own or
                     f"{mod}.{name}" not in defined}
    unbacked = sorted(key for key in defined
                      if key.split(".")[1] not in used and key not in SPANS
                      and key not in TEST_ONLY)
    assert unbacked == []
    # the list holds nothing that is used after all, or gone
    assert sorted(key for key in TEST_ONLY
                  if key not in defined or key.split(".")[1] in used) == []


def test_every_src_import_is_used():
    unused = []
    for mod, tree in _modules().items():
        lines = (SRC / f"{mod}.py").read_text(encoding="utf-8").splitlines()
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{mod}.{bound}")
    assert unused == []


def test_only_cases_reads_the_family_of_a_case():
    # every other module reads what a case's family implies from cases or folding
    readers = sorted(f"{mod}.py:{node.lineno}" for mod, tree in _modules().items() if mod != "cases"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr == "family")
    assert readers == []


def test_only_rootsys_closes_generators_with_schreier_sims():
    # src groups are CoxeterWeylGroups; weyl_generate serves the benchmark pin
    # (moduli imports it by name, which is not a call) and the tests' oracle
    callers = sorted(f"{mod}.py:{node.lineno}" for mod, tree in _modules().items()
                     if mod != "rootsys" for node in ast.walk(tree)
                     if isinstance(node, ast.Call)
                     and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
                     in ("weyl_generate", "WeylGroup"))
    assert callers == []
