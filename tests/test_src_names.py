"""Every public src name backs something, and every src import is used.

The modules are parsed with ``ast``, so a name that appears only in a
docstring or a comment does not count as a use.  A public top-level
function or class of ``src/picfold`` must be referenced by name from src
outside its own definition, be a span the benchmark measures (a
``SPAN_MEASURES`` key of ``perfbench/run.py``, read as
``test_benchmark_pins.py`` reads it), or be listed in ``TEST_ONLY`` with
the reason its tests keep it.

A public method or property of a public src class counts as used only when
a src statement outside its own definition reads it as an attribute
(``.name``), or when it is listed in ``TEST_ONLY`` as
``module.Class.method``; a listed class covers its own methods.  Methods
are matched by attribute name alone, whatever the class of the object read
from, so a method escapes the rule when src reads another method of the
same name: a ``validate`` method of one class went unflagged while src
called the ``validate`` of another.
"""

import ast
import runpy
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "picfold"
SPANS = set(runpy.run_path(str(ROOT / "perfbench" / "run.py"), run_name="perfbench_run")
            ["SPAN_MEASURES"])

# public names no src code calls, each kept for a fact its tests record
TEST_ONLY = {
    "_linalg.bareiss_det": "the exact determinants of the reconstruction systems M P",
    "configs.GConfiguration": "the defining conditions of a G-configuration, points included",
    "rootsys.reflect": "the reference the reflection matrices and double-six roots are checked on",
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


def _public_methods(modules):
    """Map "<module>.<Class>.<method>" to each public method of a public class."""
    return {f"{mod}.{cls.name}.{fn.name}": fn for mod, tree in modules.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")}


def _attribute_reads(node) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


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
    assert sorted(key for key in TEST_ONLY if key.count(".") == 1
                  and (key not in defined or key.split(".")[1] in used)) == []


def test_every_public_src_method_is_read_outside_its_definition_or_has_a_reason():
    modules = _modules()
    methods = _public_methods(modules)
    reads = sum((_attribute_reads(tree) for tree in modules.values()), Counter())
    # a read inside the method's own body (recursion) does not count
    used = {key for key, fn in methods.items()
            if reads[fn.name] > _attribute_reads(fn)[fn.name]}
    unbacked = sorted(key for key in methods if key not in used and key not in TEST_ONLY
                      and key.rsplit(".", 1)[0] not in TEST_ONLY)
    assert unbacked == []
    # no method entry is used after all, or gone
    assert sorted(key for key in TEST_ONLY if key.count(".") == 2
                  and (key not in methods or key in used)) == []


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


def test_no_src_module_holds_an_assert_statement():
    # a claim's check must survive python -O, which strips assert statements
    asserts = sorted(f"{mod}.py:{node.lineno}" for mod, tree in _modules().items()
                     for node in ast.walk(tree) if isinstance(node, ast.Assert))
    assert asserts == []


# "<module>.<Class>.<field>" -> why a record field that no src module reads is kept
UNREAD_FIELDS = {
    "abelian.GroupSolveStack.particular": "the solution per image that test_abelian compares "
                                          "with the one-row solves",
    "repbundles.F4RepDecomposition.common_class": "the common class (1, -(x1 + x6)) of the zero "
                                                  "lines, which the decomposition tests record",
    "repbundles.F4RepDecomposition.kernel_det": "the determinant of the trace kernel, which the "
                                                "decomposition tests record",
    "liealg.StructureConstantTable.positive": "the height order of the positive roots, which "
                                              "test_liealg compares with the Fraction oracle",
    "liealg.StructureConstantTable.extraspecial": "the extraspecial pairs, which test_liealg "
                                                  "compares with the oracle and test_cli breaks",
}


def _records(modules):
    """Map each src NamedTuple class name to (module, its field names)."""
    return {cls.name: (mod, [stmt.target.id for stmt in cls.body if isinstance(stmt, ast.AnnAssign)])
            for mod, tree in modules.items() for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            and any(getattr(base, "id", None) == "NamedTuple" for base in cls.bases)}


def _annotation_name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "value", None)


def _wholly_read_records(modules, records) -> set[str]:
    """Records whose every field src reads at once: by ``_asdict()`` or by unpacking.

    An expression is known to hold a record when it is a parameter
    annotated with the record's class, or a call of the class or of a src
    function whose return annotation names it.
    """
    returns = {fn.name: _annotation_name(fn.returns) for tree in modules.values()
               for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.returns}
    out = set()
    for tree in modules.values():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            params = {a.arg: _annotation_name(a.annotation) for a in fn.args.args if a.annotation}

            def record_of(expr):
                if isinstance(expr, ast.Name):
                    return params.get(expr.id)
                if isinstance(expr, ast.Call):
                    name = _annotation_name(expr.func)
                    return name if name in records else returns.get(name)
                return None

            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "_asdict"):
                    out.add(record_of(node.func.value))
                elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Tuple)
                                                          for t in node.targets):
                    out.add(record_of(node.value))
    return out & records.keys()


def test_whole_record_reads_are_detected_in_each_form():
    # one record per form the guard accepts, and two it does not: a record
    # unpacked in a for-loop target, and one whose value src never holds
    source = '''
from typing import NamedTuple

class Dumped(NamedTuple):
    a: int

class Built(NamedTuple):
    a: int
    b: int

class Returned(NamedTuple):
    a: int
    b: int

class Looped(NamedTuple):
    a: int
    b: int

class Unread(NamedTuple):
    a: int
    b: int

def make() -> Returned:
    return Returned(1, 2)

def dump(rec: Dumped):
    return rec._asdict()

def unpack():
    a, b = Built(1, 2)
    c, d = make()
    for e, f in [Looped(1, 2)]:
        pass
    return Unread(a, c)
'''
    modules = {"toy": ast.parse(source)}
    records = _records(modules)
    assert sorted(records) == ["Built", "Dumped", "Looped", "Returned", "Unread"]
    assert _wholly_read_records(modules, records) == {"Dumped", "Built", "Returned"}


def test_every_record_field_is_read_by_src_or_has_a_reason():
    modules = _modules()
    records = _records(modules)
    reads = sum((_attribute_reads(tree) for tree in modules.values()), Counter())
    whole = _wholly_read_records(modules, records)
    fields = {f"{mod}.{cls}.{field}" for cls, (mod, names) in records.items() for field in names}
    unread = sorted(key for key in fields if not reads[key.rsplit(".", 1)[1]]
                    and key.split(".")[1] not in whole and key not in UNREAD_FIELDS)
    assert unread == []
    # no entry names a field that src reads after all, or one that is gone
    assert sorted(key for key in UNREAD_FIELDS if key not in fields
                  or reads[key.rsplit(".", 1)[1]] or key.split(".")[1] in whole) == []
