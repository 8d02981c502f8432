"""The records keep the semantics their callers rely on, and no src module needs ``dataclasses``.

``DivisorClass``, ``IntersectionLattice``, ``WeylElement``, ``SigmaModel``
and ``PointAssignment`` are hand-written classes, the plain results are
``typing.NamedTuple``s, and a fresh ``import picfold.cli`` loads no
``dataclasses``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from picfold import cli, configs, lattice
from picfold.abelian import SigmaModel
from picfold.lattice import F1, P2, DivisorClass, make_blowup_lattice
from picfold.moduli import PointAssignment
from picfold.rootsys import WeylElement
from under_optimize import run_under_optimize

SRC = Path(__file__).resolve().parent.parent / "src" / "picfold"


def test_divisor_class_hashes_and_orders_by_its_coordinates():
    a, b = DivisorClass((0, 1, -1)), DivisorClass((0, 2, -3))
    assert hash(a) == hash((0, 1, -1)) and hash(DivisorClass((0, 1, -1))) == hash(a)
    assert a < b and a <= b and b > a and b >= a and a <= a and not a < a
    assert sorted([b, a]) == [a, b] and max(a, b) is b and min(b, a) is a
    # a class is never equal to a tuple, nor ordered against one
    assert a != (a.coords,) and a != a.coords and (a.coords,) != a
    with pytest.raises(TypeError):
        a < (0, 2, 0)  # noqa: B015
    # its str, as a witness prints it, and arrays of classes stay object arrays
    assert str(a) == "DivisorClass(0, 1, -1)"
    assert cli._jsonable({"e": [a, (b,)]}) == {"e": ["DivisorClass(0, 1, -1)",
                                                     ["DivisorClass(0, 2, -3)"]]}
    assert np.array([a, b]).dtype == object


def test_lattices_are_built_once_and_equal_ones_hash_equal():
    lat = make_blowup_lattice(P2, 6)
    assert make_blowup_lattice(P2, 6) is lat and lat.h is lat.h
    fresh = lattice._blowup_lattice.__wrapped__(P2, 6)
    assert fresh is not lat and fresh == lat and hash(fresh) == hash(lat)
    assert fresh != make_blowup_lattice(F1, 5)  # also of rank 7
    # an equal lattice finds the cache entry of the one it equals
    assert configs.cubic_combinatorics(fresh) is configs.cubic_combinatorics(lat)


def test_weyl_elements_compare_by_entries_and_keep_their_matrix():
    e = WeylElement(((1, 2), (0, 1)))
    same = WeylElement.from_matrix(np.array([[1, 2], [0, 1]]))
    assert e == same and hash(e) == hash(same) == hash(e.entries)
    assert e != WeylElement(((1, 0), (0, 1))) and e != e.entries
    assert e.mat is e.mat and e.mat.dtype == np.int64 and e.mat.tolist() == [[1, 2], [0, 1]]


def test_sigma_model_validates_every_construction():
    with pytest.raises(ValueError, match="m1 | m2"):
        SigmaModel(2, 3)
    with pytest.raises(ValueError):
        SigmaModel(0, 0)
    assert SigmaModel(2, 4) == SigmaModel(2, 4) != SigmaModel(1, 8)
    assert hash(SigmaModel(2, 4)) == hash(SigmaModel(2, 4))


def test_point_assignments_compare_by_group_and_points():
    pts = ((0, 1), (1, 0))
    assert PointAssignment(SigmaModel(2, 2), pts) == PointAssignment(SigmaModel(2, 2), pts)
    assert PointAssignment(SigmaModel(2, 2), pts) != PointAssignment(SigmaModel(2, 4), pts)
    assert len({PointAssignment(SigmaModel(2, 2), pts), PointAssignment(SigmaModel(2, 2), pts)}) == 1


def test_no_src_module_imports_dataclasses():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            offenders += [f"{path.stem}: {n}" for n in names if n and n.split(".")[0] == "dataclasses"]
    assert offenders == []


def test_a_fresh_cli_import_loads_no_dataclasses():
    run_under_optimize("import sys\nimport picfold.cli\n"
                       "raise SystemExit('dataclasses' in sys.modules)\n", exit_code=0)
