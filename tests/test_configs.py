import os
import subprocess
import sys
from itertools import permutations, product
from math import factorial
from pathlib import Path

import pytest

from picfold.folding import folded_weyl_group
from picfold.lattice import F1, P2, exceptional_classes, make_blowup_lattice
from picfold.configs import (
    ConfigurationError,
    DoubleSix,
    GConfiguration,
    NoRootFoundError,
    cubic_combinatorics,
    double_six_to_root,
    enumerate_exceptional_systems,
    in_general_position,
    is_blowdown_sequence,
    simple_transitivity_check,
    symbolic_point,
    symbolic_point_rows,
    triangle_stabilizer,
    _check_case_points,
)
from picfold.moduli import PointAssignment, case_lattice, case_rank, points_from_parameters
from picfold.abelian import make_sigma_model
from picfold.rootsys import (
    decompose_in_basis,
    root_sublattice,
    simple_reflections,
    standard_simple_system,
    weyl_generate,
)


@pytest.fixture(scope="module")
def cubic():
    return make_blowup_lattice(P2, 6)


@pytest.fixture(scope="module")
def weyl_e6(cubic):
    return weyl_generate(simple_reflections(standard_simple_system("E6", cubic), cubic))


def test_g2_systems(cubic):
    lat = case_lattice("G2")
    systems = enumerate_exceptional_systems("G2", lat)
    assert len(systems) == 12
    f, l = lat.f, lat.l
    assert (f - l(1), f - l(2), l(4), l(3)) in systems
    assert (l(1), l(2), l(3), l(4)) in systems
    for s in systems:
        GConfiguration("G2", s).check_invariants(lat)


def test_b_system_counts():
    for n in (2, 3, 4):
        lat = case_lattice(f"B{n}")
        systems = enumerate_exceptional_systems(f"B{n}", lat)
        assert len(systems) == 2**n * factorial(n)
        for s in systems[:20]:
            GConfiguration(f"B{n}", s).check_invariants(lat)


def test_c_system_counts():
    for n in (2, 3):
        lat = case_lattice(f"C{n}")
        systems = enumerate_exceptional_systems(f"C{n}", lat)
        assert len(systems) == 2**n * factorial(n)
        for s in systems[:20]:
            GConfiguration(f"C{n}", s).check_invariants(lat)


def test_f4_systems(cubic):
    systems = enumerate_exceptional_systems("F4", cubic)
    assert len(systems) == 1152
    ls = tuple(cubic.l(i) for i in range(1, 7))
    assert ls in systems
    for s in systems[:20]:
        GConfiguration("F4", s).check_invariants(cubic)
    # no system uses the three special lines
    h, l = cubic.h, cubic.l
    special = {h - l(1) - l(6), h - l(2) - l(5), h - l(3) - l(4)}
    for s in systems:
        assert not (set(s) & special)


def test_simple_transitivity_all_cases(cubic):
    for case in ("B2", "B3", "C2", "G2"):
        lat = case_lattice(case)
        systems = enumerate_exceptional_systems(case, lat)
        w = folded_weyl_group(case, lat)
        rep = simple_transitivity_check(case, systems, w)
        assert rep.simply_transitive, (case, rep.offending)
    systems = enumerate_exceptional_systems("F4", cubic)
    w = folded_weyl_group("F4", cubic)
    rep = simple_transitivity_check("F4", systems, w)
    assert rep.simply_transitive


def test_transitivity_fails_for_trivial_group():
    lat = case_lattice("G2")
    systems = enumerate_exceptional_systems("G2", lat)
    trivial = weyl_generate([], rank=lat.rank)
    rep = simple_transitivity_check("G2", systems, trivial)
    assert not rep.simply_transitive
    assert rep.offending is not None


def test_blowdown_examples():
    lat = case_lattice("G2")
    l, f = lat.l, lat.f
    assert is_blowdown_sequence(lat, (l(1), l(2), l(3), l(4)))
    assert is_blowdown_sequence(lat, (f - l(1), f - l(2), l(4), l(3)))
    assert not is_blowdown_sequence(lat, (l(1), f - l(1), l(3), l(4)))
    # odd flip pattern: incidence fine, but outside the Weyl orbit
    assert not is_blowdown_sequence(lat, (f - l(1), l(2), l(3), l(4)))
    # shorter tuples can absorb parity through an unused index
    assert is_blowdown_sequence(lat, (f - l(1), l(2), l(3)))


def test_blowdown_matches_weyl_orbit_exactly():
    lat = case_lattice("G2")
    gens = simple_reflections(standard_simple_system("D", lat), lat)
    w = weyl_generate(gens)
    base = tuple(lat.l(i) for i in range(1, 5))
    from picfold.rootsys import orbit

    reachable = set(orbit(gens, base).elements)
    # candidates: all sign/permutation patterns
    from itertools import permutations, product

    for sigma in permutations(range(1, 5)):
        for flips in product((0, 1), repeat=4):
            tup = tuple(
                (lat.f - lat.l(i)) if fl else lat.l(i) for i, fl in zip(sigma, flips)
            )
            assert is_blowdown_sequence(lat, tup) == (tup in reachable)


def test_blowdown_on_cubic(cubic):
    lines = [cubic.l(i) for i in range(1, 7)]
    assert is_blowdown_sequence(cubic, lines)
    # a conic together with a disjoint line is still contractible
    e = 2 * cubic.h - (lines[1] + lines[2] + lines[3] + lines[4] + lines[5])
    assert cubic.pair(e, e) == -1
    assert is_blowdown_sequence(cubic, (e, lines[0]))
    assert not is_blowdown_sequence(cubic, (lines[0], lines[0]))


def test_cubic_combinatorics(cubic):
    data = cubic_combinatorics(cubic)
    assert len(data.lines) == 27
    assert len(data.triangles) == 45
    assert len(data.double_sixes) == 36
    per_line = {e: 0 for e in data.lines}
    for tri in data.triangles:
        for e in tri:
            per_line[e] += 1
    assert set(per_line.values()) == {5}
    h, l = cubic.h, cubic.l
    delta0 = frozenset((h - l(1) - l(6), h - l(2) - l(5), h - l(3) - l(4)))
    assert delta0 in data.triangles


def test_cubic_combinatorics_is_built_once_per_lattice(cubic):
    # the E6 bijection claim reads the combinatorics the cubic claim just built
    assert cubic_combinatorics(cubic) is cubic_combinatorics(make_blowup_lattice(P2, 6))


def test_double_six_bijection(cubic, weyl_e6):
    data = cubic_combinatorics(cubic)
    simple = standard_simple_system("E6", cubic)
    roots = root_sublattice(cubic, [cubic.K])
    positive = {
        r for r in roots
        if all(c >= 0 for c in decompose_in_basis(r, list(simple.roots)))
    }
    assert len(positive) == 36
    images = set()
    for ds in data.double_sixes:
        alpha = double_six_to_root(ds, cubic, simple)
        assert alpha in positive
        images.add(alpha)
    assert images == positive
    # base case: the standard six maps to 2h - sum(l)
    base = frozenset(cubic.l(i) for i in range(1, 7))
    ds0 = next(d for d in data.double_sixes if base in (d.first, d.second))
    alpha0 = double_six_to_root(ds0, cubic, simple)
    expected = 2 * cubic.h - sum((cubic.l(i) for i in range(2, 7)), cubic.l(1))
    assert alpha0 == expected


def test_double_six_bijection_takes_one_smith_form(cubic, monkeypatch):
    from picfold import rootsys

    calls = []
    inverse = rootsys.integer_left_inverse
    monkeypatch.setattr(rootsys, "integer_left_inverse", lambda b: calls.append(b) or inverse(b))
    rootsys._left_inverse.cache_clear()
    simple = standard_simple_system("E6", cubic)
    roots = [double_six_to_root(ds, cubic, simple) for ds in cubic_combinatorics(cubic).double_sixes]
    assert len(set(roots)) == 36
    assert len(calls) == 1  # the 36 double sixes share the simple-root basis


def test_double_six_reflection_involution(cubic):
    data = cubic_combinatorics(cubic)
    ds = data.double_sixes[0]
    alpha = double_six_to_root(ds, cubic)
    from picfold.rootsys import reflect

    for e in ds.first:
        assert reflect(cubic, alpha, reflect(cubic, alpha, e)) == e


def test_malformed_double_six_rejected(cubic):
    lines = [cubic.l(i) for i in range(1, 7)]
    with pytest.raises((NoRootFoundError, ConfigurationError)):
        bad = DoubleSix(frozenset(lines), frozenset(lines))
        bad.validate(cubic)
        double_six_to_root(bad, cubic)


def test_triangle_stabilizers(cubic, weyl_e6):
    h, l = cubic.h, cubic.l
    tri = (h - l(1) - l(6), h - l(2) - l(5), h - l(3) - l(4))
    unord = triangle_stabilizer(tri, False, weyl_e6)
    assert unord.order == 1152
    assert unord.orbit_size == 45
    ordered = triangle_stabilizer(tri, True, weyl_e6)
    assert ordered.order == 192
    assert ordered.orbit_size == 270
    # the unordered stabilizer is exactly the folded Weyl group: W(F4) fixes
    # the triangle as a set and has the stabilizer's order
    wf4 = folded_weyl_group("F4", cubic)
    assert len(wf4) == unord.order
    assert all({g.apply(e) for e in tri} == set(tri) for g in wf4.gens)
    # the ordered stabilizer is the Weyl group of the fixed sub-root-system:
    # W(D4) fixes each line of the triangle and has the stabilizer's order
    d4_simple = [l(1) - l(6), l(2) - l(5), l(3) - l(4), h - l(1) - l(2) - l(3)]
    from picfold.rootsys import reflection

    wd4 = weyl_generate([reflection(cubic, r) for r in d4_simple])
    assert len(wd4) == ordered.order
    assert all(g.fixes(e) for g in wd4.gens for e in tri)


def test_triangle_orbits(cubic, weyl_e6):
    from picfold.rootsys import orbit

    gens = simple_reflections(standard_simple_system("E6", cubic), cubic)
    h, l = cubic.h, cubic.l
    tri = (h - l(1) - l(6), h - l(2) - l(5), h - l(3) - l(4))
    ordered_orbit = orbit(gens, tri, group=weyl_e6)
    assert len(ordered_orbit) == 270
    unordered = {frozenset(t) for t in ordered_orbit.elements}
    assert len(unordered) == 45
    data = cubic_combinatorics(cubic)
    assert unordered == set(data.triangles)  # transitive on all triangles


def test_general_position_predicate():
    sig = make_sigma_model(1, 11)
    pa = PointAssignment(sig, ((0, 0), (0, 1), (0, 2), (0, 3)))
    assert in_general_position("B3", pa)
    assert not in_general_position("B3", PointAssignment(sig, ((0, 0), (0, 0), (0, 2), (0, 3))))
    # C: a pair summing to zero is a boundary case (x2 = -x1 duplicates points)
    bad = PointAssignment(sig, ((0, 3), (0, 8), (0, 3), (0, 8)))
    assert not in_general_position("C2", bad)
    ok = PointAssignment(sig, ((0, 1), (0, 3), (0, 8), (0, 10)))
    assert in_general_position("C2", ok)
    g2 = PointAssignment(sig, ((0, 0), (0, 1), (0, 3), (0, 4)))
    assert in_general_position("G2", g2)
    g2bad = PointAssignment(sig, ((0, 0), (0, 1), (0, 10), (0, 0)))
    assert not in_general_position("G2", g2bad)


def brute_force_systems(case, lat):
    """B/G2 oracle: build every candidate's classes and points from scratch."""
    rows = symbolic_point_rows(case)
    m = lat.npoints
    out = []
    for sigma in permutations(range(1, m + 1)):
        for flips in product((0, 1), repeat=m):
            if sum(flips) % 2 != 0:
                continue
            classes = tuple(
                (lat.f - lat.l(i)) if fl else lat.l(i) for i, fl in zip(sigma, flips)
            )
            pts = [symbolic_point(lat, rows, e) for e in classes]
            if _check_case_points(case, pts):
                out.append(classes)
    return tuple(out)


def pair_sum_f4_systems(lat):
    """F4 oracle: the depth-first search on the three pair sums x1 + x6 = x2 + x5 = x3 + x4."""
    lines = exceptional_classes(lat)
    rows = symbolic_point_rows("F4")
    pts = {e: symbolic_point(lat, rows, e) for e in lines}
    disjoint = {e: {o for o in lines if o != e and lat.pair(e, o) == 0} for e in lines}
    add = lambda u, v: tuple(a + b for a, b in zip(u, v))
    slot_order = (0, 5, 1, 4, 2, 3)
    out = []
    chosen = {}

    def rec(depth, allowed):
        if depth == 6:
            out.append(tuple(chosen[i] for i in range(6)))
            return
        slot = slot_order[depth]
        partner = 5 - slot
        target = None
        if partner in chosen and 0 in chosen and 5 in chosen:
            target = add(pts[chosen[0]], pts[chosen[5]])
            other = pts[chosen[partner]]
        for cand in sorted(allowed):
            if target is not None and add(pts[cand], other) != target:
                continue
            chosen[slot] = cand
            rec(depth + 1, allowed & disjoint[cand])
            del chosen[slot]

    rec(0, set(lines))
    return tuple(sorted(out))


def test_f4_systems_match_pair_sum_search(cubic):
    assert enumerate_exceptional_systems("F4", cubic) == pair_sum_f4_systems(cubic)


@pytest.mark.parametrize("case", ["B2", "B3", "B4", "B5", "G2"])
def test_systems_match_brute_force(case):
    lat = case_lattice(case)
    assert enumerate_exceptional_systems(case, lat) == brute_force_systems(case, lat)


def test_systems_memoized_per_case_and_lattice():
    first = enumerate_exceptional_systems("B3")
    assert enumerate_exceptional_systems("B3") is first
    assert enumerate_exceptional_systems("B3", case_lattice("B3")) is first
    # an equal lattice built separately hits the same entry
    assert enumerate_exceptional_systems("B3", make_blowup_lattice(F1, 4)) is first
    # G2 lives on the same lattice but is a different case
    assert enumerate_exceptional_systems("G2") != first
    f4 = enumerate_exceptional_systems("F4")
    assert enumerate_exceptional_systems("F4", make_blowup_lattice(P2, 6)) is f4


def _loop_pattern(lat, e):
    for i in range(1, lat.npoints + 1):
        if e == lat.l(i):
            return i, 0
        if e == lat.f - lat.l(i):
            return i, 1
    return None


def blowdown_oracle(lat, classes):
    """is_blowdown_sequence on the Hirzebruch model, classes rebuilt per query."""
    for e in classes:
        if lat.pair(e, e) != -1 or lat.pair(e, lat.K) != -1:
            return False
    if any(lat.pair(a, b) != 0 for i, a in enumerate(classes) for b in classes[i + 1:]):
        return False
    pat = [_loop_pattern(lat, e) for e in classes]
    if any(p is None for p in pat):
        return False
    idx = [i for i, _ in pat]
    if len(set(idx)) != len(idx):
        return False
    return not (len(classes) == lat.npoints and sum(fl for _, fl in pat) % 2)


def test_blowdown_matches_oracle_on_g2_lattice():
    lat = case_lattice("G2")
    l, f, s = lat.l, lat.f, lat.s
    # every sign/permutation tuple of the four indices
    for sigma in permutations(range(1, 5)):
        for flips in product((0, 1), repeat=4):
            tup = tuple((f - l(i)) if fl else l(i) for i, fl in zip(sigma, flips))
            assert is_blowdown_sequence(lat, tup) == blowdown_oracle(lat, tup)
    # shorter tuples, repeated indices, and classes outside the table
    pool = [l(i) for i in range(1, 5)] + [f - l(i) for i in range(1, 5)]
    pool += [s, s - l(1), f - l(1) - l(2)]
    for k in (1, 2, 3):
        for tup in product(pool, repeat=k):
            assert is_blowdown_sequence(lat, tup) == blowdown_oracle(lat, tup), tup


def _admissible(case):
    """x = P t for t = (1, 2, ..., rank) in Z/11."""
    sigma = make_sigma_model(1, 11)
    return points_from_parameters(case, [[(0, k + 1) for k in range(case_rank(case))]], sigma)[0]


@pytest.mark.parametrize("case", ["B3", "C3", "G2", "F4"])
def test_check_invariants_with_points_on_every_system(case):
    lat = case_lattice(case)
    pa = _admissible(case)
    for system in enumerate_exceptional_systems(case, lat):
        assert GConfiguration(case, system, pa).check_invariants(lat)


@pytest.mark.parametrize("case", ["B3", "C3", "G2", "F4"])
def test_check_invariants_checks_the_assigned_points(case):
    lat = case_lattice(case)
    system = enumerate_exceptional_systems(case, lat)[0]
    good = _admissible(case)
    sigma = good.sigma
    # every case has a relation on x1, so moving x1 alone breaks one
    moved = PointAssignment(sigma, (sigma.add(good.points[0], (0, 1)),) + good.points[1:])
    for pa in (PointAssignment(sigma, ()), PointAssignment(sigma, good.points[:-1]), moved):
        with pytest.raises(ConfigurationError):
            GConfiguration(case, system, pa).check_invariants(lat)


def test_check_invariants_rejects_broken_points():
    lat = case_lattice("B3")
    l = lat.l
    pa = _admissible("B3")
    bad = GConfiguration("B3", (l(2), l(1), l(3), l(4)), pa)
    with pytest.raises(ConfigurationError):
        bad.check_invariants(lat)
    # without a point assignment only the incidence conditions are checked
    assert GConfiguration("B3", bad.classes).check_invariants(lat)


def test_check_invariants_raises_under_optimize():
    code = (
        "from picfold.configs import ConfigurationError, GConfiguration\n"
        "from picfold.moduli import PointAssignment, case_lattice\n"
        "lat = case_lattice('B3')\n"
        "l = lat.l\n"
        "cfg = GConfiguration('B3', (l(2), l(1), l(3), l(4)), PointAssignment(None, ()))\n"
        "try:\n"
        "    cfg.check_invariants(lat)\n"
        "except ConfigurationError:\n"
        "    raise SystemExit(3)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
