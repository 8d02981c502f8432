import os
import subprocess
import sys
from itertools import permutations, product
from math import factorial
from pathlib import Path

import numpy as np
import pytest

from picfold.cases import case_spec
from picfold.folding import ambient_weyl_group, folded_weyl_group
from picfold.lattice import F1, P2, DivisorClass, exceptional_classes, make_blowup_lattice
from picfold.configs import (
    ConfigurationError,
    DoubleSix,
    GConfiguration,
    NoRootFoundError,
    TransitivityReport,
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
    _f4_systems,
)
from picfold.moduli import PointAssignment, case_lattice, case_rank, points_from_parameters
from picfold.abelian import make_sigma_model
from picfold.rootsys import (
    BudgetExceededError,
    decompose_in_basis,
    orbit,
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


def bytes_transitivity_check(case, systems, weyl):
    """Reference for ``simple_transitivity_check``: whole systems as the raw
    bytes of their int64 coordinates, walked by ``WeylGroup.orbit_rows``
    through every image, in or out of the set."""
    systems = list(systems)
    flat = np.array([[c for e in GConfiguration(case, s).flat_classes() for c in e.coords]
                     for s in systems], dtype=np.int64)
    target = {row.tobytes(): n for n, row in enumerate(flat)}
    reached = {row.tobytes() for row in weyl.orbit_rows(flat[0])}
    ok = len(reached) == len(weyl) == len(systems) and reached == target.keys()
    offending = None
    if not ok:
        missing = [n for key, n in target.items() if key not in reached]
        extra = sorted(reached - target.keys())
        if missing:
            offending = ("unreached", systems[missing[0]])
        elif extra:
            coords = np.frombuffer(extra[0], dtype=np.int64).reshape(-1, weyl.rank)
            offending = ("outside", tuple(DivisorClass(tuple(v)) for v in coords.tolist()))
        else:
            offending = ("stabilizer", len(weyl) // max(len(reached), 1))
    return TransitivityReport(ok, len(weyl), len(systems), len(reached), offending)


@pytest.mark.parametrize("case", ["B2", "B3", "B4", "C2", "C3", "G2", "F4"])
def test_transitivity_matches_the_bytes_walk(case):
    lat = case_lattice(case)
    systems = enumerate_exceptional_systems(case, lat)
    w = folded_weyl_group(case, lat)
    rep = simple_transitivity_check(case, systems, w)
    assert rep == bytes_transitivity_check(case, systems, w)
    assert rep.simply_transitive and rep.orbit_size == len(w)


@pytest.mark.parametrize("case", ["B3", "F4"])
def test_transitivity_reports_unreached_for_a_proper_subgroup(case):
    lat = case_lattice(case)
    systems = enumerate_exceptional_systems(case, lat)
    w = folded_weyl_group(case, lat)
    sub = weyl_generate(w.gens[:-1])
    rep = simple_transitivity_check(case, systems, sub)
    assert rep.offending[0] == "unreached"
    assert rep.orbit_size == len(orbit(sub.gens, systems[0]).elements) < len(systems)
    assert rep.offending[1] not in orbit(sub.gens, systems[0]).elements
    assert rep == bytes_transitivity_check(case, systems, sub)


@pytest.mark.parametrize("case", ["B3", "C3", "G2"])
def test_transitivity_reports_outside_for_a_removed_system(case):
    lat = case_lattice(case)
    systems = list(enumerate_exceptional_systems(case, lat))
    removed = systems.pop(len(systems) // 2)
    w = folded_weyl_group(case, lat)
    rep = simple_transitivity_check(case, systems, w)
    flat = GConfiguration(case, removed).flat_classes()
    assert rep.offending == ("outside", flat)
    assert not rep.simply_transitive and rep.orbit_size == len(systems)
    assert rep.offending == bytes_transitivity_check(case, systems, w).offending


def test_transitivity_reports_outside_for_a_class_off_the_table(cubic):
    # the reflection in h - l1 - l3 - l4 takes l1 to h - l3 - l4, a line no F4 system uses
    from picfold.rootsys import reflect, reflection

    h, l = cubic.h, cubic.l
    alpha = h - l(1) - l(3) - l(4)
    systems = enumerate_exceptional_systems("F4", cubic)
    assert h - l(3) - l(4) not in {e for s in systems for e in s}
    rep = simple_transitivity_check("F4", systems, weyl_generate([reflection(cubic, alpha)]))
    assert rep.offending == ("outside", tuple(reflect(cubic, alpha, e) for e in systems[0]))
    assert h - l(3) - l(4) in rep.offending[1] and rep.orbit_size == 1


def test_transitivity_reports_the_stabilizer_of_a_partial_system():
    # the orbit of the first two slots of a B3 system is the whole set,
    # but W(B3) also permutes and flips the last two slots
    lat = case_lattice("B3")
    w = folded_weyl_group("B3", lat)
    head = enumerate_exceptional_systems("B3", lat)[0][:2]
    systems = orbit(w.gens, head).elements
    rep = simple_transitivity_check("B3", systems, w)
    assert rep.offending == ("stabilizer", len(w) // len(systems))
    assert len(systems) < len(w) and rep.orbit_size == len(systems)
    assert rep == bytes_transitivity_check("B3", systems, w)


def test_transitivity_walk_refuses_past_its_caps():
    lat = case_lattice("B3")
    systems = enumerate_exceptional_systems("B3", lat)
    w = folded_weyl_group("B3", lat)

    class Shrunk:  # the generators of W(B3), claiming an order of 4
        mats, rank = w.mats, w.rank

        def __len__(self):
            return 4

    with pytest.raises(BudgetExceededError, match="orbit exceeded cap 4"):
        simple_transitivity_check("B3", systems, Shrunk())
    # 20 slots over 22 classes: 22^20 codes do not fit in int64
    big = make_blowup_lattice(F1, 20)
    l, f = big.l, big.f
    rest = tuple(l(i) for i in range(3, 21))
    pair = [(l(1), l(2)) + rest, (f - l(1), f - l(2)) + rest]
    with pytest.raises(OverflowError):
        simple_transitivity_check("B19", pair, weyl_generate([], rank=big.rank))


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


def test_double_six_validate_names_the_broken_condition(cubic):
    l, h = cubic.l, cubic.h
    six = frozenset(l(i) for i in range(1, 7))
    bad = frozenset([l(1), h - l(1) - l(2), l(3), l(4), l(5), l(6)])
    with pytest.raises(ConfigurationError, match="in one half meet"):
        DoubleSix(six, bad).validate(cubic)
    with pytest.raises(ConfigurationError, match="does not meet 5 lines"):
        DoubleSix(six, six).validate(cubic)
    with pytest.raises(ConfigurationError, match="halves of 6 and 5 lines"):
        DoubleSix(six, frozenset(sorted(six)[:5])).validate(cubic)


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


@pytest.fixture(scope="module")
def skew_sixes(cubic):
    """Every ordered 6-tuple of pairwise-disjoint lines, with its symbolic points."""
    lines = exceptional_classes(cubic)
    disjoint = {e: {o for o in lines if cubic.pair(e, o) == 0} for e in lines}
    out = []

    def rec(current, allowed):
        if len(current) == 6:
            out.append(tuple(current))
            return
        for e in sorted(allowed):
            rec(current + [e], allowed & disjoint[e])

    rec([], set(lines))
    rows = symbolic_point_rows("F4")
    point = {e: symbolic_point(cubic, rows, e) for e in lines}
    return out, np.array([[point[e] for e in six] for six in out])


@pytest.mark.parametrize("relations", [
    case_spec("F4").relations,
    ((1, 1, -2, -2, 1, 1),),  # the sum of the F4 relations, alone
    ((0, 1, -1, 1, -1, 0),),  # other slots, checked at another depth
    ((1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0)),  # no solutions
])
def test_f4_level_search_matches_brute_force_filter(cubic, skew_sixes, relations):
    sixes, pts = skew_sixes
    assert len(sixes) == 51840
    ok = ~np.einsum("rj,sjk->srk", np.array(relations), pts).any(axis=(1, 2))
    lines, idx = _f4_systems(cubic, symbolic_point_rows("F4"), relations)
    assert [tuple(lines[i] for i in row) for row in idx.tolist()] == sorted(
        s for s, keep in zip(sixes, ok) if keep)


@pytest.mark.parametrize("case", ["B2", "B3", "B4", "B5", "G2"])
def test_systems_match_brute_force(case):
    lat = case_lattice(case)
    assert enumerate_exceptional_systems(case, lat) == brute_force_systems(case, lat)


def definitional_c_systems(case, lat):
    """C oracle: the pairs (l_i, l_{2n+1-i}), per permutation and then per swap pattern."""
    n = case_rank(case)
    out = []
    for sigma in permutations(range(1, n + 1)):
        for flips in product((0, 1), repeat=n):
            pairs = [(lat.l(i), lat.l(2 * n + 1 - i)) for i in sigma]
            out.append(tuple((b, a) if fl else (a, b) for (a, b), fl in zip(pairs, flips)))
    return tuple(out)


@pytest.mark.parametrize("case", ["C2", "C3", "C4"])
def test_c_systems_match_the_definition_in_order(case):
    lat = case_lattice(case)
    assert enumerate_exceptional_systems(case, lat) == definitional_c_systems(case, lat)


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
