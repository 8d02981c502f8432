from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picfold import cli, configs, rootsys
from picfold.cases import case_spec
from picfold.folding import ambient_weyl_group, case_points, folded_weyl_group
from picfold.lattice import F1, P2, DivisorClass, exceptional_classes, make_blowup_lattice
from picfold.configs import (
    ConfigurationError,
    ExceptionalSystems,
    GConfiguration,
    TransitivityReport,
    cubic_combinatorics,
    double_six_roots,
    enumerate_exceptional_systems,
    is_blowdown_sequence,
    simple_transitivity_check,
    symbolic_point,
    triangle_stabilizer,
    _relation_search,
)
from picfold.moduli import PointAssignment, point_table
from picfold.abelian import make_sigma_model
from picfold.rootsys import (
    BudgetExceededError,
    orbit,
    root_sublattice,
    simple_reflections,
    standard_simple_system,
    weyl_generate,
)
from linalg_oracles import decompose_in_basis
from under_optimize import run_under_optimize


@pytest.fixture(scope="module")
def cubic():
    return make_blowup_lattice(P2, 6)


@pytest.fixture(scope="module")
def weyl_e6(cubic):
    return weyl_generate(simple_reflections(standard_simple_system("E6", cubic), cubic))


def test_g2_systems(cubic):
    lat = case_spec("G2").lattice
    systems = enumerate_exceptional_systems("G2")
    assert len(systems) == 12
    f, l = lat.f, lat.l
    assert (f - l(1), f - l(2), l(4), l(3)) in systems
    assert (l(1), l(2), l(3), l(4)) in systems
    for s in systems:
        GConfiguration("G2", s).check_invariants(lat)


def test_b_system_counts():
    for n in (2, 3, 4):
        lat = case_spec(f"B{n}").lattice
        systems = enumerate_exceptional_systems(f"B{n}")
        assert len(systems) == 2**n * factorial(n)
        for s in list(systems)[:20]:
            GConfiguration(f"B{n}", s).check_invariants(lat)


def test_c_system_counts():
    for n in (2, 3):
        lat = case_spec(f"C{n}").lattice
        systems = enumerate_exceptional_systems(f"C{n}")
        assert len(systems) == 2**n * factorial(n)
        for s in list(systems)[:20]:
            GConfiguration(f"C{n}", s).check_invariants(lat)


def test_f4_systems(cubic):
    systems = enumerate_exceptional_systems("F4")
    assert len(systems) == 1152
    ls = tuple(cubic.l(i) for i in range(1, 7))
    assert ls in systems
    for s in list(systems)[:20]:
        GConfiguration("F4", s).check_invariants(cubic)
    # no system uses the three special lines
    h, l = cubic.h, cubic.l
    special = {h - l(1) - l(6), h - l(2) - l(5), h - l(3) - l(4)}
    for s in systems:
        assert not (set(s) & special)


def test_simple_transitivity_all_cases(cubic):
    for case in ("B2", "B3", "C2", "G2"):
        lat = case_spec(case).lattice
        systems = enumerate_exceptional_systems(case)
        w = folded_weyl_group(case)
        rep = simple_transitivity_check(systems, w)
        assert rep.simply_transitive, (case, rep.offending)
    systems = enumerate_exceptional_systems("F4")
    w = folded_weyl_group("F4")
    rep = simple_transitivity_check(systems, w)
    assert rep.simply_transitive


def test_transitivity_fails_for_trivial_group():
    lat = case_spec("G2").lattice
    systems = enumerate_exceptional_systems("G2")
    trivial = weyl_generate([], rank=lat.rank)
    rep = simple_transitivity_check(systems, trivial)
    assert not rep.simply_transitive
    assert rep.offending is not None


def bytes_transitivity_check(systems, weyl):
    """Reference for ``simple_transitivity_check``: whole systems as the raw
    bytes of their int64 coordinates, walked by ``WeylGroup.orbit_rows``
    through every image, in or out of the set."""
    systems = list(systems)
    flat = np.array([[c for e in s for c in e.coords] for s in systems], dtype=np.int64)
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


def rows_over(table, systems):
    """Hand-made systems (class tuples) as ``ExceptionalSystems`` over ``table``."""
    index = {e: i for i, e in enumerate(table)}
    return ExceptionalSystems(table, [[index[e] for e in s] for s in systems])


@pytest.mark.parametrize("case", ["B2", "B3", "B4", "C2", "C3", "G2", "F4"])
def test_transitivity_matches_the_bytes_walk(case):
    lat = case_spec(case).lattice
    systems = enumerate_exceptional_systems(case)
    w = folded_weyl_group(case)
    rep = simple_transitivity_check(systems, w)
    assert rep == bytes_transitivity_check(systems, w)
    assert rep.simply_transitive and rep.orbit_size == len(w)


@pytest.mark.parametrize("case", ["B3", "F4"])
def test_transitivity_reports_unreached_for_a_proper_subgroup(case):
    lat = case_spec(case).lattice
    systems = enumerate_exceptional_systems(case)
    w = folded_weyl_group(case)
    sub = weyl_generate(w.gens[:-1])
    rep = simple_transitivity_check(systems, sub)
    assert rep.offending[0] == "unreached"
    assert rep.orbit_size == len(orbit(sub.gens, systems[0])) < len(systems)
    assert rep.offending[1] not in orbit(sub.gens, systems[0])
    assert rep == bytes_transitivity_check(systems, sub)


@pytest.mark.parametrize("case", ["B3", "C3", "G2"])
def test_transitivity_reports_outside_for_a_removed_system(case):
    lat = case_spec(case).lattice
    full = enumerate_exceptional_systems(case)
    k = len(full) // 2
    systems = ExceptionalSystems(full.table, np.delete(full.rows, k, axis=0))
    w = folded_weyl_group(case)
    rep = simple_transitivity_check(systems, w)
    assert rep.offending == ("outside", full[k])
    assert not rep.simply_transitive and rep.orbit_size == len(systems) == len(full) - 1
    assert rep.offending == bytes_transitivity_check(systems, w).offending


def test_transitivity_reports_outside_for_a_class_off_the_table(cubic):
    from picfold.rootsys import reflect, reflection

    # the reflection in h - l1 - l3 - l4 takes l1 to h - l3 - l4: a line of
    # the F4 table (all 27) that no F4 system uses
    h, l = cubic.h, cubic.l
    alpha = h - l(1) - l(3) - l(4)
    systems = enumerate_exceptional_systems("F4")
    assert h - l(3) - l(4) in systems.table
    assert h - l(3) - l(4) not in {e for s in systems for e in s}
    rep = simple_transitivity_check(systems, weyl_generate([reflection(cubic, alpha)]))
    assert rep.offending == ("outside", tuple(reflect(cubic, alpha, e) for e in systems[0]))
    assert h - l(3) - l(4) in rep.offending[1] and rep.orbit_size == 1
    # the reflection in s - l1 takes l1 to s, off the B3 table (s meets f)
    lat = case_spec("B3").lattice
    beta = lat.s - lat.l(1)
    systems = enumerate_exceptional_systems("B3")
    w = weyl_generate([reflection(lat, beta)])
    rep = simple_transitivity_check(systems, w)
    assert lat.s not in systems.table and lat.s in rep.offending[1]
    assert rep.offending == ("outside", tuple(reflect(lat, beta, e) for e in systems[0]))
    assert rep.orbit_size == 1


def test_transitivity_reports_the_stabilizer_of_a_partial_system():
    # the orbit of the first two slots of a B3 system is the whole set,
    # but W(B3) also permutes and flips the last two slots
    lat = case_spec("B3").lattice
    w = folded_weyl_group("B3")
    full = enumerate_exceptional_systems("B3")
    systems = rows_over(full.table, orbit(w.gens, full[0][:2]))
    rep = simple_transitivity_check(systems, w)
    assert rep.offending == ("stabilizer", len(w) // len(systems))
    assert len(systems) < len(w) and rep.orbit_size == len(systems)
    assert rep == bytes_transitivity_check(systems, w)


def test_transitivity_walk_refuses_past_its_caps():
    lat = case_spec("B3").lattice
    systems = enumerate_exceptional_systems("B3")
    w = folded_weyl_group("B3")

    class Shrunk:  # the generators of W(B3), claiming an order of 4
        mats, rank = w.mats, w.rank

        def __len__(self):
            return 4

    with pytest.raises(BudgetExceededError, match="orbit exceeded cap 4"):
        simple_transitivity_check(systems, Shrunk())
    # 20 slots over 22 classes: 22^20 codes do not fit in int64
    big = make_blowup_lattice(F1, 20)
    l, f = big.l, big.f
    rest = tuple(l(i) for i in range(3, 21))
    pair = [(l(1), l(2)) + rest, (f - l(1), f - l(2)) + rest]
    table = sorted({e for s in pair for e in s})
    assert len(table) == 22
    with pytest.raises(OverflowError):
        simple_transitivity_check(rows_over(table, pair), weyl_generate([], rank=big.rank))


def walk_reference(systems, weyl):
    """Reference for ``simple_transitivity_check`` on class tuples: a level walk that stays
    on the systems, its frontier in code order, the first image off the systems taken in
    (generator, frontier) order."""
    systems, table = list(systems), systems.table
    index, n = {e: i for i, e in enumerate(table)}, len(table)
    code = lambda s: sum(index[e] * n**j for j, e in enumerate(s))
    coords = np.array([e.coords for e in table], dtype=np.int64)
    images = [dict(zip(table, (DivisorClass(tuple(v)) for v in (coords @ g.T).tolist())))
              for g in weyl.mats]
    known = set(systems)
    seen, frontier, witness = {systems[0]}, [systems[0]], None
    while frontier:
        fresh = set()
        for image in images:
            for s in sorted(frontier, key=code):
                t = tuple(image[e] for e in s)
                if t not in known:
                    witness = witness or t
                elif t not in seen:
                    fresh.add(t)
        seen |= fresh
        frontier = list(fresh)
    missing = [s for s in systems if s not in seen]
    offending = None
    if witness is not None:
        offending = ("outside", witness)
    elif missing:
        offending = ("unreached", missing[0])
    elif not len(seen) == len(weyl) == len(systems):
        offending = ("stabilizer", len(weyl) // len(seen))
    return TransitivityReport(offending is None, len(weyl), len(systems), len(seen), offending)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["B2", "B3", "B4", "C2", "C3", "G2", "F4"]), st.data())
def test_transitivity_matches_the_references_on_subgroups_and_deletions(case, data):
    full, w = enumerate_exceptional_systems(case), folded_weyl_group(case)
    keep = data.draw(st.lists(st.booleans(), min_size=len(w.gens), max_size=len(w.gens)))
    sub = weyl_generate([g for g, k in zip(w.gens, keep) if k], rank=w.rank)
    dropped = data.draw(st.sets(st.integers(0, len(full) - 1), max_size=min(24, len(full) - 1)))
    systems = ExceptionalSystems(full.table, np.delete(full.rows, sorted(dropped), axis=0))
    rep = simple_transitivity_check(systems, sub)
    assert rep == walk_reference(systems, sub)
    ref = bytes_transitivity_check(systems, sub)
    if not dropped:
        assert rep == ref
    else:  # the bytes walk goes on through the dropped systems, so only the verdict agrees
        assert rep[:3] == ref[:3] and rep.orbit_size <= ref.orbit_size


@pytest.mark.parametrize("case", ["B3", "C3"])
def test_the_first_image_off_the_systems_is_taken_in_generator_then_code_order(case):
    # two dropped systems reached at one level from different frontier systems: a few of
    # these pairs tell the (generator, frontier) order from the others
    full, w = enumerate_exceptional_systems(case), folded_weyl_group(case)
    for a in (2, 3):
        for b in range(a + 1, len(full)):
            systems = ExceptionalSystems(full.table, np.delete(full.rows, (a, b), axis=0))
            assert simple_transitivity_check(systems, w) == walk_reference(systems, w), (a, b)


def test_transitivity_guard_counts_the_off_table_marker_of_every_slot():
    # f - l_i (i > 1) meets s - l_1, so its reflection takes all ten classes off the table:
    # the image's code is -10 n^10, which fits for n = 62 classes and wraps for n = 64
    for npoints, fits in ((31, True), (32, False)):
        lat = make_blowup_lattice(F1, npoints)
        table = [e for i in range(1, npoints + 1) for e in (lat.l(i), lat.f - lat.l(i))]
        system = tuple(lat.f - lat.l(i) for i in range(2, 12))
        beta = lat.s - lat.l(1)
        w = weyl_generate([rootsys.reflection(lat, beta)])
        systems = rows_over(table, [system])
        assert len(table) ** 10 < 2**63  # the codes themselves fit on both lattices
        if fits:
            rep = simple_transitivity_check(systems, w)
            assert rep.offending == ("outside", tuple(rootsys.reflect(lat, beta, e)
                                                      for e in system))
        else:
            with pytest.raises(OverflowError):
                simple_transitivity_check(systems, w)


def test_blowdown_examples():
    lat = case_spec("G2").lattice
    l, f = lat.l, lat.f
    assert is_blowdown_sequence(lat, (l(1), l(2), l(3), l(4)))
    assert is_blowdown_sequence(lat, (f - l(1), f - l(2), l(4), l(3)))
    assert not is_blowdown_sequence(lat, (l(1), f - l(1), l(3), l(4)))
    # odd flip pattern: incidence fine, but outside the Weyl orbit
    assert not is_blowdown_sequence(lat, (f - l(1), l(2), l(3), l(4)))
    # shorter tuples can absorb parity through an unused index
    assert is_blowdown_sequence(lat, (f - l(1), l(2), l(3)))


def test_blowdown_matches_weyl_orbit_exactly():
    lat = case_spec("G2").lattice
    gens = simple_reflections(standard_simple_system("D", lat), lat)
    w = weyl_generate(gens)
    base = tuple(lat.l(i) for i in range(1, 5))
    from picfold.rootsys import orbit

    reachable = set(orbit(gens, base))
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


def extend_oracle(lat, classes):
    """Plane blow-downs by explicit extension: a depth-first search for skew
    lines completing the tuple to six."""
    classes = list(classes)
    for e in classes:
        if lat.pair(e, e) != -1 or lat.pair(e, lat.K) != -1:
            return False
    if any(lat.pair(a, b) != 0 for a, b in combinations(classes, 2)):
        return False
    if len(classes) > lat.npoints:
        return False
    pool = [e for e in exceptional_classes(lat) if e not in classes]

    def extend(current):
        if len(current) == lat.npoints:
            return True
        return any(extend(current + [cand]) for cand in pool
                   if cand not in current and all(lat.pair(cand, e) == 0 for e in current))

    return extend(classes)


def test_plane_blowdowns_match_the_extension_search(cubic):
    lines = exceptional_classes(cubic)
    for k in (1, 2):
        for tup in product(lines, repeat=k):
            assert is_blowdown_sequence(cubic, tup) == extend_oracle(cubic, tup), tup
    skew = [t for k in (4, 5, 6) for t in combinations(lines, k)
            if all(cubic.pair(a, b) == 0 for a, b in combinations(t, 2))]
    assert len([t for t in skew if len(t) == 6]) == 72
    for tup in skew:
        assert is_blowdown_sequence(cubic, tup) == extend_oracle(cubic, tup), tup
    # classes that are not lines, and a line with a class off the cubic
    h, l = cubic.h, cubic.l
    for tup in ((h,), (l(1) - l(2),), (l(1), h - l(2) - l(3), cubic.K)):
        assert not is_blowdown_sequence(cubic, tup) and not extend_oracle(cubic, tup)


def test_plane_blowdowns_refuse_other_point_counts():
    for n in (5, 7):
        lat = make_blowup_lattice(P2, n)
        with pytest.raises(ValueError, match=f"not on {n} points"):
            is_blowdown_sequence(lat, (lat.l(1),))


def test_cubic_combinatorics(cubic):
    data = cubic_combinatorics(cubic)
    assert data.lines == exceptional_classes(cubic)
    assert data.triangles.shape == (45, 3) and data.double_sixes.shape == (36, 2, 6)
    assert data.triangles.dtype == data.double_sixes.dtype == np.int64
    assert not data.triangles.flags.writeable and not data.double_sixes.flags.writeable
    assert set(np.bincount(data.triangles.ravel()).tolist()) == {5}
    h, l = cubic.h, cubic.l
    delta0 = sorted(map(data.lines.index, (h - l(1) - l(6), h - l(2) - l(5), h - l(3) - l(4))))
    assert delta0 in data.triangles.tolist()
    # increasing rows; each double six is (smaller six, partner), in the order of the first six
    for rows in (data.triangles, data.double_sixes.reshape(-1, 6)):
        assert (np.diff(rows, axis=1) > 0).all()
    firsts, seconds = data.double_sixes[:, 0].tolist(), data.double_sixes[:, 1].tolist()
    assert firsts == sorted(firsts) and all(a < b for a, b in zip(firsts, seconds))
    coords = np.array([e.coords for e in data.lines])
    assert (coords[data.triangles].sum(axis=1) == -np.array(cubic.K.coords)).all()


def brute_force_triangles(lat, lines):
    """Every increasing triple of pairwise-meeting lines."""
    return [list(t) for t in combinations(range(len(lines)), 3)
            if all(lat.pair(lines[a], lines[b]) == 1 for a, b in combinations(t, 2))]


def test_triangles_match_brute_force(cubic):
    data = cubic_combinatorics(cubic)
    assert data.triangles.tolist() == brute_force_triangles(cubic, data.lines)


def test_cubic_combinatorics_is_built_once_per_lattice(cubic):
    # the E6 bijection claim reads the combinatorics the cubic claim just built
    assert cubic_combinatorics(cubic) is cubic_combinatorics(make_blowup_lattice(P2, 6))


def positive_e6_roots(cubic, simple):
    roots = root_sublattice(cubic, [cubic.K])
    return [r for r in roots if all(c >= 0 for c in decompose_in_basis(r, simple))]


def test_double_six_bijection(cubic, weyl_e6):
    data = cubic_combinatorics(cubic)
    simple = standard_simple_system("E6", cubic)
    positive = positive_e6_roots(cubic, simple)
    assert len(positive) == 36
    roots = double_six_roots(data, cubic, simple)
    assert roots.shape == (36, cubic.rank) and roots.dtype == np.int64
    assert sorted(map(tuple, roots.tolist())) == sorted(r.coords for r in positive)
    # base case: the standard six maps to 2h - sum(l)
    base = sorted(data.lines.index(cubic.l(i)) for i in range(1, 7))
    [k] = np.flatnonzero((data.double_sixes == base).all(axis=2).any(axis=1))
    expected = 2 * cubic.h - sum((cubic.l(i) for i in range(2, 7)), cubic.l(1))
    assert tuple(roots[k].tolist()) == expected.coords


def test_double_six_roots_match_the_sixes_of_each_root(cubic):
    # a positive root alpha gives the double six ({e.alpha = 1}, {e.alpha = -1})
    data = cubic_combinatorics(cubic)
    simple = standard_simple_system("E6", cubic)
    oracle = {}
    for alpha in positive_e6_roots(cubic, simple):
        pairing = [cubic.pair(e, alpha) for e in data.lines]
        halves = [tuple(i for i, p in enumerate(pairing) if p == v) for v in (1, -1)]
        assert [len(half) for half in halves] == [6, 6]
        oracle[frozenset(halves)] = alpha.coords
    roots = double_six_roots(data, cubic, simple)
    assert {frozenset(map(tuple, ds)): tuple(r)
            for ds, r in zip(data.double_sixes.tolist(), roots.tolist())} == oracle


def test_double_six_bijection_takes_one_smith_form(cubic, monkeypatch):
    from picfold import rootsys

    calls = []
    inverse = rootsys.integer_left_inverse
    monkeypatch.setattr(rootsys, "integer_left_inverse", lambda b: calls.append(b) or inverse(b))
    rootsys._left_inverse.cache_clear()
    simple = standard_simple_system("E6", cubic)
    roots = double_six_roots(cubic_combinatorics(cubic), cubic, simple)
    assert len(set(map(tuple, roots.tolist()))) == 36
    assert len(calls) == 1  # the 36 double sixes share the simple-root basis


def test_double_six_reflection_involution(cubic):
    from picfold.rootsys import reflect

    data = cubic_combinatorics(cubic)
    roots = double_six_roots(data, cubic, standard_simple_system("E6", cubic))
    for (first, second), root in zip(data.double_sixes.tolist(), roots.tolist()):
        alpha = DivisorClass(tuple(root))
        assert sorted(reflect(cubic, alpha, data.lines[i]) for i in first) == [
            data.lines[i] for i in second]
        for i in first:
            e = data.lines[i]
            assert reflect(cubic, alpha, reflect(cubic, alpha, e)) == e


def test_malformed_double_six_rejected(cubic):
    data = cubic_combinatorics(cubic)
    simple = standard_simple_system("E6", cubic)
    six = data.double_sixes[:1, 0]
    bad = data._replace(double_sixes=np.stack([six, six], axis=1))
    with pytest.raises(ConfigurationError, match="double six 0: no unique disjoint partner"):
        double_six_roots(bad, cubic, simple)


def test_double_six_checks_name_the_broken_condition(cubic):
    data = cubic_combinatorics(cubic)
    simple = standard_simple_system("E6", cubic)
    first, second = data.double_sixes[0].tolist()
    a = first[0]
    # a line of the first half doubled: still disjoint from one line, but b - 2a is no root
    lines = list(data.lines)
    lines[a] = 2 * lines[a]
    with pytest.raises(ConfigurationError, match="double six 0: partner difference is not a root"):
        double_six_roots(data._replace(lines=tuple(lines)), cubic, simple)
    # a line of the second half that a meets swapped for another such line
    meets = [i for i, e in enumerate(data.lines) if cubic.pair(data.lines[a], e) == 1]
    out, into = next(i for i in meets if i in second), next(i for i in meets if i not in second)
    rows = data.double_sixes.copy()
    rows[0, 1] = sorted(set(second) - {out} | {into})
    with pytest.raises(ConfigurationError, match="double six 0: reflection does not exchange"):
        double_six_roots(data._replace(double_sixes=rows), cubic, simple)
    # a basis of roots that is no simple system: alpha_1 = (alpha_1 + alpha_2) - alpha_2
    skew = (simple[0] + simple[1],) + simple[1:]
    with pytest.raises(ConfigurationError, match="neither positive nor negative"):
        double_six_roots(data, cubic, skew)


def test_triangle_stabilizers_walk_one_orbit_per_claim_run(monkeypatch):
    claim = dict(cli._suite_cubic(cli.RunConfig()))["F4.triangle.stabilizers"]
    claim()  # the groups and the cubic data are cached from here on
    walks, orbit_rows = [], rootsys._orbit_rows

    def spy(mats, vec, cap):
        walks.append(len(vec))
        return orbit_rows(mats, vec, cap)

    monkeypatch.setattr(rootsys, "_orbit_rows", spy)
    assert claim()["ordered_orbit"] == 270
    assert walks == [3 * 7]  # one walk, of the ordered triangle's row


def test_triangle_stabilizer_refuses_an_orbit_row_off_the_triangles(cubic, weyl_e6):
    h, l = cubic.h, cubic.l
    data = cubic_combinatorics(cubic)
    tri = (h - l(1) - l(6), h - l(2) - l(5), h - l(3) - l(4))
    with pytest.raises(ConfigurationError, match=r"orbit row \d+ of .* is not a triangle"):
        triangle_stabilizer(data._replace(triangles=data.triangles[1:]), tri, weyl_e6)
    with pytest.raises(ConfigurationError, match="is not a triangle"):
        triangle_stabilizer(data._replace(lines=data.lines[1:]), tri, weyl_e6)


def test_cubic_combinatorics_names_the_broken_condition(cubic, monkeypatch):
    # on the seven-point blow-up three pairwise-meeting lines have degree 3, and -K degree 2
    with pytest.raises(ConfigurationError, match="does not sum to -K"):
        cubic_combinatorics(make_blowup_lattice(P2, 7))
    # with one line left out, a six's partner loses that line
    lines = exceptional_classes(cubic)
    monkeypatch.setattr(configs, "exceptional_classes", lambda lat: lines[:-1])
    with pytest.raises(ConfigurationError, match="are not a six paired back with it"):
        configs._cubic_combinatorics.__wrapped__(cubic)


def test_triangle_stabilizers(cubic, weyl_e6):
    h, l = cubic.h, cubic.l
    tri = (h - l(1) - l(6), h - l(2) - l(5), h - l(3) - l(4))
    # (order, orbit) of the unordered triangle, then of the ordered one
    assert triangle_stabilizer(cubic_combinatorics(cubic), tri, weyl_e6) == ((1152, 45), (192, 270))
    # the unordered stabilizer is exactly the folded Weyl group: W(F4) fixes
    # the triangle as a set and has the stabilizer's order
    wf4 = folded_weyl_group("F4")
    assert len(wf4) == 1152
    assert all({g.apply(e) for e in tri} == set(tri) for g in wf4.gens)
    # the ordered stabilizer is the Weyl group of the fixed sub-root-system:
    # W(D4) fixes each line of the triangle and has the stabilizer's order
    d4_simple = [l(1) - l(6), l(2) - l(5), l(3) - l(4), h - l(1) - l(2) - l(3)]
    from picfold.rootsys import reflection

    wd4 = weyl_generate([reflection(cubic, r) for r in d4_simple])
    assert len(wd4) == 192
    assert all(g.apply(e) == e for g in wd4.gens for e in tri)


def test_triangle_orbits(cubic, weyl_e6):
    from picfold.rootsys import orbit

    gens = simple_reflections(standard_simple_system("E6", cubic), cubic)
    h, l = cubic.h, cubic.l
    tri = (h - l(1) - l(6), h - l(2) - l(5), h - l(3) - l(4))
    ordered_orbit = orbit(gens, tri)
    assert len(ordered_orbit) == 270 and len(weyl_e6) // len(ordered_orbit) == 192
    assert len(weyl_e6) % len(ordered_orbit) == 0
    data = cubic_combinatorics(cubic)
    unordered = {tuple(sorted(map(data.lines.index, t))) for t in ordered_orbit}
    assert len(unordered) == 45
    assert unordered == set(map(tuple, data.triangles.tolist()))  # transitive on all triangles


def in_class_order(systems):
    return tuple(sorted(systems, key=lambda s: [e.coords for e in s]))


def brute_force_systems(case, lat):
    """B/G2 oracle: every permutation of the indices times every even pattern
    of l_i -> f - l_i flips, kept when its points satisfy R x = 0."""
    m = lat.npoints
    classes = [(lat.l(i), lat.f - lat.l(i)) for i in range(1, m + 1)]
    rows = np.array(case_points(case).points)
    point = np.array([[symbolic_point(lat, rows, e) for e in pair] for pair in classes])
    perms = np.array(list(permutations(range(m))))
    flips = np.array([f for f in product((0, 1), repeat=m) if sum(f) % 2 == 0])
    keep = np.ones((len(perms), len(flips)), dtype=bool)
    for rel in case_points(case).relations:
        total = sum(c * point[perms[:, None, j], flips[None, :, j]] for j, c in enumerate(rel) if c)
        keep &= ~total.any(axis=-1)
    return in_class_order(tuple(classes[i][fl] for i, fl in zip(perms[p], flips[f]))
                          for p, f in zip(*np.nonzero(keep)))


def pair_sum_f4_systems(lat):
    """F4 oracle: the depth-first search on the three pair sums x1 + x6 = x2 + x5 = x3 + x4."""
    lines = exceptional_classes(lat)
    rows = np.array(case_points("F4").points)
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
    assert tuple(enumerate_exceptional_systems("F4")) == pair_sum_f4_systems(cubic)


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
    rows = np.array(case_points("F4").points)
    point = {e: symbolic_point(cubic, rows, e) for e in lines}
    return out, np.array([[point[e] for e in six] for six in out])


@pytest.mark.parametrize("relations", [
    case_points("F4").relations,
    ((1, 1, -2, -2, 1, 1),),  # the sum of the F4 relations, alone
    ((0, 1, -1, 1, -1, 0),),  # other slots, checked at another depth
    ((1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0)),  # no solutions
])
def test_f4_level_search_matches_brute_force_filter(cubic, skew_sixes, relations):
    sixes, pts = skew_sixes
    assert len(sixes) == 51840
    ok = ~np.einsum("rj,sjk->srk", np.array(relations), pts).any(axis=(1, 2))
    lines = exceptional_classes(cubic)
    idx = _relation_search(cubic, lines, np.array(case_points("F4").points), relations)
    assert sorted(tuple(lines[i] for i in row) for row in idx.tolist()) == sorted(
        s for s, keep in zip(sixes, ok) if keep)


@lru_cache(maxsize=None)
def disjoint_tuples(case):
    """Every ordered tuple of pairwise-disjoint classes of the case's table, as index rows,
    with their symbolic points and whether b_0 + (sum e - sum l) / |K_0| is integral."""
    lat, table = case_spec(case).lattice, enumerate_exceptional_systems(case).table
    m, k0 = lat.npoints, abs(lat.K.coords[0])
    rows = np.array([t for t in permutations(range(len(table)), m)
                     if all(lat.pair(table[a], table[b]) == 0 for a, b in combinations(t, 2))])
    coords = np.array([e.coords for e in table])
    total = coords[rows].sum(axis=1) - sum(np.array(lat.l(i).coords) for i in range(1, m + 1))
    points = np.array([symbolic_point(lat, np.array(case_points(case).points), e) for e in table])
    return rows, points[rows], ~(total % k0).any(axis=1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["B3", "C3", "G2"]), st.data())
def test_relation_search_matches_brute_force_filter(case, data):
    lat, table = case_spec(case).lattice, enumerate_exceptional_systems(case).table
    row = st.lists(st.integers(-3, 3), min_size=lat.npoints, max_size=lat.npoints)
    relations = data.draw(st.lists(row.filter(any).map(tuple), min_size=1, max_size=3))
    tuples, points, integral = disjoint_tuples(case)
    ok = integral & ~np.einsum("rj,sjk->srk", np.array(relations), points).any(axis=(1, 2))
    found = _relation_search(lat, table, np.array(case_points(case).points), relations)
    assert sorted(map(tuple, found.tolist())) == sorted(map(tuple, tuples[ok].tolist()))


def test_point_codes_are_exact_up_to_their_guard():
    # B = 2 reach max|pts| + 1 over k = 2 coordinates must keep B^2 below 2^62
    rel = ((1, -1),)  # reach 2
    for big, fits in ((2**29 - 1, True), (2**29, False)):
        pts = np.array([[big, -big], [-1, 3], [big, -big]], dtype=np.int64)
        if fits:
            base = 4 * big + 1
            assert configs._point_codes(pts, rel).tolist() == [
                int(p[0]) + int(p[1]) * base for p in pts]
        else:
            with pytest.raises(OverflowError, match="do not fit in int64"):
                configs._point_codes(pts, rel)


def test_a_relation_with_large_coefficients_refuses_before_the_search(monkeypatch):
    lat, table = case_spec("G2").lattice, enumerate_exceptional_systems("G2").table
    monkeypatch.setattr(configs, "gram_matrix", None)  # read after the codes: never reached
    with pytest.raises(OverflowError):
        _relation_search(lat, table, np.array(case_points("G2").points), ((2**40, 1, 0, -1),))


def test_residues_take_the_smallest_dtype_that_holds_their_sums():
    for bound, dtype in ((0, np.int8), (127, np.int8), (128, np.int16), (2**15, np.int32),
                         (2**31 - 1, np.int32), (2**31, np.int64)):
        assert configs._residue_dtype(bound) is dtype
    for case in ("B2", "B5", "B8", "C2", "C4", "G2", "F4"):
        lat = case_spec(case).lattice
        assert configs._residue_dtype((lat.npoints + 1) * (abs(lat.K.coords[0]) - 1)) is np.int8


@pytest.mark.parametrize("case", ["B2", "B3", "B4", "B5", "B6", "G2"])
def test_systems_match_brute_force(case):
    lat = case_spec(case).lattice
    assert tuple(enumerate_exceptional_systems(case)) == brute_force_systems(case, lat)


def definitional_c_systems(case, lat):
    """C oracle: the pairs (l_i, l_{2n+1-i}), per permutation and swap pattern,
    in the slot order (a_1, ..., a_n, b_n, ..., b_1) of the points."""
    n = case_spec(case).rank
    out = []
    for sigma in permutations(range(1, n + 1)):
        for flips in product((0, 1), repeat=n):
            pairs = [(lat.l(i), lat.l(2 * n + 1 - i)) for i in sigma]
            pairs = [(b, a) if fl else (a, b) for (a, b), fl in zip(pairs, flips)]
            out.append(tuple(a for a, _ in pairs) + tuple(b for _, b in reversed(pairs)))
    return in_class_order(out)


@pytest.mark.parametrize("case", ["C2", "C3", "C4", "C5"])
def test_c_systems_match_the_definition_in_order(case):
    lat = case_spec(case).lattice
    assert tuple(enumerate_exceptional_systems(case)) == definitional_c_systems(case, lat)


def test_systems_memoized_per_case():
    first = enumerate_exceptional_systems("B3")
    assert enumerate_exceptional_systems("B3") is first
    # G2 lives on the same lattice but is a different case
    assert tuple(enumerate_exceptional_systems("G2")) != tuple(first)
    f4 = enumerate_exceptional_systems("F4")
    assert enumerate_exceptional_systems("F4") is f4


def test_system_search_refuses_past_the_weyl_cap(monkeypatch):
    # the systems are a W(G)-torsor: the group's order is read before the search
    with pytest.raises(BudgetExceededError, match="exceeds cap 47"):
        enumerate_exceptional_systems("B3", cap=47)
    assert len(enumerate_exceptional_systems("B3", cap=48)) == 48
    # |W(B8)| = 10,321,920: refused before the search, which is never reached
    monkeypatch.setattr(configs, "_enumerate_systems", None)
    with pytest.raises(BudgetExceededError, match="exceeds cap 1000000"):
        enumerate_exceptional_systems("B8")


def test_exceptional_systems_contract():
    lat = case_spec("B3").lattice
    systems = enumerate_exceptional_systems("B3")
    rows = systems.rows
    assert rows.shape == (48, 4) and not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 0
    assert list(systems.table) == sorted(systems.table)
    assert [tuple(r) for r in rows.tolist()] == sorted(tuple(r) for r in rows.tolist())
    assert tuple(systems) == in_class_order(systems)
    assert [systems[k] for k in range(len(systems))] == list(systems)
    assert systems[-1] == list(systems)[-1]
    for s in systems:
        assert s in systems
    l, f = lat.l, lat.f
    assert (l(1), l(2), l(3), l(4)) in systems
    assert (l(1), l(2), l(3)) not in systems  # wrong length
    assert (l(1), l(2), l(3), l(4), l(4)) not in systems
    assert (l(1), l(2), l(3), lat.s) not in systems  # s is off the table
    assert (l(1), l(2), l(3), f - l(4)) not in systems  # on the table, odd flips
    # a hand-made set is sorted on the way in, and the caller's array is left alone
    mine = np.array(rows[::-1])
    again = ExceptionalSystems(systems.table, mine)
    assert np.array_equal(again.rows, rows) and mine.flags.writeable
    assert np.array_equal(mine, rows[::-1])


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
    lat = case_spec("G2").lattice
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
    t = np.array([[(0, k + 1) for k in range(case_spec(case).rank)]], dtype=np.int64)
    return PointAssignment(sigma, tuple(map(tuple, point_table(case, t, sigma)[0].tolist())))


@pytest.mark.parametrize("case", ["B3", "C3", "G2", "F4"])
def test_check_invariants_with_points_on_every_system(case):
    lat = case_spec(case).lattice
    pa = _admissible(case)
    for system in enumerate_exceptional_systems(case):
        assert GConfiguration(case, system, pa).check_invariants(lat)


@pytest.mark.parametrize("case", ["B3", "C3", "G2", "F4"])
def test_check_invariants_checks_the_assigned_points(case):
    lat = case_spec(case).lattice
    system = enumerate_exceptional_systems(case)[0]
    good = _admissible(case)
    sigma = good.sigma
    # every case has a relation on x1, so moving x1 alone breaks one
    moved = PointAssignment(sigma, (sigma.add(good.points[0], (0, 1)),) + good.points[1:])
    for pa in (PointAssignment(sigma, ()), PointAssignment(sigma, good.points[:-1]), moved):
        with pytest.raises(ConfigurationError):
            GConfiguration(case, system, pa).check_invariants(lat)


def test_check_invariants_rejects_broken_points():
    lat = case_spec("B3").lattice
    l = lat.l
    pa = _admissible("B3")
    bad = GConfiguration("B3", (l(2), l(1), l(3), l(4)), pa)
    with pytest.raises(ConfigurationError):
        bad.check_invariants(lat)
    # without a point assignment only the incidence conditions are checked
    assert GConfiguration("B3", bad.classes).check_invariants(lat)


def test_check_invariants_raises_under_optimize():
    run_under_optimize(
        "from picfold.configs import ConfigurationError, GConfiguration\n"
        "from picfold.cases import case_spec\n"
        "from picfold.moduli import PointAssignment\n"
        "lat = case_spec('B3').lattice\n"
        "l = lat.l\n"
        "cfg = GConfiguration('B3', (l(2), l(1), l(3), l(4)), PointAssignment(None, ()))\n"
        "try:\n"
        "    cfg.check_invariants(lat)\n"
        "except ConfigurationError:\n"
        "    raise SystemExit(3)\n", exit_code=3)
