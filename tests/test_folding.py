import random
from functools import lru_cache, reduce
from itertools import combinations, product
from math import factorial

import numpy as np
import pytest

from picfold import folding, rootsys
from picfold.abelian import SigmaModel
from picfold.cases import case_spec
from picfold.lattice import F1, P2, DivisorClass, make_blowup_lattice
from picfold.folding import (
    ambient_root_system,
    ambient_weyl_group,
    case_fold,
    fixed_sublattice,
    folded_root_system,
    folded_simple_system,
    folded_weyl_generators,
    folded_weyl_group,
    outer_automorphism,
    restricted_reflection_matrices,
)
from picfold.moduli import chi_injectivity_check
from picfold.rootsys import (
    BudgetExceededError,
    CoxeterWeylGroup,
    WeylElement,
    basis_coordinates,
    cartan_matrix_of,
    identify_cartan_type,
    reflection,
    simple_reflections,
    standard_simple_system,
    weyl_generate,
)
from linalg_oracles import decompose_in_basis
from under_optimize import run_under_optimize


def _apply(rho, x):
    """Image of a class under rho, on the span of its simple roots and K.

    Raises ValueError unless x has integer coordinates in (simple roots,
    K); K is primitive, so an integral image needs an integral K part.
    """
    basis = np.array([r.coords for r in rho.simple_system] + [rho.lattice.K.coords],
                     dtype=np.int64).T
    coeffs = basis_coordinates(basis, np.array(x.coords, dtype=np.int64))
    perm = list(rho.permutation) + [len(rho.permutation)]
    return DivisorClass(tuple((basis[:, perm] @ coeffs).tolist()))


@pytest.fixture(scope="module")
def f1_4():
    return make_blowup_lattice(F1, 4)


@pytest.fixture(scope="module")
def cubic():
    return make_blowup_lattice(P2, 6)


def test_outer_automorphism_permutes_simple_roots(f1_4, cubic):
    rho = outer_automorphism("D", f1_4)
    d = rho.simple_system
    assert _apply(rho, d[0]) == d[1]
    assert _apply(rho, d[1]) == d[0]
    assert _apply(rho, d[2]) == d[2]
    e6 = outer_automorphism("E6", cubic)
    r = e6.simple_system
    assert _apply(e6, r[0]) == r[5]
    assert _apply(e6, r[1]) == r[4]
    assert _apply(e6, r[2]) == r[2]


def test_triality_has_order_three(f1_4):
    rho = outer_automorphism("D4-triality", f1_4)
    assert rho.order == 3
    d = rho.simple_system
    assert _apply(rho, d[0]) == d[1]
    assert _apply(rho, d[1]) == d[3]
    assert _apply(rho, d[3]) == d[0]
    assert _apply(rho, d[2]) == d[2]


def test_rho_fixes_k(f1_4, cubic):
    for rho in (outer_automorphism("D", f1_4), outer_automorphism("E6", cubic),
                outer_automorphism("D4-triality", f1_4)):
        assert _apply(rho, rho.lattice.K) == rho.lattice.K


def test_rho_rejects_classes_outside_domain(f1_4):
    rho = outer_automorphism("D", f1_4)
    with pytest.raises(ValueError):
        _apply(rho, f1_4.l(1))  # not in root lattice + ZK


def _tag(case):
    return identify_cartan_type(cartan_matrix_of(folded_simple_system(case),
                                                 case_spec(case).lattice))


def test_fold_simple_system_tags(f1_4):
    tri = outer_automorphism("D4-triality", f1_4)
    d = tri.simple_system
    # the triality orbit {a1, a2, a4} sums to one simple root of G2, in integers
    assert folded_simple_system("G2")[0] == d[0] + d[1] + d[3]
    assert (_tag("G2"), _tag("F4"), _tag("B3")) == ("G2", "F4", "B3")
    assert _tag("C2") in ("B2", "C2")


def test_identity_fold_is_noop(f1_4):
    rho = outer_automorphism("D", f1_4)
    ident = type(rho)(rho.ambient, rho.lattice, rho.simple_system,
                      tuple(range(len(rho.simple_system))))
    sums = folding._simple_orbit_sums(ident)
    assert [tuple(col) for col in sums.T.tolist()] == [r.coords for r in rho.simple_system]


def test_folded_weyl_orders():
    assert len(folded_weyl_group("G2")) == 12
    assert len(folded_weyl_group("B3")) == 2**3 * factorial(3)
    assert len(folded_weyl_group("C2")) == 8
    assert len(folded_weyl_group("F4")) == 1152
    assert len(folded_weyl_group("B4")) == 2**4 * factorial(4)
    assert len(folded_weyl_group("C3")) == 2**3 * factorial(3)


@pytest.mark.parametrize("case", [f"B{n}" for n in range(2, 7)] + [f"C{n}" for n in range(2, 6)]
                         + ["G2", "F4"])
def test_a_case_name_keys_its_fold_and_groups_on_its_own_lattice(case):
    spec = case_spec(case)
    assert case_fold(case) is outer_automorphism(spec.ambient, spec.lattice)
    assert folded_weyl_group(case).rank == spec.lattice.rank


def test_folded_root_counts(cubic):
    for n in (2, 3, 4):
        assert len(folded_root_system(f"B{n}")) == 2 * n * n
        assert len(folded_root_system(f"C{n}")) == 2 * n * n
    assert len(folded_root_system("G2")) == 12
    assert len(folded_root_system("F4")) == 48
    # the F4 roots have self-intersection -8 (the sigma-fixed roots, doubled) or -4 (the
    # 2-orbit sums), 24 of each
    norms = [cubic.pair(r, r) for r in folded_root_system("F4")]
    assert (norms.count(-8), norms.count(-4)) == (24, 24)


def _literal_roots(case, lat):
    """The folded root systems written out by hand: the oracle of the orbit sums."""
    l = lat.l
    roots = set()
    if case[0] == "B":
        idx = range(2, lat.npoints + 1)
        for i in idx:
            roots |= {lat.f - 2 * l(i), -(lat.f - 2 * l(i))}
        for i, j in product(idx, idx):
            if i != j:
                roots.add(2 * (l(i) - l(j)))
        for i, j in combinations(idx, 2):
            roots |= {2 * (lat.f - l(i) - l(j)), -2 * (lat.f - l(i) - l(j))}
        return roots
    if case == "G2":
        eps = (l(2), l(3), lat.f - l(4))
        for a, b in combinations(eps, 2):
            roots |= {3 * (a - b), -3 * (a - b)}
        for i in range(3):
            j, k = [t for t in range(3) if t != i]
            roots |= {2 * eps[i] - eps[j] - eps[k], -(2 * eps[i] - eps[j] - eps[k])}
        return roots
    if case[0] == "C":
        n = lat.npoints // 2
        eps = [l(k) - l(2 * n + 1 - k) for k in range(1, n + 1)]
        roots |= {2 * e for e in eps} | {-2 * e for e in eps}
    else:  # F4
        h = lat.h
        eps = (l(2) - l(3) + l(4) - l(5), l(2) + l(3) - l(4) - l(5),
               2 * h - 2 * l(1) - l(2) - l(3) - l(4) - l(5),
               2 * h - 2 * l(6) - l(2) - l(3) - l(4) - l(5))
        roots |= set(eps) | {-e for e in eps}
        for signs in product((1, -1), repeat=4):
            total = sum((s * e for s, e in zip(signs, eps)), lat.zero)
            assert all(c % 2 == 0 for c in total.coords)
            roots.add(DivisorClass(tuple(c // 2 for c in total.coords)))
    for a, b in combinations(eps, 2):
        roots |= {sa * a + sb * b for sa, sb in product((1, -1), repeat=2)}
    return roots


def _literal_simple_roots(case, lat):
    """The folded simple systems written out by hand, in the orbit order of the fold."""
    l = lat.l
    if case == "G2":
        return (lat.f - 2 * l(2) + l(3) - l(4), 3 * (l(2) - l(3)))
    if case == "F4":
        return (l(1) - l(2) + l(5) - l(6), l(2) - l(3) + l(4) - l(5),
                2 * (lat.h - l(1) - l(2) - l(3)), 2 * (l(3) - l(4)))
    n = int(case[1:])
    if case[0] == "B":
        return (lat.f - 2 * l(2),) + tuple(2 * (l(k) - l(k + 1)) for k in range(2, n + 1))
    eps = [l(k) - l(2 * n + 1 - k) for k in range(1, n + 1)]
    return tuple(eps[k] - eps[k + 1] for k in range(n - 1)) + (2 * eps[n - 1],)


LITERAL_CASES = ([(f"B{n}", (F1, n + 1)) for n in range(2, 7)]
                 + [(f"C{n}", (F1, 2 * n)) for n in range(2, 6)]
                 + [("G2", (F1, 4)), ("F4", (P2, 6))])


@pytest.mark.parametrize("case,model", LITERAL_CASES)
def test_folded_roots_are_the_literal_presentations(case, model):
    lat = make_blowup_lattice(*model)
    assert folded_root_system(case) == tuple(sorted(_literal_roots(case, lat)))


def test_b2_and_g2_simple_systems():
    lat3 = make_blowup_lattice(F1, 3)
    b2 = folded_simple_system("B2")
    assert b2 == (lat3.f - 2 * lat3.l(2), 2 * (lat3.l(2) - lat3.l(3)))
    assert identify_cartan_type(cartan_matrix_of(b2, lat3)) == "B2"
    lat4 = make_blowup_lattice(F1, 4)
    g2 = folded_simple_system("G2")
    a = cartan_matrix_of(g2, lat4)
    assert identify_cartan_type(a) == "G2"
    assert sorted(x for row in a for x in row) == [-3, -1, 2, 2]


def test_f4_simple_system(cubic):
    f4 = folded_simple_system("F4")
    l, h = cubic.l, cubic.h
    assert f4 == (
        l(1) - l(2) + l(5) - l(6),
        l(2) - l(3) + l(4) - l(5),
        2 * (h - l(1) - l(2) - l(3)),
        2 * (l(3) - l(4)),
    )
    assert identify_cartan_type(cartan_matrix_of(f4, cubic)) == "F4"


@pytest.mark.parametrize("n", range(2, 6))
def test_b_and_c_simple_systems(n):
    for case, lat, tag in ((f"B{n}", make_blowup_lattice(F1, n + 1), f"B{n}"),
                           (f"C{n}", make_blowup_lattice(F1, 2 * n), "B2" if n == 2 else f"C{n}")):
        simple = folded_simple_system(case)
        assert simple == _literal_simple_roots(case, lat)
        assert identify_cartan_type(cartan_matrix_of(simple, lat)) == tag
        # every folded root is an integral combination of the simple roots
        for root in folded_root_system(case):
            decompose_in_basis(root, simple)


def _sum_over_orbit(coords, rho):
    """The mutant sum over the distinct images, k < |O|: the fixed roots lose ord sigma."""
    inv = np.argsort(rho.permutation)
    images, total = coords[inv], coords
    closed = np.zeros(coords.shape[1:], dtype=bool)
    for _ in range(rho.order - 1):
        closed |= (images == coords).all(axis=0)
        total = total + np.where(closed, 0, images)
        images = images[inv]
    return total


def test_summing_over_the_orbit_instead_of_ord_sigma_fails(monkeypatch):
    monkeypatch.setattr(folding, "_orbit_sums", _sum_over_orbit)
    folding._folded_roots.cache_clear()
    folding.folded_simple_system.cache_clear()
    try:
        for case, model in LITERAL_CASES:
            lat = make_blowup_lattice(*model)
            assert set(folded_root_system(case)) != _literal_roots(case, lat), case
            assert folded_simple_system(case) != _literal_simple_roots(case, lat), case
    finally:
        folding._folded_roots.cache_clear()
        folding.folded_simple_system.cache_clear()


def test_folded_roots_refuse_sums_that_are_not_one_per_orbit(monkeypatch):
    # without the sum every root of a 2-orbit survives on its own: more sums than orbits
    monkeypatch.setattr(folding, "_orbit_sums", lambda coords, rho: coords)
    folding._folded_roots.cache_clear()
    try:
        with pytest.raises(ValueError, match="24 orbit sums for 18 sigma-orbits"):
            folded_root_system("B3")
    finally:
        folding._folded_roots.cache_clear()


def test_root_systems_are_built_once(f1_4):
    rs = folded_root_system("B3")
    assert folded_root_system("B3") is rs
    d4 = ambient_root_system("D", f1_4)
    assert ambient_root_system("D", make_blowup_lattice(F1, 4)) is d4
    assert ambient_root_system("D4-triality", f1_4) is d4  # one root set, two folds
    assert (len(d4), len(ambient_root_system("A", f1_4))) == (24, 12)


def test_folded_roots_are_rho_fixed(f1_4, cubic):
    cases = [("B3", outer_automorphism("D", f1_4)),
             ("C2", outer_automorphism("A", f1_4)),
             ("G2", outer_automorphism("D4-triality", f1_4)),
             ("F4", outer_automorphism("E6", cubic))]
    for case, rho in cases:
        for root in folded_root_system(case):
            assert _apply(rho, root) == root


def test_fixed_sublattice_f4_is_d4(cubic):
    rho = outer_automorphism("E6", cubic)
    basis = fixed_sublattice(rho)
    assert len(basis) == 4
    h, l = cubic.h, cubic.l
    listed = [h - l(1) - l(2) - l(3), l(1) - l(6), l(2) - l(5), l(3) - l(4)]
    # same sublattice: every listed class is an integral combination and back
    for cls in listed:
        decompose_in_basis(cls, basis)
    for cls in basis:
        decompose_in_basis(cls, listed)
    assert identify_cartan_type(cartan_matrix_of(listed, cubic)) == "D4"


def test_fixed_sublattice_triality_rank2(f1_4):
    rho = outer_automorphism("D4-triality", f1_4)
    assert len(fixed_sublattice(rho)) == 2


def test_fixed_sublattice_identity_is_whole(f1_4):
    rho = outer_automorphism("D", f1_4)
    ident = type(rho)(rho.ambient, rho.lattice, rho.simple_system,
                      tuple(range(len(rho.simple_system))))
    assert len(fixed_sublattice(ident)) == len(rho.simple_system)


PRESENTED = ["B2", "B3", "B4", "B5", "C2", "C3", "C4", "G2", "F4"]


def test_presentations_agree():
    # the check against the Schreier-Sims oracle on both stacks
    for case in PRESENTED:
        reflections, gens, basis = restricted_reflection_matrices(case)
        assert reflections.dtype == gens.dtype == np.int64
        # each reflection against ``reflect`` on every basis vector, in basis coordinates
        lat, bmat = case_fold(case).lattice, np.array([b.coords for b in basis]).T
        for root, mat in zip(folded_root_system(case), reflections):
            images = np.array([rootsys.reflect(lat, root, b).coords for b in basis]).T
            assert np.array_equal(basis_coordinates(bmat, images), mat)
        folding.check_presentations(case)
        side_a, side_b = (weyl_generate(map(WeylElement.from_matrix, stack))
                          for stack in (reflections, gens))
        assert side_a == side_b, case
        assert len(side_a) == len(folded_weyl_group(case))


def _patched_stacks(monkeypatch, edit):
    """Make ``restricted_reflection_matrices`` return its stacks after edit(reflections, gens)."""

    def patched(case):
        reflections, gens, basis = restricted_reflection_matrices(case)  # the unpatched one
        reflections, gens = reflections.copy(), gens.copy()
        edit(reflections, gens)
        return reflections, gens, basis

    monkeypatch.setattr(folding, "restricted_reflection_matrices", patched)


@pytest.mark.parametrize("case", PRESENTED)
def test_every_broken_presentation_fails_the_check(case, monkeypatch):
    count, rank = (len(stack) for stack in restricted_reflection_matrices(case)[:2])
    for k in range(count):  # one root reflection swapped for the rotation g_0 g_1

        def swap(reflections, gens):
            reflections[k] = gens[0] @ gens[1]

        _patched_stacks(monkeypatch, swap)
        with pytest.raises(ValueError):
            folding.check_presentations(case)
    for i in range(rank):  # one generator swapped for -I

        def minus(reflections, gens):
            gens[i] = -np.eye(gens.shape[1], dtype=np.int64)

        _patched_stacks(monkeypatch, minus)
        with pytest.raises(ValueError, match="not the reflection in its simple root"):
            folding.check_presentations(case)
    monkeypatch.undo()
    roots = folded_root_system(case)
    for dropped in roots:  # one folded root missing from R(G)
        monkeypatch.setattr(folding, "folded_root_system",
                            lambda case: tuple(r for r in roots if r != dropped))
        with pytest.raises(ValueError):
            folding.check_presentations(case)
    # a class outside the orbit of the simple roots, with a reflection of its own
    monkeypatch.setattr(folding, "folded_root_system",
                        lambda case: tuple(sorted(roots + (2 * max(roots),))))
    with pytest.raises(ValueError, match=f"reaches {len(roots)} of {len(roots) + 1}"):
        folding.check_presentations(case)
    # a class of the fixed sublattice whose reflection is not integral there
    b = folded_simple_system(case)
    monkeypatch.setattr(folding, "folded_root_system",
                        lambda case: tuple(sorted(roots + (b[0] + 2 * b[1],))))
    with pytest.raises(ValueError, match="leaves the fixed sublattice"):
        folding.check_presentations(case)
    monkeypatch.undo()
    folding.check_presentations(case)


# each broken presentation, set up in a fresh interpreter before the folding suite runs
BREAKS = {
    "swapped reflection": (
        "original = folding.restricted_reflection_matrices\n"
        "def patched(case):\n"
        "    reflections, gens, basis = original(case)\n"
        "    reflections = reflections.copy()\n"
        "    reflections[-1] = gens[0] @ gens[1]\n"
        "    return reflections, gens, basis\n"
        "folding.restricted_reflection_matrices = patched\n"),
    "generator -I": (
        "original = folding.restricted_reflection_matrices\n"
        "def patched(case):\n"
        "    reflections, gens, basis = original(case)\n"
        "    return reflections, np.concatenate([-np.eye(len(basis), dtype=np.int64)[None],\n"
        "                                        gens[1:]]), basis\n"
        "folding.restricted_reflection_matrices = patched\n"),
    "dropped root": (
        "original = folding.folded_root_system\n"
        "def patched(case):\n"
        "    roots = original(case)\n"
        "    return roots[:-1]\n"
        "folding.folded_root_system = patched\n"),
}


@pytest.mark.parametrize("name", list(BREAKS))
def test_a_broken_presentation_fails_the_claim_under_optimize(name):
    status = run_under_optimize("import numpy as np\n"
                                "from picfold import folding\n" + BREAKS[name], "folding")
    failed = {claim for claim, r in status.items() if r["status"] == "fail"}
    # a dropped root also changes the root counts, which read the same function
    assert failed == {"fold.presentations.agree"} | (
        {"fold.root.counts"} if name == "dropped root" else set())
    assert status["fold.presentations.agree"]["witness"].startswith("ValueError: B2: ")


def test_second_reduction_order_identities(f1_4, cubic):
    # |W(G)| = |W(G'')| * |Out(G'')| for the four folded families
    lat3 = make_blowup_lattice(F1, 3)
    # C_n: G'' = n copies of A1, Out = S_n
    for n in (2, 3):
        assert len(folded_weyl_group(f"C{n}")) == 2**n * factorial(n)
    # G2: G'' = A2, Out = Z2
    l = f1_4.l
    a2 = [3 * (l(2) - l(3)), 3 * (l(3) - (f1_4.f - l(4)))]
    a2_scaled = [l(2) - l(3), l(3) - f1_4.f + l(4)]
    wa2 = weyl_generate(simple_reflections(a2_scaled, f1_4))
    assert len(folded_weyl_group("G2")) == len(wa2) * 2 == 12
    # B_n: G'' = D_n, Out = Z2
    for n, lat_dn in ((2, make_blowup_lattice(F1, 2)), (3, lat3), (4, f1_4)):
        wdn = weyl_generate(simple_reflections(standard_simple_system("D", lat_dn), lat_dn))
        assert len(folded_weyl_group(f"B{n}")) == len(wdn) * 2
    # F4: G'' = D4, Out = S3
    wd4 = weyl_generate(simple_reflections(standard_simple_system("D", f1_4), f1_4))
    assert len(folded_weyl_group("F4")) == len(wd4) * 6 == 1152


def test_non_orthogonal_orbit_rejected(f1_4):
    rho = outer_automorphism("D", f1_4)
    bad = type(rho)(rho.ambient, rho.lattice, rho.simple_system, (2, 1, 0, 3))
    with pytest.raises(ValueError):
        folded_weyl_generators(bad)


def test_groups_are_built_once_and_read_only():
    w = folded_weyl_group("B3")
    # the default, a positional and a keyword cap all hit the same entry
    assert folded_weyl_group("B3", 10**6) is w
    assert folded_weyl_group("B3", cap=10**6) is w
    big = ambient_weyl_group("B3")
    assert ambient_weyl_group("B3", cap=10**6) is big
    assert (len(w), len(big)) == (48, 192)
    for group in (w, big):
        arrays = [a for a in vars(group).values() if isinstance(a, np.ndarray)]
        assert any(a is group.mats for a in arrays)
        for arr in arrays + [g.mat for g in group.gens]:
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 7


def test_automorphisms_and_fixed_sublattices_are_built_once_and_not_mutated(f1_4, cubic):
    from picfold.abelian import SigmaModel
    from picfold.moduli import chi_injectivity_check

    rho = outer_automorphism("D", f1_4)
    basis = fixed_sublattice(rho)
    before = (rho.permutation, rho.simple_system, basis)
    big = ambient_weyl_group("B3")
    mats = big.mats.copy()
    assert chi_injectivity_check("B3", SigmaModel(2, 2)).passed  # reads all three
    # an equal lattice hits the same entries, which the check left as they were
    assert outer_automorphism("D", make_blowup_lattice(F1, 4)) is rho
    assert fixed_sublattice(outer_automorphism("D", f1_4)) is basis
    assert (rho.permutation, rho.simple_system, basis) == before
    assert rho.permutation == (1, 0, 2, 3)
    assert np.array_equal(big.mats, mats) and not big.mats.flags.writeable
    assert outer_automorphism("E6", cubic) is outer_automorphism("E6", cubic)
    with pytest.raises(ValueError, match="unknown ambient type"):
        outer_automorphism("E7", f1_4)


# every case folding._weyl_group serves; C5's ambient A9 (10!) needs a raised cap
SERVED = [f"B{n}" for n in range(1, 7)] + [f"C{n}" for n in range(2, 6)] + ["G2", "F4"]


def _cap(case, folded):
    return 4 * 10**6 if (case, folded) == ("C5", False) else 10**6


def _agrees_with_oracle(group, lat, letters, seed):
    """The group against ``weyl_generate`` on its generators: order, == both ways, membership.

    Membership is compared on seeded random words in ``letters``, on -I, on -I
    times a word, and on a matrix of the wrong shape.  Raises AssertionError.
    """
    oracle = rootsys.weyl_generate(group.gens, cap=4 * 10**6)
    assert len(group) == len(oracle)
    assert group == oracle and oracle == group
    sub = rootsys.weyl_generate(group.gens[:-1], rank=lat.rank)
    assert group != sub and sub != group
    rng, ident = random.Random(seed), np.eye(lat.rank, dtype=np.int64)
    words = [reduce(np.matmul, [rng.choice(letters).mat for _ in range(rng.randrange(13))], ident)
             for _ in range(40)]
    tests = words + [-ident, -words[0], -words[-1], np.eye(lat.rank + 1, dtype=np.int64)]
    got = [WeylElement.from_matrix(m) in group for m in tests]
    assert got == [WeylElement.from_matrix(m) in oracle for m in tests]
    assert not any(got[-4:])
    return got


@pytest.mark.parametrize("case", SERVED)
@pytest.mark.parametrize("folded", [True, False])
def test_coxeter_groups_match_the_schreier_sims_oracle(case, folded):
    rho = case_fold(case)
    lat = rho.lattice
    group = folding._weyl_group(case, _cap(case, folded), folded)
    assert isinstance(group, CoxeterWeylGroup)
    # the ambient simple reflections are members of the ambient group and, mostly, not
    # of the folded one; the reflection in l1 moves K, so it is in neither
    letters = (list(group.gens) + simple_reflections(rho.simple_system, lat)
               + [reflection(lat, lat.l(1))])
    got = _agrees_with_oracle(group, lat, letters, seed=f"{case}.{folded}")
    assert any(got) and not all(got)


def test_ambient_a9_refuses_at_the_default_cap():
    lat = case_spec("C5").lattice
    with pytest.raises(BudgetExceededError):
        ambient_weyl_group("C5")
    rho = outer_automorphism("A", lat)
    with pytest.raises(BudgetExceededError):
        weyl_generate(simple_reflections(rho.simple_system, lat))


def test_caps_refuse_as_before():
    with pytest.raises(BudgetExceededError):
        folded_weyl_group("F4", cap=1151)
    with pytest.raises(BudgetExceededError):
        ambient_weyl_group("F4", cap=51839)
    assert len(folded_weyl_group("F4", cap=1152)) == 1152
    assert len(ambient_weyl_group("F4", cap=51840)) == 51840


def test_a_generator_off_its_root_fails_the_tie_check(f1_4, cubic):
    e6 = outer_automorphism("E6", cubic)
    gens = simple_reflections(e6.simple_system, cubic)
    other = reflection(cubic, cubic.h - cubic.l(4) - cubic.l(5) - cubic.l(6))  # a root of E6
    with pytest.raises(ValueError, match="reflection in its simple root"):
        CoxeterWeylGroup([other] + gens[1:], e6.simple_system, cubic)
    # W(F4): one reflection of the orbit {a1, a6} in place of their product
    folded = folded_weyl_generators(e6)
    with pytest.raises(ValueError, match="reflection in its simple root"):
        CoxeterWeylGroup([gens[0]] + folded[1:], folded_simple_system("F4"), cubic)
    with pytest.raises(ValueError, match="reflection in its simple root"):
        CoxeterWeylGroup(folded[:-1], folded_simple_system("F4"), cubic)
    CoxeterWeylGroup(folded, folded_simple_system("F4"), cubic)


def test_a_negated_simple_root_is_refused(cubic):
    # the reflections and the tie check do not see the sign, but the chain would:
    # on (-b1, b2, ..., b6) it multiplies out to 3840, not 51840
    e6 = outer_automorphism("E6", cubic).simple_system
    flipped = (-e6[0],) + e6[1:]
    with pytest.raises(ValueError, match="not a simple system"):
        CoxeterWeylGroup(simple_reflections(e6, cubic), flipped, cubic)


def test_a_generator_that_breaks_a_relation_is_refused(f1_4):
    # g0 + b3 (K, .) acts as g0 on span(b), since the roots are orthogonal to K, but
    # (g0 + b3 (K, .))^2 = I + 2 b3 (K, .): g0 fixes b3 and K, and (K, b3) = 0
    delta = outer_automorphism("D", f1_4).simple_system
    gens = simple_reflections(delta, f1_4)
    b3, k = (np.array(c.coords, dtype=np.int64) for c in (delta[3], f1_4.K))
    bent = gens[0].mat + np.outer(b3, np.array(f1_4.gram, dtype=np.int64) @ k)
    with pytest.raises(ValueError, match="Coxeter relation of order 1"):
        CoxeterWeylGroup([WeylElement.from_matrix(bent)] + gens[1:], delta, f1_4)


def test_a_chain_that_skips_a_level_is_caught_by_the_oracle(monkeypatch):
    sizes = rootsys._fundamental_orbit_sizes
    monkeypatch.setattr(rootsys, "_fundamental_orbit_sizes", lambda a, cap: sizes(a, cap)[1:])
    for case in ("B3", "C3", "G2", "F4"):
        rho = case_fold(case)
        lat = rho.lattice
        for group in (CoxeterWeylGroup(folded_weyl_generators(rho), folded_simple_system(case),
                                       lat),
                      CoxeterWeylGroup(simple_reflections(rho.simple_system, lat),
                                       rho.simple_system, lat)):
            with pytest.raises(AssertionError):
                _agrees_with_oracle(group, lat, list(group.gens), seed=1)


def test_chi_checks_and_folded_groups_never_sift(monkeypatch):
    def refuse(*args):
        raise RuntimeError("Schreier-Sims was called")

    monkeypatch.setattr(rootsys, "_schreier_sims", refuse)
    # a fresh cache, so that no group built before the patch is read
    monkeypatch.setattr(folding, "_weyl_group", lru_cache(maxsize=None)(
        folding._weyl_group.__wrapped__))
    sigma = SigmaModel(3, 3)
    for case in ("B2", "B3", "C2", "G2", "F4"):
        assert chi_injectivity_check(case, sigma, action_cap=10**10).passed
    for case in ("B2", "B3", "B4", "B5", "C2", "C3", "C4", "G2", "F4"):
        assert len(folded_weyl_group(case)) > 1
    with pytest.raises(RuntimeError, match="Schreier-Sims"):
        weyl_generate(folding._weyl_group("B2", 10**6, True).gens)
