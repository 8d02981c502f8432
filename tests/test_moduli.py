import random
from itertools import product

import numpy as np
import pytest

from picfold import moduli
from picfold.abelian import SymbolicSigma, make_sigma_model
from picfold.lattice import F1, make_blowup_lattice
from picfold.moduli import (
    PointAssignment,
    case_lattice,
    case_system_matrix,
    chi_injectivity_check,
    fixed_components,
    folded_restriction,
    invariance_agreement_exhaustive,
    invariance_closed_form,
    invariance_condition,
    invariance_direct,
    invariance_literal_c,
    reconstruct_points,
    u_point,
)
from picfold.rootsys import (
    BudgetExceededError,
    decompose_in_basis,
    restrict_to_basis,
    simple_reflections,
    standard_simple_system,
    weyl_generate,
)
from picfold._linalg import bareiss_det

from test_rootsys import einsum_closure_stack


def _pa(sigma, *pts):
    return PointAssignment(sigma, tuple(pts))


def test_restriction_values_on_simple_roots():
    lat = make_blowup_lattice(F1, 3)
    sym = SymbolicSigma(3)
    pa = _pa(sym, sym.gen(0), sym.gen(1), sym.gen(2))
    d = standard_simple_system("D", lat)
    images = [u_point(lat, pa, b) for b in d.roots]
    x1, x2, x3 = pa.points
    assert images[0] == sym.sub(x1, x2)         # l1 - l2
    assert images[1] == sym.neg(sym.add(x1, x2))  # f - l1 - l2
    assert images[2] == sym.sub(x2, x3)
    assert u_point(lat, pa, lat.zero) == sym.zero


def test_invariance_b_case():
    sig = make_sigma_model(2, 2)
    nonzero_tors = (1, 0)
    pa = _pa(sig, nonzero_tors, (0, 1), (1, 1))
    assert invariance_condition("B2", pa)  # 2 x1 = 0 holds, not the identity component
    pa2 = _pa(make_sigma_model(1, 5), (0, 1), (0, 2), (0, 3))
    assert not invariance_condition("B2", pa2)
    assert invariance_condition("B2", _pa(make_sigma_model(1, 5), (0, 0), (0, 2), (0, 3)))


def test_invariance_g2_case():
    sig = make_sigma_model(1, 7)
    a, b = (0, 2), (0, 3)
    pa = _pa(sig, sig.zero, a, b, sig.add(a, b))
    assert invariance_condition("G2", pa)
    bad = _pa(sig, sig.zero, a, b, (0, 1))
    assert not invariance_condition("G2", bad)


def test_invariance_trivial_bundle_all_cases():
    for case in ("B2", "B3", "C2", "C3", "G2", "F4"):
        sig = make_sigma_model(2, 2)
        n = case_lattice(case).npoints
        pa = _pa(sig, *([sig.zero] * n))
        assert invariance_condition(case, pa)


def _all_assignments(sigma, n, zero_sum=False):
    els = list(sigma.elements())
    if not zero_sum:
        yield from product(els, repeat=n)
        return
    for head in product(els, repeat=n - 1):
        acc = sigma.zero
        for p in head:
            acc = sigma.add(acc, p)
        yield head + (sigma.neg(acc),)


@pytest.mark.parametrize("m1,m2", [(2, 2), (3, 3)])
@pytest.mark.parametrize("case", ["B2", "C2", "G2", "F4"])
def test_closed_vs_direct_exhaustive(case, m1, m2):
    sigma = make_sigma_model(m1, m2)
    n = case_lattice(case).npoints
    zero_sum = case.startswith("C")
    checked = invariance_agreement_exhaustive(case, sigma)
    assert checked == sigma.order ** (n - 1 if zero_sum else n)


@pytest.mark.parametrize("case", ["B2", "C2", "G2", "F4"])
def test_vectorized_agreement_matches_scalar_path(case):
    # the vectorized helper and the per-assignment functions see the same truth
    sigma = make_sigma_model(2, 4)
    n = case_lattice(case).npoints
    rng = random.Random(13)
    els = list(sigma.elements())
    for _ in range(200):
        pts = [rng.choice(els) for _ in range(n)]
        if case.startswith("C"):
            acc = sigma.zero
            for p in pts[:-1]:
                acc = sigma.add(acc, p)
            pts[-1] = sigma.neg(acc)
        pa = _pa(sigma, *pts)
        assert invariance_closed_form(case, pa) == invariance_direct(case, pa)


def test_literal_c_form_matches_for_n2_but_not_n3():
    sig = make_sigma_model(3, 3)
    # n = 2: literal pairwise-torsion form is equivalent to the common-value form
    for pts in _all_assignments(sig, 4, zero_sum=True):
        pa = _pa(sig, *pts)
        assert invariance_literal_c(pa) == invariance_closed_form("C2", pa)
    # n = 3: the literal form admits strictly more assignments
    weaker_only = 0
    for pts in _all_assignments(sig, 6, zero_sum=True):
        pa = _pa(sig, *pts)
        lit, closed = invariance_literal_c(pa), invariance_closed_form("C3", pa)
        assert not (closed and not lit)
        if lit and not closed:
            weaker_only += 1
    assert weaker_only > 0


def test_fixed_component_counts():
    assert len(fixed_components("B3", make_sigma_model(2, 2)).labels) == 4
    assert len(fixed_components("C2", make_sigma_model(2, 2)).labels) == 4
    assert len(fixed_components("C3", make_sigma_model(3, 3)).labels) == 9
    assert len(fixed_components("G2", make_sigma_model(2, 2)).labels) == 4
    with pytest.warns(UserWarning):
        fc = fixed_components("C2", make_sigma_model(1, 5))
    assert len(fc.labels) == 1 and not fc.full_torsion
    fc = fixed_components("B2", make_sigma_model(2, 2))
    assert fc.identity_label == (0, 0) and fc.full_torsion


def test_component_labels_partition_solutions():
    # over (2,2), the B2 invariance locus is partitioned by the value of x1
    sigma = make_sigma_model(2, 2)
    fc = fixed_components("B2", sigma)
    byl = {lab: 0 for lab in fc.labels}
    for pts in _all_assignments(sigma, 3):
        pa = _pa(sigma, *pts)
        if invariance_closed_form("B2", pa):
            byl[pts[0]] += 1
    assert all(v == fc.component_size for v in byl.values())


def test_system_matrices_and_determinants():
    assert abs(bareiss_det(case_system_matrix("B2"))) == 4
    assert abs(bareiss_det(case_system_matrix("B3"))) == 8
    assert abs(bareiss_det(case_system_matrix("C2"))) == 8
    assert abs(bareiss_det(case_system_matrix("G2"))) == 9
    assert bareiss_det(case_system_matrix("F4")) != 0


def test_reconstruct_trivial_and_unique():
    sig = make_sigma_model(1, 5)
    res = reconstruct_points("B3", [sig.zero] * 3, sig)
    assert res.solvable and res.kernel_size == 1
    assert all(p == sig.zero for p in res.assignments[0].points)
    sig7 = make_sigma_model(1, 7)
    for p in product(list(sig7.elements()), repeat=2):
        r = reconstruct_points("G2", list(p), sig7)
        assert r.solvable and r.kernel_size == 1


def _random_admissible(case, sigma, rng):
    els = list(sigma.elements())
    n = case_lattice(case).npoints
    if case.startswith("B"):
        return _pa(sigma, sigma.zero, *(rng.choice(els) for _ in range(n - 1)))
    if case.startswith("C"):
        half = [rng.choice(els) for _ in range(n // 2)]
        return _pa(sigma, *half, *(sigma.neg(p) for p in reversed(half)))
    if case == "G2":
        a, b = rng.choice(els), rng.choice(els)
        return _pa(sigma, sigma.zero, a, b, sigma.add(a, b))
    x1, x2, x3, p = (rng.choice(els) for _ in range(4))
    return _pa(sigma, x1, x2, x3, sigma.sub(p, x3), sigma.sub(p, x2), sigma.sub(p, x1))


@pytest.mark.parametrize("case", ["B2", "B3", "C2", "C3", "G2", "F4"])
def test_reconstruction_round_trip(case):
    rng = random.Random(42)
    for sigma in (make_sigma_model(2, 2), make_sigma_model(2, 4), make_sigma_model(1, 5)):
        for _ in range(25):
            pa = _random_admissible(case, sigma, rng)
            p_imgs = folded_restriction(case, pa)
            res = reconstruct_points(case, p_imgs, sigma)
            assert res.solvable
            assert pa in res.assignments
            # every returned assignment restricts back to the same data
            for cand in res.assignments:
                assert folded_restriction(case, cand) == tuple(p_imgs)
            assert len(res.assignments) == res.kernel_size


@pytest.mark.parametrize(
    "case,m1,m2",
    [("B2", 2, 2), ("B2", 3, 3), ("B3", 2, 2), ("B3", 3, 3),
     ("C2", 2, 2), ("C2", 3, 3), ("G2", 2, 2), ("G2", 3, 3)],
)
def test_chi_injectivity_small(case, m1, m2):
    rep = chi_injectivity_check(case, make_sigma_model(m1, m2))
    assert rep.passed, rep.counterexample


def test_chi_budget_respected():
    with pytest.raises(BudgetExceededError):
        chi_injectivity_check("F4", make_sigma_model(2, 2), action_cap=10)


def full_group_chi_check(case, sigma):
    """The chi check applying every element of W_big and W_small to each representative.

    Reference for ``chi_injectivity_check``, which closes both orbits under
    the generators instead; the elements come from the closure oracle.
    Looks up ``moduli.folded_weyl_group`` at call time, so a monkeypatched
    small group reaches both.
    """
    lat = case_lattice(case)
    rho = moduli.outer_automorphism(moduli.ambient_case(case), lat)
    delta = rho.simple_system
    w_big = einsum_closure_stack(weyl_generate(simple_reflections(delta, lat)).mats, 10**6)
    w_small = einsum_closure_stack(moduli.folded_weyl_group(case, lat).mats, 10**6)
    basis = moduli.fixed_sublattice(rho)
    k = len(basis)
    m_big = restrict_to_basis(w_big, delta.roots, lat)
    m_small = restrict_to_basis(w_small, delta.roots, lat)
    embed = np.array(
        [decompose_in_basis(b, delta.roots) for b in basis], dtype=np.int64
    ).T
    mods = (sigma.m1, sigma.m2)
    base = max(mods) if max(mods) > 1 else 2
    coords1 = np.array(list(product(range(mods[0]), repeat=k)), dtype=np.int64)
    coords2 = np.array(list(product(range(mods[1]), repeat=k)), dtype=np.int64)
    i1 = np.repeat(np.arange(coords1.shape[0]), coords2.shape[0])
    i2 = np.tile(np.arange(coords2.shape[0]), coords1.shape[0])
    dom1 = coords1[i1] @ embed.T % mods[0]
    dom2 = coords2[i2] @ embed.T % mods[1]
    dom_keys = moduli._encode([dom1, dom2], base)
    key_to_tuple = {}
    for t in range(dom_keys.shape[0]):
        key_to_tuple.setdefault(int(dom_keys[t]), t)
    dom_key_set = set(dom_keys.tolist())
    done = set()
    orbits = 0
    for t in range(dom_keys.shape[0]):
        key = int(dom_keys[t])
        if key in done:
            continue
        orbits += 1
        v1, v2 = dom1[t], dom2[t]
        small1 = np.einsum("nij,j->ni", m_small, v1) % mods[0]
        small2 = np.einsum("nij,j->ni", m_small, v2) % mods[1]
        small_keys = set(moduli._encode([small1, small2], base).tolist())
        big1 = np.einsum("nij,j->ni", m_big, v1) % mods[0]
        big2 = np.einsum("nij,j->ni", m_big, v2) % mods[1]
        big_keys = set(moduli._encode([big1, big2], base).tolist())
        reachable_in_domain = big_keys & dom_key_set
        if reachable_in_domain != small_keys:
            stray = sorted(reachable_in_domain - small_keys)[0]
            x_idx, y_idx = key_to_tuple[key], key_to_tuple[stray]
            cx = (tuple(coords1[i1[x_idx]]), tuple(coords2[i2[x_idx]]))
            cy = (tuple(coords1[i1[y_idx]]), tuple(coords2[i2[y_idx]]))
            return moduli.ChiReport(False, dom_keys.shape[0], len(w_big), orbits, (cx, cy))
        done |= small_keys
    return moduli.ChiReport(True, dom_keys.shape[0], len(w_big), orbits, None)


@pytest.mark.parametrize(
    "case,m1,m2",
    [(case, m1, m2) for case in ("B2", "B3", "C2", "G2")
     for m1, m2 in ((2, 2), (3, 3), (2, 4), (1, 6))] + [("F4", 2, 2)],
)
def test_chi_generator_orbits_match_full_group(case, m1, m2):
    sigma = make_sigma_model(m1, m2)
    rep = chi_injectivity_check(case, sigma)
    assert rep.passed
    assert rep == full_group_chi_check(case, sigma)


@pytest.mark.parametrize("case", ["B2", "G2", "F4"])
def test_chi_forced_failure_matches_full_group(case, monkeypatch):
    # with a trivial small group every nontrivial big orbit is a counterexample
    monkeypatch.setattr(
        moduli, "folded_weyl_group", lambda case, lat, cap=10**6: weyl_generate([], rank=lat.rank)
    )
    sigma = make_sigma_model(2, 2)
    rep = chi_injectivity_check(case, sigma)
    assert not rep.passed and rep.counterexample is not None
    assert rep == full_group_chi_check(case, sigma)
