import random
import sys
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picfold import moduli
from picfold.abelian import SigmaModel
from picfold.cases import case_spec
from picfold.folding import ambient_weyl_group, case_fold, fixed_sublattice, folded_simple_system
from picfold.lattice import F1, make_blowup_lattice
from picfold.moduli import (
    case_system_matrix,
    chi_injectivity_check,
    conjugacy_class_walk,
    fixed_components,
    invariance_agreement_exhaustive,
    reconstruct_points,
    restriction,
)
from picfold.rootsys import (
    BudgetExceededError,
    WeylElement,
    restrict_to_basis,
    simple_reflections,
    standard_simple_system,
    weyl_generate,
)
from picfold._linalg import bareiss_det
from linalg_oracles import decompose_in_basis
from point_oracles import add, invariance_closed_form, invariance_literal_c, neg, u_point

from test_rootsys import einsum_closure_stack


def test_restriction_values_on_simple_roots():
    # on the rows of the free points x_i = t_i, exactly, and on residue pairs mod (m1, m2)
    lat = make_blowup_lattice(F1, 3)
    rows = np.eye(3, dtype=np.int64)
    d = standard_simple_system("D", lat)
    images = restriction(lat, d, rows)
    assert images.tolist() == [[1, -1, 0], [-1, -1, 0], [0, 1, -1]]  # l1 - l2, f - l1 - l2, ...
    assert images.tolist() == [list(u_point(lat, None, rows.tolist(), b)) for b in d]
    assert restriction(lat, [lat.zero], rows).tolist() == [[0, 0, 0]]
    sigma, x = SigmaModel(2, 4), np.array([[1, 3], [0, 2], [1, 1]])
    assert restriction(lat, d, x, sigma).tolist() == [[1, 1], [1, 3], [1, 1]]
    assert np.array_equal(restriction(lat, d, rows) @ x % (2, 4), restriction(lat, d, x, sigma))
    stack = np.stack([x, (x + 1) % (2, 4)])  # a stack of point sets restricts set by set
    assert np.array_equal(restriction(lat, d, stack, sigma)[1], restriction(lat, d, stack[1], sigma))


def invariance_direct(case, sigma, x):
    """u against u composed with the diagram automorphism, compared on the simple roots."""
    rho = case_fold(case)
    images = [u_point(rho.lattice, sigma, x, r) for r in rho.simple_system]
    return all(images[p] == images[i] for i, p in enumerate(rho.permutation))


def _both(case, sigma, *x):
    """The fixed-point condition in closed form and by direct comparison."""
    return invariance_closed_form(case, sigma, x), invariance_direct(case, sigma, x)


def test_invariance_b_case():
    sig = SigmaModel(2, 2)
    nonzero_tors = (1, 0)
    assert _both("B2", sig, nonzero_tors, (0, 1), (1, 1)) == (True, True)  # not the identity one
    assert _both("B2", SigmaModel(1, 5), (0, 1), (0, 2), (0, 3)) == (False, False)
    assert _both("B2", SigmaModel(1, 5), (0, 0), (0, 2), (0, 3)) == (True, True)


def test_invariance_g2_case():
    sig = SigmaModel(1, 7)
    a, b = (0, 2), (0, 3)
    assert _both("G2", sig, (0, 0), a, b, add(sig, a, b)) == (True, True)
    assert _both("G2", sig, (0, 0), a, b, (0, 1)) == (False, False)


def test_invariance_trivial_bundle_all_cases():
    for case in ("B2", "B3", "C2", "C3", "G2", "F4"):
        sig = SigmaModel(2, 2)
        n = case_spec(case).npoints
        assert _both(case, sig, *([(0, 0)] * n)) == (True, True)


def _all_assignments(sigma, n, zero_sum=False):
    els = list(sigma.elements())
    if not zero_sum:
        yield from product(els, repeat=n)
        return
    for head in product(els, repeat=n - 1):
        yield head + (neg(sigma, add(sigma, *head)),)


@pytest.mark.parametrize("m1,m2", [(2, 2), (3, 3)])
@pytest.mark.parametrize("case", ["B2", "C2", "G2", "F4"])
def test_closed_vs_direct_exhaustive(case, m1, m2):
    sigma = SigmaModel(m1, m2)
    n = case_spec(case).npoints
    zero_sum = case.startswith("C")
    checked = invariance_agreement_exhaustive(case, sigma)
    assert checked == sigma.order ** (n - 1 if zero_sum else n)


def drop_last_invariance_row(monkeypatch):
    """Make moduli read every case with the last row of Q removed."""
    spec_of = moduli.case_spec
    monkeypatch.setattr(moduli, "case_spec", lambda name: spec_of(name)._replace(
        invariance=spec_of(name).invariance[:-1]))


@pytest.mark.parametrize("case, first", [
    ("B2", ((0, 1), (0, 0), (0, 0))),
    ("C2", ((0, 0), (0, 0), (0, 1), (0, 2))),
    ("G2", ((0, 0), (0, 0), (0, 0), (0, 1))),
    ("F4", ((0, 0),) * 4 + ((0, 1), (0, 1))),
])
def test_agreement_fails_without_a_row_of_q(monkeypatch, case, first):
    # the closed form loses a condition, so it holds where the direct comparison fails;
    # the check names the first such tuple in product order, with plain ints
    drop_last_invariance_row(monkeypatch)
    with pytest.raises(AssertionError) as err:
        invariance_agreement_exhaustive(case, SigmaModel(3, 3))
    assert str(err.value) == f"{case}: closed form and direct comparison disagree at {first}"


def test_agreement_memory_is_bounded():
    sigma = SigmaModel(3, 3)
    invariance_agreement_exhaustive("F4", sigma)  # lattice and automorphism caches filled outside
    tracemalloc.start()
    try:
        checked = invariance_agreement_exhaustive("F4", sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checked == 9**6
    assert peak < 16 * 2**20


@pytest.mark.parametrize("case", ["B2", "C2", "G2", "F4"])
def test_vectorized_agreement_matches_scalar_path(case):
    # the vectorized helper and the per-assignment functions see the same truth
    sigma = SigmaModel(2, 4)
    n = case_spec(case).npoints
    rng = random.Random(13)
    els = list(sigma.elements())
    for _ in range(200):
        pts = [rng.choice(els) for _ in range(n)]
        if case.startswith("C"):
            pts[-1] = neg(sigma, add(sigma, *pts[:-1]))
        assert invariance_closed_form(case, sigma, pts) == invariance_direct(case, sigma, pts)


def test_literal_c_form_matches_for_n2_but_not_n3():
    sig = SigmaModel(3, 3)
    # n = 2: literal pairwise-torsion form is equivalent to the common-value form
    for pts in _all_assignments(sig, 4, zero_sum=True):
        assert invariance_literal_c(sig, pts) == invariance_closed_form("C2", sig, pts)
    # n = 3: the literal form admits strictly more assignments
    weaker_only = 0
    for pts in _all_assignments(sig, 6, zero_sum=True):
        lit, closed = invariance_literal_c(sig, pts), invariance_closed_form("C3", sig, pts)
        assert not (closed and not lit)
        if lit and not closed:
            weaker_only += 1
    assert weaker_only > 0


def test_fixed_component_counts():
    assert len(fixed_components("B3", SigmaModel(2, 2)).labels) == 4
    assert len(fixed_components("C2", SigmaModel(2, 2)).labels) == 4
    assert len(fixed_components("C3", SigmaModel(3, 3)).labels) == 9
    assert len(fixed_components("G2", SigmaModel(2, 2)).labels) == 4
    fc = fixed_components("C2", SigmaModel(1, 5))
    assert len(fc.labels) == 1 and not fc.full_torsion
    fc = fixed_components("B2", SigmaModel(2, 2))
    assert fc.labels[0] == (0, 0) and fc.full_torsion  # the trivial bundle's component


def test_component_labels_partition_solutions():
    # over (2,2), the B2 invariance locus is partitioned by the value of x1
    sigma = SigmaModel(2, 2)
    fc = fixed_components("B2", sigma)
    byl = {lab: 0 for lab in fc.labels}
    for pts in _all_assignments(sigma, 3):
        if invariance_closed_form("B2", sigma, pts):
            byl[pts[0]] += 1
    assert all(v == sigma.order ** case_spec("B2").rank for v in byl.values())


def test_system_matrices_and_determinants():
    assert abs(bareiss_det(case_system_matrix("B2"))) == 4
    assert abs(bareiss_det(case_system_matrix("B3"))) == 8
    assert abs(bareiss_det(case_system_matrix("C2"))) == 8
    assert abs(bareiss_det(case_system_matrix("G2"))) == 9
    assert bareiss_det(case_system_matrix("F4")) != 0


def _assignments(rows):
    """The (k, npoints, 2) point rows of a reconstruction block, as tuples of points."""
    return [tuple(map(tuple, pts)) for pts in rows.tolist()]


def folded_restriction(case, sigma, x):
    """The images of the folded simple roots under restriction, one assignment at a time."""
    lat = case_spec(case).lattice
    return tuple(u_point(lat, sigma, x, b) for b in folded_simple_system(case))


def test_reconstruct_trivial_and_unique():
    sig = SigmaModel(1, 5)
    res = reconstruct_points("B3", [[(0, 0)] * 3], sig)
    assert res.solvable[0] and res.kernel_size == 1
    assert all(p == (0, 0) for p in _assignments(res.table)[0])
    sig7 = SigmaModel(1, 7)
    for p in product(list(sig7.elements()), repeat=2):
        r = reconstruct_points("G2", [list(p)], sig7)
        assert r.solvable[0] and r.kernel_size == 1
    with pytest.raises(ValueError, match="stack of images"):
        reconstruct_points("G2", [(0, 1), (0, 2)], sig7)  # one image, not a stack of one


def _random_admissible(case, sigma, rng):
    els = list(sigma.elements())
    n = case_spec(case).npoints
    if case.startswith("B"):
        return ((0, 0), *(rng.choice(els) for _ in range(n - 1)))
    if case.startswith("C"):
        half = [rng.choice(els) for _ in range(n // 2)]
        return (*half, *(neg(sigma, p) for p in reversed(half)))
    if case == "G2":
        a, b = rng.choice(els), rng.choice(els)
        return ((0, 0), a, b, add(sigma, a, b))
    x1, x2, x3, p = (rng.choice(els) for _ in range(4))
    return (x1, x2, x3, *(add(sigma, p, neg(sigma, x)) for x in (x3, x2, x1)))


@pytest.mark.parametrize("case", ["B2", "B3", "C2", "C3", "G2", "F4"])
def test_reconstruction_round_trip(case):
    rng = random.Random(42)
    for sigma in (SigmaModel(2, 2), SigmaModel(2, 4), SigmaModel(1, 5)):
        for _ in range(25):
            x = _random_admissible(case, sigma, rng)
            p_imgs = folded_restriction(case, sigma, x)
            res = reconstruct_points(case, [p_imgs], sigma)
            assert res.solvable[0]
            block = _assignments(res.table)
            assert x in block
            # every returned assignment restricts back to the same data
            for cand in block:
                assert folded_restriction(case, sigma, cand) == tuple(p_imgs)
            assert len(block) == res.kernel_size


@pytest.mark.parametrize("case", ["B2", "C2", "G2"])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_stacked_reconstruction_is_blockwise_the_single_image_result(case, m):
    # every t in Sigma^rank at once; at 5 x 5 the map t -> M P t is injective
    sigma = SigmaModel(m, m)
    t = np.array(list(product(sigma.elements(), repeat=case_spec(case).rank)), dtype=np.int64)
    x = moduli.point_table(case, t, sigma)
    imgs = moduli.folded_images(case, x, sigma)
    stack = reconstruct_points(case, imgs, sigma)
    assert stack.solvable.all() and stack.contains(x, np.arange(len(x))).all()
    moved = x.copy()  # x1 + (0, 1) breaks the case's point relations
    moved[:, 0, 1] = (moved[:, 0, 1] + 1) % m
    assert not stack.contains(moved, np.arange(len(x))).any()
    assert np.array_equal(stack.image, np.repeat(np.arange(len(t)), stack.kernel_size))
    assert np.array_equal(moduli.folded_images(case, stack.table, sigma), imgs[stack.image])
    assert not stack.table.flags.writeable
    for i, img in enumerate(imgs.tolist()):
        block, one = stack.table[stack.image == i], reconstruct_points(case, [img], sigma)
        assert (stack.solvable[i], stack.kernel_size) == (one.solvable[0], one.kernel_size)
        assert np.array_equal(block, one.table)
        pts = tuple(map(tuple, x[i].tolist()))
        assert pts in _assignments(block)
        assert folded_restriction(case, sigma, pts) == tuple(map(tuple, img))
    if m == 5:
        assert stack.kernel_size == 1 and len(stack.table) == len(t)


@pytest.mark.parametrize("case", ["B2", "C2", "G2", "F4"])
@pytest.mark.parametrize("m", [2, 3])
def test_draws_are_looked_up_in_the_block_of_their_own_image(case, m):
    # one solve per distinct image: each draw lies in its own image's block, in no other
    sigma, rng = SigmaModel(m, m), np.random.default_rng(5)
    x = moduli.point_table(case, rng.integers(0, m, (30, case_spec(case).rank, 2)), sigma)
    images = moduli.folded_images(case, x, sigma)
    first, block = moduli.distinct_images(images)
    assert np.array_equal(images[first][block], images)
    assert len(np.unique(images[first].reshape(len(first), -1), axis=0)) == len(first)
    res = reconstruct_points(case, images[first], sigma)
    assert res.contains(x, block).all()
    for shift in range(1, len(first)):
        assert not res.contains(x, (block + shift) % len(first)).any()
    assert reconstruct_points(case, images, sigma).contains(x, np.arange(len(x))).all()
    # a block short of a draw's row: that draw alone is missed
    keep = ~(res.table == x[0]).all(axis=(1, 2))
    short = moduli.ReconstructionStack(res.solvable, res.kernel_size, res.table[keep],
                                       res.image[keep])
    found = short.contains(x, block)
    assert not found[0] and found[~(x == x[0]).all(axis=(1, 2))].all()


@pytest.mark.parametrize("group", [(2, 2), (1, 2**16)])
def test_distinct_images_group_the_rows_of_the_stack(group):
    # a small group, and one whose images have |Sigma|^4 = 2^64 possible values
    rng = np.random.default_rng(11)
    pool = np.stack([rng.integers(0, group[0], (5, 4)), rng.integers(0, group[1], (5, 4))], axis=-1)
    images = pool[rng.integers(0, 5, 40)]
    first, block = moduli.distinct_images(images)
    assert np.array_equal(images[first][block], images)
    rows = [tuple(r) for r in images.reshape(40, -1).tolist()]
    assert len(first) == len(set(rows)) and block.shape == (40,)


@pytest.mark.parametrize("case", ["B2", "C2", "G2"])
@pytest.mark.parametrize("m1,m2,other", [(2, 2, (1, 4)), (3, 3, (1, 9))])
def test_reconstruction_membership_matches_the_assignments(case, m1, m2, other):
    # over Sigma and over the cyclic group of its order, every t in Sigma^rank
    for sigma in (SigmaModel(m1, m2), SigmaModel(*other)):
        for t in product(list(sigma.elements()), repeat=case_spec(case).rank):
            x = moduli.point_table(case, np.array([t], dtype=np.int64), sigma)
            res = reconstruct_points(case, moduli.folded_images(case, x, sigma), sigma)
            rows = _assignments(res.table)
            assert res.contains(x, [0])[0] and _assignments(x)[0] in rows
            moved = x.copy()  # x1 + (0, 1)
            moved[0, 0, 1] = (moved[0, 0, 1] + 1) % sigma.m2
            assert not res.contains(moved, [0])[0] and _assignments(moved)[0] not in rows
            with pytest.raises(ValueError):
                res.table[0, 0, 0] = 1


@pytest.mark.parametrize(
    "case,m1,m2",
    [("B2", 2, 2), ("B2", 3, 3), ("B3", 2, 2), ("B3", 3, 3),
     ("C2", 2, 2), ("C2", 3, 3), ("G2", 2, 2), ("G2", 3, 3)],
)
def test_chi_injectivity_small(case, m1, m2):
    rep = chi_injectivity_check(case, SigmaModel(m1, m2))
    assert rep.passed, rep.counterexample


def test_chi_budget_respected():
    with pytest.raises(BudgetExceededError):
        chi_injectivity_check("F4", SigmaModel(2, 2), action_cap=10)


def test_chi_refuses_a_small_group_that_does_not_commute_with_sigma(monkeypatch):
    # W_big in place of W_small: its generators do not commute with sigma, the first check
    def big_as_small(case, cap=10**6):
        rho = case_fold(case)
        return weyl_generate(simple_reflections(rho.simple_system, rho.lattice))

    monkeypatch.setattr(moduli, "folded_weyl_group", big_as_small)
    with pytest.raises(ValueError, match="B2: the small group does not commute with sigma"):
        chi_injectivity_check("B2", SigmaModel(2, 2))


def test_chi_walk_budget_refuses_before_allocating():
    # B2 in A3 at Sigma = Z/30: the code tables hold 1 + 30^3 entries, the generator and
    # coset maps (3 + 2 + 3) (1 + 30^2) and the label and coset maps 30^2 (2 + 3)
    with pytest.raises(BudgetExceededError, match=r"^38709 entries \(900 domain elements, "
                                                   r"3 cosets of W\(G\)\) exceed the action cap 25000$"):
        chi_injectivity_check("B2", SigmaModel(1, 30), action_cap=25_000)


def test_chi_memory_is_bounded():
    sigma = SigmaModel(3, 3)
    for case, want in (("B3", (True, 729, 35)), ("F4", (True, 6561, 40))):
        with pytest.raises(BudgetExceededError) as refused:
            chi_injectivity_check(case, sigma, action_cap=0)
        estimate = int(str(refused.value).split()[0])  # the entries the check stores
        chi_injectivity_check(case, sigma, action_cap=10**10)  # lattice and automorphism caches
        tracemalloc.start()
        try:
            rep = chi_injectivity_check(case, sigma, action_cap=10**10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rep.passed, rep.domain_size, rep.orbits_checked) == want
        # the estimate counts int64 entries: the peak stays within twice their bytes
        # (B3 ~1.3x, F4 ~0.3x), and for F4 nothing sized |Sigma|^6 = 531,441 is allocated:
        # the domain state is a few int64 vectors of 6,561 entries, and coordinates are
        # taken per factor, not per domain tuple
        assert peak < 2 * 8 * estimate, (case, peak, estimate)
        if case == "F4":
            assert estimate == 331_857 and peak < 2 * 2**20


def _encode(arrs, base):
    """Pack rows of stacked small nonneg integer arrays into int64 keys."""
    flat = np.concatenate(arrs, axis=-1).astype(np.int64)
    weights = base ** np.arange(flat.shape[-1], dtype=np.int64)
    return flat @ weights


def full_group_chi_check(case, sigma):
    """The chi check applying every element of W_big and W_small to each representative.

    Reference for ``chi_injectivity_check``, which closes both orbits under
    the generators instead; the elements come from the closure oracle.
    Looks up ``moduli.folded_weyl_group`` at call time, so a monkeypatched
    small group reaches both.
    """
    rho = case_fold(case)
    delta, lat = rho.simple_system, rho.lattice
    w_big = einsum_closure_stack(weyl_generate(simple_reflections(delta, lat)).mats, 10**6)
    w_small = einsum_closure_stack(moduli.folded_weyl_group(case).mats, 10**6)
    basis = fixed_sublattice(rho)
    k = len(basis)
    m_big = restrict_to_basis(w_big, delta, lat)
    m_small = restrict_to_basis(w_small, delta, lat)
    embed = np.array(
        [decompose_in_basis(b, delta) for b in basis], dtype=np.int64
    ).T
    mods = (sigma.m1, sigma.m2)
    base = max(mods) if max(mods) > 1 else 2
    coords1 = np.array(list(product(range(mods[0]), repeat=k)), dtype=np.int64)
    coords2 = np.array(list(product(range(mods[1]), repeat=k)), dtype=np.int64)
    i1 = np.repeat(np.arange(coords1.shape[0]), coords2.shape[0])
    i2 = np.tile(np.arange(coords2.shape[0]), coords1.shape[0])
    dom1 = coords1[i1] @ embed.T % mods[0]
    dom2 = coords2[i2] @ embed.T % mods[1]
    dom_keys = _encode([dom1, dom2], base)
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
        small_keys = set(_encode([small1, small2], base).tolist())
        big1 = np.einsum("nij,j->ni", m_big, v1) % mods[0]
        big2 = np.einsum("nij,j->ni", m_big, v2) % mods[1]
        big_keys = set(_encode([big1, big2], base).tolist())
        reachable_in_domain = big_keys & dom_key_set
        if reachable_in_domain != small_keys:
            stray = sorted(reachable_in_domain - small_keys)[0]
            x_idx, y_idx = key_to_tuple[key], key_to_tuple[stray]
            cx = (tuple(coords1[i1[x_idx]]), tuple(coords2[i2[x_idx]]))
            cy = (tuple(coords1[i1[y_idx]]), tuple(coords2[i2[y_idx]]))
            return moduli.ChiReport(False, dom_keys.shape[0], orbits, (cx, cy))
        done |= small_keys
    return moduli.ChiReport(True, dom_keys.shape[0], orbits, None)


@pytest.mark.parametrize(
    "case,m1,m2",
    [(case, m1, m2) for case in ("B2", "B3", "C2", "G2")
     for m1, m2 in ((2, 2), (3, 3), (2, 4), (1, 6))] + [("F4", 2, 2)],
)
def test_chi_generator_orbits_match_full_group(case, m1, m2):
    sigma = SigmaModel(m1, m2)
    rep = chi_injectivity_check(case, sigma)
    assert rep.passed
    assert rep == full_group_chi_check(case, sigma)


NOT_THE_CENTRALIZER = "the small group is not the centralizer of sigma"


@pytest.mark.parametrize(
    "case,m1,m2",
    [pytest.param(case, 2, 2, id=case) for case in ("B2", "G2", "F4")]
    + [(case, m1, m2) for case in ("B2", "G2") for m1, m2 in ((2, 4), (1, 6))],
)
def test_chi_forced_failure_matches_full_group(case, m1, m2, monkeypatch):
    # a trivial small group, under which the oracle finds a counterexample, is refused:
    # it commutes with sigma and lies in W_big, but |T| alone is not |W_big|
    monkeypatch.setattr(moduli, "folded_weyl_group", lambda case, cap=10**6: weyl_generate(
        [], rank=case_spec(case).lattice.rank))
    sigma = SigmaModel(m1, m2)
    assert not full_group_chi_check(case, sigma).passed
    with pytest.raises(ValueError, match=f"^{case}: {NOT_THE_CENTRALIZER}: "):
        chi_injectivity_check(case, sigma)


class _LabelledByFewer:
    """W(G) to the certificate (``gens`` and the order), one generator fewer to the labels.

    The check restricts ``mats`` to label the orbits, and so does ``full_group_chi_check``:
    both then read the subgroup H of the other generators in place of W(G).
    """

    def __init__(self, group, drop):
        self.gens, self.order = group.gens, len(group)
        self.mats = np.delete(group.mats, drop, axis=0)

    def __len__(self):
        return self.order


@pytest.mark.parametrize("case,m,drop", [("F4", (2, 2), 1), ("F4", (2, 2), 3),
                                         ("C2", (3, 3), 1), ("C2", (1, 4), 1)])
def test_chi_counterexample_under_a_smaller_labelling_matches_full_group(case, m, drop,
                                                                         monkeypatch):
    # the counterexample branch, reached past a certificate that reads the full W(G): a
    # tau x in the domain outside its H-orbit is in the big orbit and not in the small
    # one, so the check fails no earlier than the oracle, which labels by H too; its x and
    # y lie in one W(G~)-orbit and in different H-orbits, both closed by the oracle
    folded = moduli.folded_weyl_group
    monkeypatch.setattr(moduli, "folded_weyl_group",
                        lambda case, cap=10**6: _LabelledByFewer(folded(case, cap), drop))
    sigma = SigmaModel(*m)
    rep, oracle = chi_injectivity_check(case, sigma), full_group_chi_check(case, sigma)
    assert not rep.passed and not oracle.passed
    assert rep.domain_size == oracle.domain_size and rep.orbits_checked >= oracle.orbits_checked
    rho = case_fold(case)
    x, y = (_cycle_point(case, point, sigma) for point in rep.counterexample)
    big = weyl_generate(simple_reflections(rho.simple_system, rho.lattice)).mats
    assert y in _closure_orbit(case, big, x, sigma)
    assert y not in _closure_orbit(case, moduli.folded_weyl_group(case).mats, x, sigma)


def _cycle_point(case, point, sigma):
    """The point of Sigma^r' with the per-factor coordinates ``point`` in the cycle sums."""
    rho = case_fold(case)
    embed = np.array([decompose_in_basis(b, rho.simple_system) for b in fixed_sublattice(rho)],
                     dtype=np.int64).T
    return tuple(tuple((embed @ np.array(c, dtype=np.int64) % m).tolist())
                 for c, m in zip(point, (sigma.m1, sigma.m2)))


def _closure_orbit(case, mats, x, sigma):
    """The orbit of the point x = (x1, x2) under the group of mats, every element applied."""
    rho = case_fold(case)
    group = restrict_to_basis(einsum_closure_stack(mats, 10**6), rho.simple_system, rho.lattice)
    images = [group @ np.array(xj, dtype=np.int64) % m for xj, m in zip(x, (sigma.m1, sigma.m2))]
    return {(tuple(a), tuple(b)) for a, b in zip(*(im.tolist() for im in images))}


def _chi_domain(case, sigma):
    """(report, per-factor domain points) of ``chi_injectivity_check``, read off its frame."""
    local = {}

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is chi_injectivity_check.__code__:
            local.update(frame.f_locals)

    sys.setprofile(profile)
    try:
        rep = chi_injectivity_check(case, sigma)
    finally:
        sys.setprofile(None)
    return rep, local["pts"]


@pytest.mark.parametrize("m", [(1, 2), (2, 2), (3, 3), (1, 4)], ids=lambda m: f"{m[0]}x{m[1]}")
@pytest.mark.parametrize("case", ["B2", "B3", "B4", "C2", "C3", "G2", "F4"])
def test_chi_domain_is_the_fixed_points_of_sigma(case, m):
    # each factor's domain is exactly the points of (Z/m_j)^r' that P fixes, x_{p(i)} = x_i,
    # found by brute force, each once: no fixed point is left out
    perm = case_fold(case).permutation
    rep, pts = _chi_domain(case, SigmaModel(*m))
    for points, mj in zip(pts, m):
        fixed = {x for x in product(range(mj), repeat=len(perm))
                 if all(x[p] == x[i] for i, p in enumerate(perm))}
        rows = [tuple(row) for row in points.tolist()]
        assert len(rows) == len(set(rows)) and set(rows) == fixed
    assert rep.passed and rep.domain_size == len(pts[0]) * len(pts[1])


@pytest.mark.parametrize(
    "case,class_size",
    [("B2", 3), ("B3", 4), ("B4", 5), ("B5", 6), ("C2", 3), ("C3", 15), ("C4", 105),
     ("G2", 16), ("F4", 45)],
)
def test_folded_group_is_the_centralizer_of_sigma(case, class_size):
    # the certificate of chi_injectivity_check: W(G) commutes with sigma and has the
    # order of its centralizer, |W(G~)| / |class of sigma|
    rho = case_fold(case)
    lat = rho.lattice
    w_big, w_small = ambient_weyl_group(case), moduli.folded_weyl_group(case)
    big, small = (restrict_to_basis(g.mats, rho.simple_system, lat) for g in (w_big, w_small))
    perm = np.eye(len(rho.permutation), dtype=np.int64)[:, list(rho.permutation)]
    assert (small @ perm == perm @ small).all()
    us, taus = conjugacy_class_walk(perm, big)
    assert len(taus) == class_size
    assert (taus @ us == np.eye(len(perm), dtype=np.int64)).all()
    assert class_size * len(w_small) == len(w_big)


def _drop_generator(monkeypatch, drop):
    """Monkeypatch the small group to the one of every folded generator but ``drop``."""
    folded = moduli.folded_weyl_group

    def fewer(case, cap=10**6):
        gens = folded(case, cap).gens
        return weyl_generate([g for i, g in enumerate(gens) if i != drop],
                             rank=case_spec(case).lattice.rank)

    monkeypatch.setattr(moduli, "folded_weyl_group", fewer)
    return folded


@pytest.mark.parametrize("case,drop", [("B3", 0), ("B3", 2), ("F4", 1), ("F4", 3)])
def test_chi_with_a_proper_subgroup_matches_full_group(case, drop, monkeypatch):
    # a nontrivial proper subgroup of the centralizer, under which the oracle finds a
    # counterexample, fails the certificate
    folded = _drop_generator(monkeypatch, drop)
    sigma = SigmaModel(2, 2)
    assert 1 < len(moduli.folded_weyl_group(case)) < len(folded(case))
    assert not full_group_chi_check(case, sigma).passed
    with pytest.raises(ValueError, match=f"^{case}: {NOT_THE_CENTRALIZER}: "):
        chi_injectivity_check(case, sigma)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("B2", "C2", "G2")),
       st.sampled_from([(m1, m2) for m1 in range(1, 9) for m2 in range(m1, 9)
                        if m2 % m1 == 0 and m1 * m2 <= 8]),
       st.sampled_from((None, 0, 1)))
def test_chi_matches_full_group_over_small_sigma(case, m, drop):
    # W(G) itself matches the oracle; with one folded generator dropped the certificate
    # fails, also where the oracle passes the smaller group (B2 and C2 at 2 x 2)
    sigma = SigmaModel(*m)
    if drop is None:
        assert chi_injectivity_check(case, sigma) == full_group_chi_check(case, sigma)
        return
    with pytest.MonkeyPatch.context() as mp:
        _drop_generator(mp, drop)
        with pytest.raises(ValueError, match=f"^{case}: {NOT_THE_CENTRALIZER}: "):
            chi_injectivity_check(case, sigma)


def test_chi_refuses_a_small_group_outside_the_big_one(monkeypatch):
    # -1 preserves the domain and commutes with sigma, but is not in W(A3)
    monkeypatch.setattr(moduli, "folded_weyl_group", lambda case, cap=10**6: weyl_generate(
        [WeylElement.from_matrix(-np.eye(case_spec(case).lattice.rank, dtype=np.int64))]))
    with pytest.raises(ValueError, match="not a subgroup of the big one"):
        chi_injectivity_check("B2", SigmaModel(2, 2))
