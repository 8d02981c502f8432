import random
import tracemalloc
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picfold import abelian, repbundles
from picfold.abelian import SigmaModel
from picfold._linalg import rational_solve
from picfold.configs import enumerate_exceptional_systems
from picfold.folding import case_points, fixed_sublattice, folded_root_system, outer_automorphism
from picfold.lattice import F1, P2, DivisorClass, make_blowup_lattice
from picfold.moduli import invariance_agreement_exhaustive, restriction
from picfold.repbundles import (
    ConstraintViolatedError,
    f4_rep_decomposition,
    g2_triple_locus,
    spinor_locus,
    wedge_locus,
    wedge_power,
    weight_bundle,
)
from point_oracles import (
    add,
    check_identification,
    combine,
    dual,
    holds,
    line_class_of,
    neg,
    restrict_bundle,
    scale,
    tensor_line,
    twisted_identity,
    u_point,
)

from test_moduli import drop_last_invariance_row


@pytest.fixture(scope="module")
def lat3():
    return make_blowup_lattice(F1, 3)


@pytest.fixture(scope="module")
def lat4():
    return make_blowup_lattice(F1, 4)


@pytest.fixture(scope="module")
def cubic():
    return make_blowup_lattice(P2, 6)


def test_bundle_ranks(lat3, lat4, cubic):
    assert len(weight_bundle("vector", lat4)) == 8
    assert len(weight_bundle("spinor_plus", lat4)) == 8
    assert len(weight_bundle("spinor_minus", lat4)) == 8
    assert len(weight_bundle("spinor_plus", lat3)) == 4
    assert len(weight_bundle("standard", lat4)) == 4
    assert len(weight_bundle("lines", cubic)) == 27
    assert set(weight_bundle("standard", lat4)) == {
        lat4.l(i) for i in range(1, 5)
    }
    for kind in ("vector", "spinor_plus", "spinor_minus", "standard"):  # a bundle is sorted
        assert weight_bundle(kind, lat4) == tuple(sorted(weight_bundle(kind, lat4)))


def _free_rows(k):
    """The coefficient rows of k free points x_i = t_i."""
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


def test_degree_bookkeeping(lat4):
    for kind, deg in [("vector", 1), ("spinor_plus", 1), ("spinor_minus", 0)]:
        bundle = weight_bundle(kind, lat4)
        restricted = restrict_bundle(bundle, lat4, None, _free_rows(4))
        assert all(d == deg for d, _ in restricted)
        assert [d for d, _ in restricted] == sorted(lat4.deg(s) for s in bundle)
    det = sum(weight_bundle("standard", lat4), lat4.zero)
    assert lat4.deg(det) == 4


def test_vector_restriction_is_plus_minus_points(lat4):
    rows = _free_rows(4)
    got = restrict_bundle(weight_bundle("vector", lat4), lat4, None, rows)
    expected = sorted([(1, x) for x in rows] + [(1, neg(None, x)) for x in rows])
    assert list(got) == expected
    # the array restriction on the same rows: the points +-x_i, one row per summand
    u = restriction(lat4, weight_bundle("vector", lat4), np.eye(4, dtype=np.int64))
    assert sorted(map(tuple, u.tolist())) == sorted(p for _, p in expected)


def test_symbolic_spinor_display_three_points(lat3):
    # generic four-summand spinor restrictions over three blown-up points
    x = _free_rows(3)
    plus = restrict_bundle(weight_bundle("spinor_plus", lat3), lat3, None, x)
    pairs = [neg(None, add(None, x[i], x[j])) for i, j in ((0, 1), (0, 2), (1, 2))]
    total = neg(None, add(None, *x))
    assert sorted(plus) == sorted([(1, (0, 0, 0))] + [(1, q) for q in pairs])
    minus = restrict_bundle(weight_bundle("spinor_minus", lat3), lat3, None, x)
    assert sorted(minus) == sorted(
        [(0, neg(None, q)) for q in x] + [(0, total)]
    )
    # with x1 = 0 the twisted identity holds symbolically
    x0 = ((0, 0, 0),) + x[1:]
    assert twisted_identity(lat3, None, x0, "spinor_plus", -lat3.l(1), "spinor_minus")
    # and fails for generic points
    assert not twisted_identity(lat3, None, x, "spinor_plus", -lat3.l(1), "spinor_minus")


def test_spinor_identity_iff_zero_point_exhaustive(lat3):
    sigma = SigmaModel(5, 5)
    ident, zero = spinor_locus(lat3, sigma)
    assert ident.shape == (3, 5**6)
    for i in range(3):
        assert np.array_equal(ident[i], zero[i])
    assert np.array_equal(ident.any(axis=0), zero.any(axis=0))


def _g2_masks(lat, sigma):
    """The full masks of the three triality identities and the G2 relations, on every tuple."""
    masks = repbundles._locus_masks(lat, sigma, np.eye(4, dtype=np.int64),
                                    repbundles._triality_identities(lat),
                                    [case_points("G2").relations])
    return dict(zip(("sp_sm", "w_sp", "w_sm", "relations"), masks))


def test_g2_triple_identification_iff_conditions(lat4):
    sigma = SigmaModel(5, 5)
    masks = _g2_masks(lat4, sigma)
    # the spinor half detects x1 = 0, the vector half detects x1+x2+x3 = x4
    # tuples come in product order, so x1 = 0 exactly on the first |Sigma|^3 of them
    assert np.array_equal(masks["sp_sm"], np.arange(sigma.order**4) < sigma.order**3)
    combined = masks["sp_sm"] & masks["w_sp"]
    rhs = masks["relations"]
    assert np.array_equal(combined, rhs)
    # the remaining vector/spinor comparison holds on the whole locus and
    # forces a vanishing point wherever it holds
    assert np.all(~rhs | masks["w_sm"])
    # the claim's result: the same verdicts, with w_sm read on the locus only
    locus = g2_triple_locus(lat4, sigma)
    assert np.array_equal(locus.identity, combined) and np.array_equal(locus.relations, rhs)
    assert np.array_equal(locus.w_sm, masks["w_sm"][rhs]) and locus.w_sm.all()


@pytest.mark.parametrize("m1,m2", [(m1, m2) for m2 in range(1, 9) for m1 in range(1, m2 + 1)
                                   if m2 % m1 == 0 and m1 * m2 <= 8])
def test_g2_triple_identifies_the_locus_only_at_odd_order(lat4, m1, m2):
    # at even |Sigma| the identities hold on more tuples than the relations: the claim's
    # 5 x 5 is an odd order.  The relation locus is always |Sigma|^2 tuples, and w_sm holds on it
    sigma = SigmaModel(m1, m2)
    locus = g2_triple_locus(lat4, sigma)
    held = {(1, 2): 8, (2, 2): 64, (1, 4): 68, (2, 4): 400, (1, 6): 72, (1, 8): 164}
    assert int(locus.relations.sum()) == sigma.order**2
    assert int(locus.identity.sum()) == held.get((m1, m2), sigma.order**2)
    assert (sigma.order % 2 == 1) == np.array_equal(locus.identity, locus.relations)
    assert np.all(locus.identity | ~locus.relations) and locus.w_sm.all()


def test_spinor_walk_reads_every_form_it_walks(lat3, monkeypatch):
    # a summand that cancels on both sides of a pair has no row: 12 forms, all of them read
    plans, walked = [], []
    plan, walk = repbundles._locus_plan, SigmaModel.form_chunks

    def plan_spy(*args, **kwargs):
        plans.append(plan(*args, **kwargs))
        return plans[-1]

    def walk_spy(self, forms):
        walked.append(forms)
        return walk(self, forms)

    monkeypatch.setattr(repbundles, "_locus_plan", plan_spy)
    monkeypatch.setattr(SigmaModel, "form_chunks", walk_spy)
    spinor_locus(lat3, SigmaModel(5, 5))
    [(forms, tests)], [seen] = plans, walked
    read = {r for test in tests for group in test for side in group for r in side}
    assert seen is forms and forms.shape == (12, 3)
    assert read == set(range(len(forms)))


def test_a_pair_that_cancels_completely_holds_everywhere(lat4):
    # both sides the same bundle: nothing is left to compare, and no form is walked
    sp = weight_bundle("spinor_plus", lat4)
    forms, tests = repbundles._locus_plan(lat4, np.eye(4, dtype=np.int64),
                                          [((sp, lat4.zero), (sp, lat4.zero))])
    assert forms.shape == (0, 4) and tests == [()]
    mask = repbundles._locus_masks(lat4, SigmaModel(2, 2), np.eye(4, dtype=np.int64),
                                   [((sp, lat4.zero), (sp, lat4.zero))])
    assert mask.shape == (1, 4**4) and mask.all()


def test_g2_identity_invariant_under_configuration_action(lat4):
    sigma = SigmaModel(5, 5)
    rng = random.Random(8)
    els = list(sigma.elements())
    systems = enumerate_exceptional_systems("G2")
    for _ in range(5):
        a, b = rng.choice(els), rng.choice(els)
        x = ((0, 0), a, b, add(sigma, a, b))
        base = (
            twisted_identity(lat4, sigma, x, "spinor_plus", -lat4.l(1), "spinor_minus")
            and twisted_identity(lat4, sigma, x, "vector", lat4.s - lat4.l(4), "spinor_plus")
        )
        assert base
        for system in systems:
            moved = tuple(u_point(lat4, sigma, x, e) for e in system)
            again = (
                twisted_identity(lat4, sigma, moved, "spinor_plus", -lat4.l(1), "spinor_minus")
                and twisted_identity(lat4, sigma, moved, "vector", lat4.s - lat4.l(4),
                                     "spinor_plus")
            )
            assert again


def test_wedge_powers(lat4):
    v = weight_bundle("standard", lat4)
    w2 = wedge_power(v, 2)
    assert len(w2) == 6 and w2 == tuple(sorted(w2))
    assert set(w2) == {
        lat4.l(i) + lat4.l(j) for i in range(1, 5) for j in range(i + 1, 5)
    }
    top = wedge_power(v, 4)
    assert len(top) == 1
    assert top[0] == sum((lat4.l(i) for i in range(2, 5)), lat4.l(1))
    assert wedge_power(v, 1) == v
    with pytest.raises(ValueError):
        wedge_power(v, 5)


def _checked(sigma, pts, relations):
    """The points pts, which must satisfy the relation rows."""
    assert holds(relations, sigma, pts)
    return tuple(pts)


def test_determinant_restricts_to_trivial_point(lat4):
    # with points summing to zero, det(standard) = (2n, 0)
    sigma = SigmaModel(1, 9)
    pts = [(0, 2), (0, 3), (0, 1), (0, 3)]
    x = _checked(sigma, pts, outer_automorphism("A", lat4).zero_sums)
    det = sum((lat4.l(i) for i in range(2, 5)), lat4.l(1))
    assert line_class_of(lat4, sigma, x, det) == (4, (0, 0))


def test_wedge_identity_iff_pairing_exhaustive():
    lat = make_blowup_lattice(F1, 4)
    sigma = SigmaModel(7, 7)
    identity, paired = wedge_locus(lat, sigma)
    assert identity.shape[0] == 49**3
    assert np.array_equal(identity, paired)


def test_middle_wedge_self_dual_under_constraint(lat4):
    sigma = SigmaModel(7, 7)
    rng = random.Random(3)
    els = list(sigma.elements())
    v = weight_bundle("standard", lat4)
    mid = wedge_power(v, 2)
    for _ in range(100):
        a, b = rng.choice(els), rng.choice(els)
        x = _checked(sigma, (a, b, neg(sigma, b), neg(sigma, a)), case_points("C2").relations)
        restricted = restrict_bundle(mid, lat4, sigma, x)
        det = line_class_of(lat4, sigma, x, sum((lat4.l(i) for i in range(2, 5)), lat4.l(1)))
        other = tensor_line(dual(restricted, sigma), det, sigma)
        assert check_identification(restricted, other)


def _point(pair):
    """(degree, point) of the decomposition, with the point array as a tuple of ints."""
    return pair[0], tuple(pair[1].tolist())


def test_f4_rep_decomposition(cubic):
    sigma = SigmaModel(5, 5)
    rng = random.Random(17)
    els = list(sigma.elements())
    h, l = cubic.h, cubic.l
    for _ in range(5):
        x1, x2, x3, p = (rng.choice(els) for _ in range(4))
        pts = (x1, x2, x3, *(add(sigma, p, neg(sigma, x)) for x in (x3, x2, x1)))
        x = _checked(sigma, pts, case_points("F4").relations)
        dec = f4_rep_decomposition(cubic, np.array(x), sigma)
        assert dec.trace_kernel_rank == 2
        assert _point(dec.common_class) == (1, neg(sigma, p))
        assert _point(dec.kernel_det) == (2, scale(sigma, -2, p))
        assert len(dec.short_root_map) == 24
        assert dec.zero_lines == tuple(sorted(h - l(i) - l(7 - i) for i in (1, 2, 3)))
        assert sum(dec.zero_lines, cubic.zero) == -cubic.K
        for e, img in dec.short_root_map.items():  # the image root restricts to 2 (u(e) + p)
            assert u_point(cubic, sigma, x, img) == scale(sigma, 2, add(sigma, u_point(
                cubic, sigma, x, e), p))
    # rejects assignments violating the constraint
    bad = np.array(((0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0)))
    with pytest.raises(ConstraintViolatedError):
        f4_rep_decomposition(cubic, bad, sigma)
    with pytest.raises(ConstraintViolatedError):
        f4_rep_decomposition(cubic, bad[:5], sigma)


def test_fixed_part_projection_matches_rational_solve(cubic):
    # oracle: solve the basis Gram system over Q for each line, then double the projection
    lines = weight_bundle("lines", cubic)
    basis = fixed_sublattice(outer_automorphism("E6", cubic))
    gram = [[cubic.pair(a, b) for b in basis] for a in basis]
    for line, img in zip(lines, repbundles._fixed_part_projection(cubic, lines)):
        sol = rational_solve(gram, [cubic.pair(line, b) for b in basis])
        want = [2 * sum(c * b.coords[t] for c, b in zip(sol, basis)) for t in range(cubic.rank)]
        assert all(v.denominator == 1 for v in want)
        assert img.coords == tuple(int(v) for v in want)


def test_f4_decomposition_symbolic(cubic):
    # generic check with formal parameters x1, x2, x3, p: the points are their rows
    rows = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, -1, 1), (0, -1, 0, 1), (-1, 0, 0, 1))
    _checked(None, rows, case_points("F4").relations)
    dec = f4_rep_decomposition(cubic, rows)
    assert _point(dec.common_class) == (1, (0, 0, 0, -1))
    assert _point(dec.kernel_det) == (2, (0, 0, 0, -2))
    assert len(set(dec.short_root_map.values())) == 24
    # the rows P of the case's points, t = (x1, x2, x3, x4): p = x3 + x4
    claim = f4_rep_decomposition(cubic, case_points("F4").points)
    assert (claim.zero_lines, claim.short_root_map) == (dec.zero_lines, dec.short_root_map)
    assert _point(claim.common_class) == (1, (0, 0, -1, -1))


_CUBIC = make_blowup_lattice(P2, 6)
_SMALL_SIGMAS = [(m1, m2) for m2 in range(1, 26) for m1 in range(1, m2 + 1)
                 if m2 % m1 == 0 and m1 * m2 <= 25]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_SMALL_SIGMAS), st.data(),
       st.lists(st.lists(st.integers(-3, 3), min_size=7, max_size=7), max_size=4))
def test_exact_f4_decomposition_specialises_to_every_group(group, data, drawn):
    # x = P t mod Sigma for t in Sigma^4: the exact run on P, specialised at t, is the run on x
    sigma, mods = SigmaModel(*group), np.array(group)
    t = np.array(data.draw(st.lists(st.sampled_from(list(sigma.elements())), min_size=4,
                                    max_size=4)), dtype=np.int64)
    p = np.array(case_points("F4").points, dtype=np.int64)
    x = p @ t % mods
    exact, dec = f4_rep_decomposition(_CUBIC, p), f4_rep_decomposition(_CUBIC, x, sigma)
    assert (dec.zero_lines, dec.short_root_map) == (exact.zero_lines, exact.short_root_map)
    assert dec.trace_kernel_rank == exact.trace_kernel_rank
    for got, want in ((dec.common_class, exact.common_class), (dec.kernel_det, exact.kernel_det)):
        assert got[0] == want[0] and np.array_equal(got[1], want[1] @ t % mods)
    # the restriction commutes with the specialisation
    classes = (weight_bundle("lines", _CUBIC) + folded_root_system("F4") + (_CUBIC.h, _CUBIC.K)
               + tuple(DivisorClass(tuple(c)) for c in drawn))
    assert np.array_equal(restriction(_CUBIC, classes, p) @ t % mods,
                          restriction(_CUBIC, classes, x, sigma))


def _all_loci(sigma):
    lat3, lat4 = make_blowup_lattice(F1, 3), make_blowup_lattice(F1, 4)
    return (*spinor_locus(lat3, sigma), *_g2_masks(lat4, sigma).values(),
            *g2_triple_locus(lat4, sigma), *wedge_locus(lat4, sigma))


@pytest.mark.parametrize("m1, m2", [(2, 2), (1, 3), (1, 4)])
def test_loci_match_the_scalar_oracle(lat3, lat4, m1, m2):
    sigma = SigmaModel(m1, m2)
    els = list(sigma.elements())
    ident, zero = spinor_locus(lat3, sigma)
    b_rel = case_points("B2").relations
    for col, x in enumerate(product(els, repeat=3)):
        for i in range(3):
            twisted = twisted_identity(lat3, sigma, x, "spinor_plus", -lat3.l(i + 1),
                                       "spinor_minus")
            assert ident[i, col] == twisted
            assert zero[i, col] == holds(b_rel, sigma, (x[i],) + x[:i] + x[i + 1:])
    masks = _g2_masks(lat4, sigma)
    g2_rel = case_points("G2").relations
    for col, x in enumerate(product(els, repeat=4)):
        l1, l4, s = lat4.l(1), lat4.l(4), lat4.s
        assert masks["sp_sm"][col] == twisted_identity(lat4, sigma, x, "spinor_plus", -l1,
                                                       "spinor_minus")
        assert masks["w_sp"][col] == twisted_identity(lat4, sigma, x, "vector", s - l4,
                                                      "spinor_plus")
        assert masks["w_sm"][col] == twisted_identity(lat4, sigma, x, "vector", -l4,
                                                      "spinor_minus")
        assert masks["relations"][col] == holds(g2_rel, sigma, x)
    identity, paired = wedge_locus(lat4, sigma)
    v, zero_sum = weight_bundle("standard", lat4), outer_automorphism("A", lat4).zero_sums
    for col, t in enumerate(product(els, repeat=3)):
        x = _checked(sigma, t + (neg(sigma, add(sigma, *t)),), zero_sum)
        lhs = tensor_line(restrict_bundle(v, lat4, sigma, x), line_class_of(lat4, sigma, x, lat4.f),
                          sigma)
        assert identity[col] == check_identification(
            lhs, restrict_bundle(wedge_power(v, 3), lat4, sigma, x))
        assert paired[col] == (sorted(x) == sorted(neg(sigma, p) for p in x))
    # at 2x2 every point is 2-torsion: every tuple is paired and the identities hold everywhere
    assert paired.all() == masks["sp_sm"].all() == (m1 == 2)


def _invariance_outcomes(sigma, monkeypatch):
    """Tuple counts of the agreement check, then its first miss with a row of Q dropped."""
    counts = [invariance_agreement_exhaustive(case, sigma) for case in ("B2", "C2", "G2")]
    misses = []
    with monkeypatch.context() as m:
        drop_last_invariance_row(m)
        for case in ("B2", "C2", "G2"):
            with pytest.raises(AssertionError) as err:
                invariance_agreement_exhaustive(case, sigma)
            misses.append(str(err.value))
    return counts, misses


@pytest.mark.parametrize("rows", [7, 200])
def test_loci_do_not_depend_on_the_chunk_size(monkeypatch, rows):
    # |Sigma| = 8: 8^3 and 8^4 tuples, which neither row count divides
    sigma = SigmaModel(2, 4)
    default = _all_loci(sigma)
    default_checks = _invariance_outcomes(sigma, monkeypatch)
    seen = []
    walk = SigmaModel.form_chunks

    def spy(self, forms):
        for cols, codes in walk(self, forms):
            seen.append(codes.shape[1])
            yield cols, codes

    monkeypatch.setattr(abelian, "_CHUNK_ROWS", rows)
    monkeypatch.setattr(SigmaModel, "form_chunks", spy)
    chunked = _all_loci(sigma)
    assert len(seen) > 0 and max(seen) <= rows
    assert len(chunked) == len(default) == 11
    for a, b in zip(default, chunked):
        assert a.shape == b.shape and np.array_equal(a, b)
    assert _invariance_outcomes(sigma, monkeypatch) == default_checks
    assert default_checks[0] == [8**3, 8**3, 8**4]


def test_degree_mismatch_is_refused(lat4):
    sp = weight_bundle("spinor_plus", lat4)
    sm = weight_bundle("spinor_minus", lat4)
    with pytest.raises(ValueError, match="degrees"):
        repbundles._locus_masks(lat4, SigmaModel(1, 2), np.eye(4, dtype=np.int64),
                                [((sp, lat4.zero), (sm, lat4.zero))])


def test_g2_locus_memory_is_bounded(lat4):
    sigma = SigmaModel(5, 5)
    g2_triple_locus(lat4, sigma)  # bundles and lattice caches filled outside the trace
    tracemalloc.start()
    try:
        locus = g2_triple_locus(lat4, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert locus.relations.shape == (5**8,)
    assert peak < 16 * 2**20


def test_the_walk_memory_is_bounded(lat4, monkeypatch):
    # the translated tail table and the one chunk buffer: under three bytes per form and
    # chunk row, where a walk that keeps two residue planes per chunk takes more
    sigma, walked = SigmaModel(5, 5), []
    walk = SigmaModel.form_chunks

    def spy(self, forms):
        walked.append(forms)
        return walk(self, forms)

    with monkeypatch.context() as m:
        m.setattr(SigmaModel, "form_chunks", spy)
        g2_triple_locus(lat4, sigma)
    (forms,) = walked
    assert forms.shape == (26, 4)
    tracemalloc.start()
    try:
        chunks = sum(1 for _ in sigma.form_chunks(forms))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chunks > 1  # the buffer is reused, not grown
    assert peak < 3 * len(forms) * abelian._CHUNK_ROWS


def test_mixed_degree_sides_compare_per_degree(lat4):
    # degrees {1, 3} on both sides and always the same points {x1, x2}; as
    # (degree, point) multisets the sides agree exactly where x1 = x2
    l1, l2, f = lat4.l(1), lat4.l(2), lat4.f
    sigma = SigmaModel(1, 3)
    lhs, rhs = (l1, l2 + f), (l2, l1 + f)
    (mask,) = repbundles._locus_masks(lat4, sigma, np.eye(4, dtype=np.int64),
                                      [((lhs, lat4.zero), (rhs, lat4.zero))])
    for col, x in enumerate(product(list(sigma.elements()), repeat=4)):
        restricted = [[line_class_of(lat4, sigma, x, d) for d in side] for side in (lhs, rhs)]
        assert mask[col] == check_identification(*restricted) == (x[0] == x[1])


# ---------------------------------------------------------------------------
# the merge network, and the kernel against its odd-even transposition form


def _sorts_every_01_column(k):
    """The 0/1 principle: a comparator network sorts all inputs iff it sorts all 0/1 inputs."""
    bits = (np.arange(2**k) >> np.arange(k)[:, None] & 1).astype(np.uint8)
    rows = repbundles._sorted_rows(bits)
    return all((u <= v).all() for u, v in zip(rows, rows[1:])) and (sum(rows) == bits.sum(0)).all()


@pytest.mark.parametrize("k", range(1, 11))
def test_merge_network_sorts_every_01_input(k):
    assert _sorts_every_01_column(k)
    assert all(0 <= i < j < k for i, j in repbundles._merge_network(k))


def test_merge_network_sizes():
    assert [len(repbundles._merge_network(k)) for k in (2, 3, 4, 8)] == [1, 3, 5, 19]


def test_dropping_any_comparator_fails_the_01_check(monkeypatch):
    net = repbundles._merge_network(8)
    for drop in range(len(net)):
        monkeypatch.setattr(repbundles, "_merge_network", lambda k: net[:drop] + net[drop + 1:])
        assert not _sorts_every_01_column(8), f"comparator {net[drop]} is redundant"


def _transposition_sorted(rows):
    """Sort every column of a (k, n) array: odd-even transposition, k rounds."""
    rows = list(rows)
    for r in range(len(rows)):
        for i in range(r % 2, len(rows) - 1, 2):
            rows[i:i + 2] = np.minimum(rows[i], rows[i + 1]), np.maximum(rows[i], rows[i + 1])
    return rows


def _transposition_locus_masks(lat, sigma, params, pairs, relations=()):
    """The kernel before cancellation, on codes computed one tuple at a time: whole sides,
    blocks of forms, transposition sorts."""
    forms, where, plan = [], {}, []

    def place(rows):
        if rows not in where:
            where[rows] = (len(forms), len(forms) + len(rows))
            forms.extend(rows)
        return where[rows]

    for pair in pairs:
        sides = [(place(tuple(lat.l_coeffs(d + tw) for d in summands)),
                  np.array([lat.deg(d + tw) for d in summands])) for summands, tw in pair]
        lhs, rhs = (sorted(side[1].tolist()) for side in sides)
        if lhs != rhs:
            raise ValueError(f"summand degrees {lhs} and {rhs} differ: no identification")
        plan.append(sides)
    vanish = [place(rows) for rows in relations]

    tuples, known = list(product(sigma.elements(), repeat=params.shape[1])), {}

    def codes(form):  # a m2 + b at every tuple, by the per-tuple combine
        if form not in known:
            known[form] = [a * sigma.m2 + b for a, b in (combine(sigma, form, t) for t in tuples)]
        return known[form]

    c = np.array([codes(tuple(row)) for row in (np.array(forms, dtype=np.int64) @ params).tolist()],
                 dtype=np.int64).reshape(len(forms), len(tuples))

    def side_sorted(side, deg):
        (a, b), degs = side
        return _transposition_sorted(c[a:b][degs == deg])

    out = np.empty((len(plan) + len(vanish), len(tuples)), dtype=bool)
    for row, (lhs, rhs) in enumerate(plan):
        out[row] = np.logical_and.reduce(
            [u == v for deg in set(lhs[1].tolist())
             for u, v in zip(side_sorted(lhs, deg), side_sorted(rhs, deg))])
    for row, (a, b) in enumerate(vanish, len(plan)):
        out[row] = ~c[a:b].any(axis=0)
    return out


_LAT4 = make_blowup_lattice(F1, 4)
_SIGMAS = [(m1, m2) for m2 in range(1, 9) for m1 in range(1, m2 + 1)
           if m2 % m1 == 0 and m1 * m2 <= 8]
_COEFFS = st.lists(st.integers(-2, 2), min_size=4, max_size=4)


def _of_degree(deg, coeffs):
    """n f + e s + sum a_i l_i of the given degree: f has degree 2, s and every l_i degree 1."""
    r = deg - sum(coeffs)
    return sum((a * _LAT4.l(i + 1) for i, a in enumerate(coeffs)), r // 2 * _LAT4.f + r % 2 * _LAT4.s)


@st.composite
def _side_pairs(draw):
    """Sides of equal degree multisets: each rhs summand is the lhs one after the twists
    (shared), or a fresh class of its degree; twists are random classes."""
    lhs = [_of_degree(draw(st.integers(-3, 3)), draw(_COEFFS))
           for _ in range(draw(st.integers(1, 7)))]
    tw_l, tw_r = (_of_degree(draw(st.integers(-2, 2)), draw(_COEFFS)) for _ in range(2))
    share = draw(st.sampled_from(["all", "some", "none"]))
    rhs = []
    for d in lhs:
        target = _LAT4.deg(d + tw_l)
        if share == "all" or share == "some" and draw(st.booleans()):
            rhs.append(d + tw_l - tw_r)
        else:
            rhs.append(_of_degree(target, draw(_COEFFS)) - tw_r)
    rhs = draw(st.permutations(rhs))
    return ((tuple(lhs), tw_l), (tuple(rhs), tw_r)), share == "all"


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_SIGMAS), st.booleans(), st.lists(_side_pairs(), min_size=1, max_size=3),
       st.lists(st.lists(_COEFFS, min_size=1, max_size=2).map(lambda b: tuple(map(tuple, b))),
                max_size=2),
       st.sampled_from([5, 64, 1 << 15]))
def test_locus_masks_match_the_transposition_kernel(group, zero_sum, drawn, relations, rows):
    sigma = SigmaModel(*group)
    params = np.eye(4, dtype=np.int64)
    if zero_sum:  # x = (t, -sum t), as for the wedge locus
        params = np.vstack([params[:3, :3], -np.ones((1, 3), dtype=np.int64)])
    pairs = [pair for pair, _ in drawn]
    with mock.patch.object(abelian, "_CHUNK_ROWS", rows):
        got = repbundles._locus_masks(_LAT4, sigma, params, pairs, relations)
    want = _transposition_locus_masks(_LAT4, sigma, params, pairs, relations)
    assert got.shape == want.shape == (len(pairs) + len(relations), sigma.order ** params.shape[1])
    assert np.array_equal(got, want)
    for row, (_, identical) in enumerate(drawn):
        assert got[row].all() or not identical


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_SIGMAS), st.sampled_from([5, 64, 1 << 15]))
def test_g2_triple_locus_is_the_full_masks_decided_where_they_count(group, rows):
    # |Sigma| <= 8: the claim's result against the three identities compared on every tuple
    sigma = SigmaModel(*group)
    with mock.patch.object(abelian, "_CHUNK_ROWS", rows):
        locus = g2_triple_locus(_LAT4, sigma)
    full = _g2_masks(_LAT4, sigma)
    assert np.array_equal(locus.identity, full["sp_sm"] & full["w_sp"])
    assert np.array_equal(locus.relations, full["relations"])
    assert np.array_equal(locus.w_sm, full["w_sm"][full["relations"]])
    assert locus.w_sm.all() == np.all(~full["relations"] | full["w_sm"])


def test_g2_vector_identities_are_compared_only_where_they_decide(lat4, monkeypatch):
    # w_sp on exactly the columns where sp_sm holds (4% of them), w_sm on exactly the locus
    sigma = SigmaModel(5, 5)
    forms, (sp_sm, w_sp, w_sm, rel) = repbundles._locus_plan(
        lat4, np.eye(4, dtype=np.int64), repbundles._triality_identities(lat4),
        [case_points("G2").relations])
    compared = {sp_sm: [], w_sp: [], w_sm: [], rel: []}
    test_masks = repbundles._test_masks

    def spy(tests, codes, out=None, work=None):
        for test in tests:
            compared[test].append(codes.copy())
        return test_masks(tests, codes, out, work)

    full = _g2_masks(lat4, sigma)
    codes = np.concatenate([c.copy() for _, c in sigma.form_chunks(forms)], axis=1)
    monkeypatch.setattr(repbundles, "_test_masks", spy)
    g2_triple_locus(lat4, sigma)
    assert np.array_equal(np.concatenate(compared[sp_sm], axis=1), codes)
    assert np.array_equal(np.concatenate(compared[rel], axis=1), codes)
    assert np.array_equal(np.concatenate(compared[w_sp], axis=1), codes[:, full["sp_sm"]])
    assert np.array_equal(np.concatenate(compared[w_sm], axis=1), codes[:, full["relations"]])
    assert [full["sp_sm"].sum(), full["relations"].sum()] == [5**6, 5**4]
