import random
import tracemalloc
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picfold import abelian, repbundles
from picfold.abelian import SigmaModel, SymbolicSigma, make_sigma_model
from picfold.cases import holds
from picfold._linalg import rational_solve
from picfold.configs import enumerate_exceptional_systems
from picfold.folding import case_points, fixed_sublattice, outer_automorphism
from picfold.lattice import F1, P2, make_blowup_lattice
from picfold.moduli import PointAssignment, invariance_agreement_exhaustive, u_point
from picfold.repbundles import (
    ConstraintViolatedError,
    check_identification,
    dual,
    f4_rep_decomposition,
    g2_triple_locus,
    line_class_of,
    restrict_bundle,
    spinor_locus,
    tensor_line,
    twisted_identity,
    wedge_locus,
    wedge_power,
    weight_bundle,
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


def test_degree_bookkeeping(lat4):
    sym = SymbolicSigma(4)
    pa = PointAssignment(sym, tuple(sym.gen(i) for i in range(4)))
    for kind, deg in [("vector", 1), ("spinor_plus", 1), ("spinor_minus", 0)]:
        bundle = weight_bundle(kind, lat4)
        restricted = restrict_bundle(bundle, lat4, pa)
        assert all(d == deg for d, _ in restricted)
        assert [d for d, _ in restricted] == sorted(lat4.deg(s) for s in bundle)
    det = sum(weight_bundle("standard", lat4), lat4.zero)
    assert lat4.deg(det) == 4


def test_vector_restriction_is_plus_minus_points(lat4):
    sym = SymbolicSigma(4)
    pa = PointAssignment(sym, tuple(sym.gen(i) for i in range(4)))
    got = restrict_bundle(weight_bundle("vector", lat4), lat4, pa)
    expected = sorted(
        [(1, sym.gen(i)) for i in range(4)] + [(1, sym.neg(sym.gen(i))) for i in range(4)]
    )
    assert list(got) == expected


def test_symbolic_spinor_display_three_points(lat3):
    # generic four-summand spinor restrictions over three blown-up points
    sym = SymbolicSigma(3)
    x = [sym.gen(i) for i in range(3)]
    pa = PointAssignment(sym, tuple(x))
    plus = restrict_bundle(weight_bundle("spinor_plus", lat3), lat3, pa)
    pairs = [sym.neg(sym.add(x[i], x[j])) for i, j in ((0, 1), (0, 2), (1, 2))]
    total = sym.neg(sym.add(sym.add(x[0], x[1]), x[2]))
    assert sorted(plus) == sorted([(1, sym.zero)] + [(1, q) for q in pairs])
    minus = restrict_bundle(weight_bundle("spinor_minus", lat3), lat3, pa)
    assert sorted(minus) == sorted(
        [(0, sym.neg(q)) for q in x] + [(0, total)]
    )
    # with x1 = 0 the twisted identity holds symbolically
    pa0 = PointAssignment(sym, (sym.zero, sym.gen(1), sym.gen(2)))
    assert twisted_identity(lat3, pa0, "spinor_plus", -lat3.l(1), "spinor_minus")
    # and fails for generic points
    assert not twisted_identity(lat3, pa, "spinor_plus", -lat3.l(1), "spinor_minus")


def test_spinor_identity_iff_zero_point_exhaustive(lat3):
    sigma = make_sigma_model(5, 5)
    ident, zero = spinor_locus(lat3, sigma)
    assert ident.shape == (3, 5**6)
    for i in range(3):
        assert np.array_equal(ident[i], zero[i])
    assert np.array_equal(ident.any(axis=0), zero.any(axis=0))


def test_g2_triple_identification_iff_conditions(lat4):
    sigma = make_sigma_model(5, 5)
    masks = g2_triple_locus(lat4, sigma)
    # the spinor half detects x1 = 0, the vector half detects x1+x2+x3 = x4
    # tuples come in product order, so x1 = 0 exactly on the first |Sigma|^3 of them
    assert np.array_equal(masks["sp_sm"], np.arange(sigma.order**4) < sigma.order**3)
    combined = masks["sp_sm"] & masks["w_sp"]
    rhs = masks["relations"]
    assert np.array_equal(combined, rhs)
    # the remaining vector/spinor comparison holds on the whole locus and
    # forces a vanishing point wherever it holds
    assert np.all(~rhs | masks["w_sm"])


def test_g2_identity_invariant_under_configuration_action(lat4):
    sigma = make_sigma_model(5, 5)
    rng = random.Random(8)
    els = list(sigma.elements())
    systems = enumerate_exceptional_systems("G2")
    for _ in range(5):
        a, b = rng.choice(els), rng.choice(els)
        pa = PointAssignment(sigma, (sigma.zero, a, b, sigma.add(a, b)))
        base = (
            twisted_identity(lat4, pa, "spinor_plus", -lat4.l(1), "spinor_minus")
            and twisted_identity(lat4, pa, "vector", lat4.s - lat4.l(4), "spinor_plus")
        )
        assert base
        for system in systems:
            moved = PointAssignment(
                sigma, tuple(u_point(lat4, pa, e) for e in system)
            )
            again = (
                twisted_identity(lat4, moved, "spinor_plus", -lat4.l(1), "spinor_minus")
                and twisted_identity(lat4, moved, "vector", lat4.s - lat4.l(4), "spinor_plus")
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
    """The assignment of pts, which must satisfy the relation rows."""
    assert holds(relations, sigma, pts)
    return PointAssignment(sigma, tuple(pts))


def test_determinant_restricts_to_trivial_point(lat4):
    # with points summing to zero, det(standard) = (2n, 0)
    sigma = make_sigma_model(1, 9)
    pts = [(0, 2), (0, 3), (0, 1), (0, 3)]
    pa = _checked(sigma, pts, outer_automorphism("A", lat4).zero_sums)
    det = sum((lat4.l(i) for i in range(2, 5)), lat4.l(1))
    assert line_class_of(lat4, pa, det) == (4, sigma.zero)


def test_wedge_identity_iff_pairing_exhaustive():
    lat = make_blowup_lattice(F1, 4)
    sigma = make_sigma_model(7, 7)
    identity, paired = wedge_locus(lat, sigma)
    assert identity.shape[0] == 49**3
    assert np.array_equal(identity, paired)


def test_middle_wedge_self_dual_under_constraint(lat4):
    sigma = make_sigma_model(7, 7)
    rng = random.Random(3)
    els = list(sigma.elements())
    v = weight_bundle("standard", lat4)
    mid = wedge_power(v, 2)
    for _ in range(100):
        a, b = rng.choice(els), rng.choice(els)
        pa = _checked(sigma, (a, b, sigma.neg(b), sigma.neg(a)), case_points("C2").relations)
        restricted = restrict_bundle(mid, lat4, pa)
        det = line_class_of(lat4, pa, sum((lat4.l(i) for i in range(2, 5)), lat4.l(1)))
        other = tensor_line(dual(restricted, sigma), det, sigma)
        assert check_identification(restricted, other)


def test_f4_rep_decomposition(cubic):
    sigma = make_sigma_model(5, 5)
    rng = random.Random(17)
    els = list(sigma.elements())
    for _ in range(5):
        x1, x2, x3, p = (rng.choice(els) for _ in range(4))
        pts = (x1, x2, x3, *(sigma.add(p, sigma.neg(x)) for x in (x3, x2, x1)))
        pa = _checked(sigma, pts, case_points("F4").relations)
        dec = f4_rep_decomposition(cubic, pa)
        assert dec.trace_kernel_rank == 2
        assert dec.common_class == (1, sigma.neg(p))
        assert dec.kernel_det == (2, sigma.scale(-2, p))
        assert len(dec.short_root_map) == 24
        assert sum(dec.zero_lines, cubic.zero) == -cubic.K
    # rejects assignments violating the constraint
    bad = PointAssignment(sigma, ((0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0)))
    with pytest.raises(ConstraintViolatedError):
        f4_rep_decomposition(cubic, bad)


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
    # generic check with formal parameters x1, x2, x3, p
    sym = SymbolicSigma(4)
    x1, x2, x3, p = (sym.gen(i) for i in range(4))
    pts = (x1, x2, x3, *(sym.add(p, sym.neg(x)) for x in (x3, x2, x1)))
    pa = _checked(sym, pts, case_points("F4").relations)
    dec = f4_rep_decomposition(cubic, pa)
    assert dec.common_class == (1, sym.neg(p))
    assert len(set(dec.short_root_map.values())) == 24


def _all_loci(sigma):
    lat3, lat4 = make_blowup_lattice(F1, 3), make_blowup_lattice(F1, 4)
    return (*spinor_locus(lat3, sigma), *g2_triple_locus(lat4, sigma).values(),
            *wedge_locus(lat4, sigma))


@pytest.mark.parametrize("m1, m2", [(2, 2), (1, 3), (1, 4)])
def test_loci_match_the_scalar_oracle(lat3, lat4, m1, m2):
    sigma = make_sigma_model(m1, m2)
    els = list(sigma.elements())
    ident, zero = spinor_locus(lat3, sigma)
    b_rel = case_points("B2").relations
    for col, x in enumerate(product(els, repeat=3)):
        pa = PointAssignment(sigma, x)
        for i in range(3):
            twisted = twisted_identity(lat3, pa, "spinor_plus", -lat3.l(i + 1), "spinor_minus")
            assert ident[i, col] == twisted
            assert zero[i, col] == holds(b_rel, sigma, (x[i],) + x[:i] + x[i + 1:])
    masks = g2_triple_locus(lat4, sigma)
    g2_rel = case_points("G2").relations
    for col, x in enumerate(product(els, repeat=4)):
        pa = PointAssignment(sigma, x)
        l1, l4, s = lat4.l(1), lat4.l(4), lat4.s
        assert masks["sp_sm"][col] == twisted_identity(lat4, pa, "spinor_plus", -l1, "spinor_minus")
        assert masks["w_sp"][col] == twisted_identity(lat4, pa, "vector", s - l4, "spinor_plus")
        assert masks["w_sm"][col] == twisted_identity(lat4, pa, "vector", -l4, "spinor_minus")
        assert masks["relations"][col] == holds(g2_rel, sigma, x)
    identity, paired = wedge_locus(lat4, sigma)
    v, zero_sum = weight_bundle("standard", lat4), outer_automorphism("A", lat4).zero_sums
    for col, t in enumerate(product(els, repeat=3)):
        x = t + (sigma.neg(sigma.combine((1, 1, 1), t)),)
        pa = _checked(sigma, x, zero_sum)
        lhs = tensor_line(restrict_bundle(v, lat4, pa), line_class_of(lat4, pa, lat4.f), sigma)
        assert identity[col] == check_identification(
            lhs, restrict_bundle(wedge_power(v, 3), lat4, pa))
        assert paired[col] == (sorted(x) == sorted(sigma.neg(p) for p in x))
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
    sigma = make_sigma_model(2, 4)
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
    assert len(chunked) == len(default) == 8
    for a, b in zip(default, chunked):
        assert a.shape == b.shape and np.array_equal(a, b)
    assert _invariance_outcomes(sigma, monkeypatch) == default_checks
    assert default_checks[0] == [8**3, 8**3, 8**4]


def test_degree_mismatch_is_refused(lat4):
    sp = weight_bundle("spinor_plus", lat4)
    sm = weight_bundle("spinor_minus", lat4)
    with pytest.raises(ValueError, match="degrees"):
        repbundles._locus_masks(lat4, make_sigma_model(1, 2), np.eye(4, dtype=np.int64),
                                [((sp, lat4.zero), (sm, lat4.zero))])


def test_g2_locus_memory_is_bounded(lat4):
    sigma = make_sigma_model(5, 5)
    g2_triple_locus(lat4, sigma)  # bundles and lattice caches filled outside the trace
    tracemalloc.start()
    try:
        masks = g2_triple_locus(lat4, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert masks["relations"].shape == (5**8,)
    assert peak < 16 * 2**20


def test_the_walk_memory_is_bounded(lat4, monkeypatch):
    # the translated tail table and the one chunk buffer: under three bytes per form and
    # chunk row, where a walk that keeps two residue planes per chunk takes more
    sigma, walked = make_sigma_model(5, 5), []
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
    sigma = make_sigma_model(1, 3)
    lhs, rhs = (l1, l2 + f), (l2, l1 + f)
    (mask,) = repbundles._locus_masks(lat4, sigma, np.eye(4, dtype=np.int64),
                                      [((lhs, lat4.zero), (rhs, lat4.zero))])
    for col, x in enumerate(product(list(sigma.elements()), repeat=4)):
        pa = PointAssignment(sigma, x)
        restricted = [[line_class_of(lat4, pa, d) for d in side] for side in (lhs, rhs)]
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

    def codes(form):  # a m2 + b at every tuple, by sigma.combine
        if form not in known:
            known[form] = [a * sigma.m2 + b for a, b in (sigma.combine(form, t) for t in tuples)]
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
    sigma = make_sigma_model(*group)
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
