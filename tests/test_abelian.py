import random
from itertools import product
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linalg_oracles import integer_kernel, mat_vec
from point_oracles import add, combine, is_zero, neg, scale
from picfold import abelian
from picfold._linalg import bareiss_det, mat_mul, smith_normal_form
from picfold.abelian import (
    SigmaModel,
    SingularCurveError,
    solve_group_system,
    weierstrass_group,
)
from picfold.rootsys import BudgetExceededError


def test_model_basics():
    sig = SigmaModel(2, 2)
    assert sig.order == 4
    assert len(sig.torsion(2)) == 4
    assert len(list(sig.elements())) == 4
    sig5 = SigmaModel(1, 5)
    assert sig5.order == 5
    assert len(SigmaModel(3, 3).torsion(3)) == 9
    with pytest.raises(ValueError):
        SigmaModel(2, 3)


def test_torsion_count_formula():
    for m1, m2 in [(1, 12), (2, 4), (3, 9), (2, 6)]:
        sig = SigmaModel(m1, m2)
        for n in range(1, 8):
            count = sum(1 for x in sig.elements() if is_zero(sig, scale(sig, n, x)))
            assert count == gcd(n, m1) * gcd(n, m2) == len(sig.torsion(n))


def test_group_axioms_random():
    sig = SigmaModel(2, 6)
    rng = random.Random(0)
    els = list(sig.elements())
    for _ in range(100):
        x, y, z = (rng.choice(els) for _ in range(3))
        assert add(sig, x, y) == add(sig, y, x)
        assert add(sig, add(sig, x, y), z) == add(sig, x, add(sig, y, z))
        assert add(sig, x, neg(sig, x)) == (0, 0)


def test_weierstrass_small_curve():
    model, enc = weierstrass_group(5, 1, 0)  # y^2 = x^3 + x over F5
    assert model.order == 4
    assert (model.m1, model.m2) == (2, 2)


def test_weierstrass_identity_inverse_assoc():
    model, enc = weierstrass_group(13, 2, 3)
    pts = enc.points
    add = enc.add
    rng = random.Random(1)
    for _ in range(20):
        p = rng.choice(pts)
        assert add(p, None) == p
    for _ in range(20):
        p = rng.choice(pts)
        neg = None if p is None else (p[0], (-p[1]) % 13)
        assert add(p, neg) is None
    for _ in range(200):
        p, q, r = (rng.choice(pts) for _ in range(3))
        assert add(add(p, q), r) == add(p, add(q, r))


def test_weierstrass_encoding_is_isomorphism():
    model, enc = weierstrass_group(11, 1, 6)
    pts = enc.points
    rng = random.Random(2)
    for _ in range(200):
        p, q = rng.choice(pts), rng.choice(pts)
        assert enc(enc.add(p, q)) == add(model, enc(p), enc(q))


def _brute_force_order(add, pt):
    o, cur = 1, pt
    while cur is not None:
        cur, o = add(cur, pt), o + 1
    return o


def test_weierstrass_orders_match_brute_force_for_small_p():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for a, b in product(range(p), repeat=2):
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            model, enc = weierstrass_group(p, a, b)
            assert enc.orders == {pt: _brute_force_order(enc.add, pt) for pt in enc.points}
            assert model.order == len(enc.points)


def test_weierstrass_near_the_prime_bound():
    model, enc = weierstrass_group(9973, 5, 0)
    n = len(enc.points)
    assert model.m1 * model.m2 == n and model.m2 % model.m1 == 0
    rng = random.Random(3)
    for pt, qt in zip(rng.sample(enc.points, 50), rng.sample(enc.points, 50)):
        assert enc(enc.add(pt, qt)) == add(model, enc(pt), enc(qt))
    with pytest.raises(ValueError, match="10\\^4"):
        weierstrass_group(10007, 1, 1)


def test_weierstrass_rejects_singular():
    with pytest.raises(SingularCurveError):
        weierstrass_group(5, 0, 0)


def test_snf_examples():
    r = smith_normal_form([[2, 0], [0, 4]])
    assert r.diag == [2, 4]
    r = smith_normal_form([[2, 0], [0, 3]])
    assert r.diag == [1, 6]
    r = smith_normal_form([[0, 0], [0, 0]])
    assert r.diag == [0, 0]


# Swapping each division remainder into the pivot position grew the entries
# of this matrix's elimination without bound (past 10^4000 within seconds).
_GROWTH_8X8 = [[-2, -3, 4, 1, -3, 4, -2, -2], [-2, -2, 1, 0, -3, 4, 0, -2],
               [-1, -2, 4, -4, 1, 4, -1, -2], [0, 2, 4, -2, -4, -1, 0, -3],
               [3, 2, 4, 0, 4, 3, 4, 3], [-4, 2, 1, -2, 0, 3, -4, 2],
               [-4, -4, 1, -2, -2, -2, 0, 0], [2, 2, -2, -3, -1, 3, -4, -2]]


def _random_matrix(rng, size):
    m, n = rng.randint(1, size), rng.randint(1, size)
    return [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]


def test_snf_invariants_random():
    rng = random.Random(9)
    mats = [_random_matrix(rng, 5) for _ in range(60)]
    mats += [_random_matrix(rng, 8) for _ in range(60)] + [_GROWTH_8X8]
    for a in mats:
        res = smith_normal_form(a)
        uinv, s, vinv = [list(map(list, x)) for x in (res.uinv, res.s, res.vinv)]
        assert mat_mul(mat_mul(uinv, [list(r) for r in a]), vinv) == s
        assert all(s[i][j] == 0 for i in range(len(s)) for j in range(len(s[0])) if i != j)
        assert abs(bareiss_det(uinv)) == 1
        assert abs(bareiss_det(vinv)) == 1
        assert all(abs(x) < 2**62 for t in (res.uinv, res.vinv) for row in t for x in row)
        diag = res.diag
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
            assert diag[i] >= 0


@st.composite
def _low_rank_matrices(draw):
    """A = B C with B (m x r) and C (r x n), so every rank up to min(m, n) occurs."""
    m, n, r = draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 5))
    entries = st.integers(-3, 3)
    b = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=m, max_size=m))
    c = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=r, max_size=r))
    return mat_mul(b, c)


@settings(max_examples=150, deadline=None)
@given(_low_rank_matrices())
def test_integer_kernel_is_saturated(a):
    # A K^T = 0, the kernel has full rank n - rank A, and the Smith form of K is
    # all ones: K spans every integer vector of its rational span
    n = len(a[0])
    kernel = integer_kernel(a)
    assert all(mat_vec(a, k) == [0] * len(a) for k in kernel)
    assert len(kernel) == n - np.linalg.matrix_rank(np.array(a, dtype=float))
    if kernel:
        assert smith_normal_form(kernel).diag == [1] * len(kernel)


def _brute_solutions(a, rhs, sigma):
    return sorted(xs for xs in product(list(sigma.elements()), repeat=len(a[0]))
                  if all(combine(sigma, row, xs) == r for row, r in zip(a, rhs)))


def _rows(table):
    return sorted(tuple(map(tuple, rows)) for rows in table.tolist())


def _solution(res):
    return tuple(map(tuple, res.particular[0].tolist()))


def test_solver_agrees_with_brute_force():
    rng = random.Random(4)
    models = [SigmaModel(1, 5), SigmaModel(2, 2), SigmaModel(2, 4), SigmaModel(1, 8), SigmaModel(3, 3)]
    for _ in range(50):
        sigma = rng.choice(models)
        k = rng.randint(1, 3)
        a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        rhs = [rng.choice(list(sigma.elements())) for _ in range(k)]
        res = solve_group_system(a, rhs, sigma)
        brute = _brute_solutions(a, rhs, sigma)
        if not brute:
            assert not res.solvable[0] and len(res.table) == 0
        else:
            assert res.solvable[0]
            assert _rows(res.table) == brute
            assert res.kernel_size == len(brute)
            assert _solution(res) in brute
        # kernel size x image size = |Sigma|^k
        hom = _brute_solutions(a, [(0, 0)] * k, sigma)
        images = set()
        for xs in product(list(sigma.elements()), repeat=k):
            img = []
            for row in a:
                img.append(combine(sigma, row, xs))
            images.add(tuple(img))
        assert len(hom) * len(images) == sigma.order ** k
        assert res.kernel_size == len(hom)


def test_solver_identity_matrix():
    sigma = SigmaModel(2, 4)
    rhs = [(1, 3), (0, 2)]
    res = solve_group_system([[1, 0], [0, 1]], rhs, sigma)
    assert res.solvable[0] and res.kernel_size == 1
    assert _solution(res) == tuple(rhs)


def test_b2_style_system_over_coprime_and_torsion():
    # matrix with determinant 4: unique solutions over odd order, kernel 16 over (2,2)
    b2 = [[-2, 0], [2, -2]]
    sig5 = SigmaModel(1, 5)
    for rhs in product(list(sig5.elements()), repeat=2):
        res = solve_group_system(b2, list(rhs), sig5)
        assert res.solvable[0] and res.kernel_size == 1
    sig22 = SigmaModel(2, 2)
    res = solve_group_system(b2, [(0, 0), (0, 0)], sig22)
    assert res.solvable[0] and res.kernel_size == 16
    unsolvable = 0
    for rhs in product(list(sig22.elements()), repeat=2):
        r = solve_group_system(b2, list(rhs), sig22)
        if not r.solvable[0]:
            unsolvable += 1
    assert unsolvable == 15  # image has size |Sigma|^2 / 16 = 1


_SMALL_GROUPS = [(m1, m2) for m2 in range(1, 9) for m1 in range(1, m2 + 1)
                 if m2 % m1 == 0 and m1 * m2 <= 8]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_SMALL_GROUPS), st.integers(0, 4), st.data(), st.integers(1, 70))
def test_form_chunks_match_brute_force(group, k, data, chunk_rows):
    sigma = SigmaModel(*group)
    rows = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=k, max_size=k),
                              min_size=1, max_size=4))
    forms = np.array(rows, dtype=np.int64).reshape(len(rows), k)
    with mock.patch.object(abelian, "_CHUNK_ROWS", chunk_rows):
        # a chunk is valid until the next one is requested: keep copies
        chunks = [(cols, codes.copy()) for cols, codes in sigma.form_chunks(forms)]
    expected = [[a * sigma.m2 + b for a, b in (combine(sigma, row, t) for row in forms.tolist())]
                for t in product(sigma.elements(), repeat=k)]
    start, got = 0, []
    for cols, codes in chunks:
        assert cols.start == start and 0 < cols.stop - start <= chunk_rows
        assert codes.shape == (len(forms), cols.stop - start)
        assert codes.dtype == np.min_scalar_type(sigma.order - 1)
        got += codes.T.tolist()
        start = cols.stop
    assert got == expected


def _check_one_buffer(group, rows, lengths):
    """Walk two forms over Sigma^3 in chunks of ``lengths``: every chunk, the short last
    one too, is a contiguous view into the same memory, and the first one held its codes."""
    sigma = SigmaModel(*group)
    forms = np.array([[1, 2, 3], [-1, 0, 4]], dtype=np.int64)
    with mock.patch.object(abelian, "_CHUNK_ROWS", rows):
        walk = sigma.form_chunks(forms)
        first = next(walk)[1]
        kept = first.copy()
        rest = [codes for _, codes in walk]
    assert [first.shape[1]] + [c.shape[1] for c in rest] == lengths
    assert all(np.shares_memory(first, c) and c.flags.c_contiguous for c in rest)
    assert not np.array_equal(first, kept)  # the walk overwrote the first chunk
    expected = [[a * sigma.m2 + b for a, b in (combine(sigma, row, t) for row in forms.tolist())]
                for t in product(sigma.elements(), repeat=3)][:rows]
    assert kept.T.tolist() == expected


def test_form_chunks_reuse_one_buffer():
    # 5^3 tuples in chunks of 50, 50 and 25: ten heads at a time, each with its 5 tails
    _check_one_buffer((1, 5), 50, [50, 50, 25])


def test_form_chunks_without_a_tail():
    # |Sigma| = 7 exceeds the chunk size: no tail, five heads at a time, 7^3 = 68 * 5 + 3
    _check_one_buffer((1, 7), 5, [5] * 68 + [3])


@pytest.mark.parametrize("group,k,rows", [((1, 5), 3, 50), ((1, 7), 3, 5), ((2, 2), 4, 70),
                                          ((2, 4), 0, 70)])
def test_form_chunks_walk_zero_forms(group, k, rows):
    # no forms, as when every summand of a pair cancels: the chunks of a one-form walk,
    # each with (0, n) codes
    sigma = SigmaModel(*group)
    with mock.patch.object(abelian, "_CHUNK_ROWS", rows):
        one = [cols for cols, _ in sigma.form_chunks(np.ones((1, k), dtype=np.int64))]
        none = list(sigma.form_chunks(np.zeros((0, k), dtype=np.int64)))
    assert [cols for cols, _ in none] == one
    assert [codes.shape for _, codes in none] == [(0, c.stop - c.start) for c in one]


# V^-1 of this matrix's Smith form has an entry past 2^62: a few of them times a
# residue overflow int64 unless V^-1 is reduced mod m first.
_WIDE_VINV_8X8 = [[-2, 0, 4, -1, 2, 0, 3, 3], [4, 0, -1, 4, -1, 4, 2, 0],
                  [-3, 2, 3, 3, 3, -3, 1, 3], [-4, 2, -4, -2, -4, -2, 4, 2],
                  [2, 3, -3, -3, 2, -2, 2, 2], [-2, 0, 0, 2, 0, 1, 1, -4],
                  [-2, 1, -1, 0, -4, 3, -2, 1], [2, -1, 0, 0, -2, 4, 3, -3]]


@pytest.mark.parametrize("a", [_GROWTH_8X8, _WIDE_VINV_8X8])
def test_solver_reduces_vinv_before_int64(a):
    sigma = SigmaModel(1, 3)
    if a is _WIDE_VINV_8X8:
        assert max(abs(x) for row in smith_normal_form(a).vinv for x in row) >= 2**62
    rng = random.Random(8)
    for _ in range(4):
        x0 = [rng.choice(list(sigma.elements())) for _ in range(8)]
        rhs = [combine(sigma, row, x0) for row in a]
        res = solve_group_system(a, rhs, sigma)
        brute = _brute_solutions(a, rhs, sigma)
        assert res.solvable[0] and _rows(res.table) == brute
        assert _solution(res) in brute and res.kernel_size == len(brute)


def test_a_returned_table_is_the_callers_own():
    sigma = SigmaModel(2, 4)
    a, rhs = [[-2, 0], [2, -2]], [(0, 0), (0, 2)]
    first = solve_group_system(a, rhs, sigma)
    assert first.table.shape == (first.kernel_size, 2, 2)
    # writing to a returned table changes nothing the next solve returns
    expected, first.table[...] = first.table.copy(), 0
    again = solve_group_system(a, rhs, sigma)
    assert np.array_equal(again.table, expected)
    assert _rows(again.table) == _brute_solutions(a, rhs, sigma)


def test_solver_refuses_moduli_that_could_overflow():
    with pytest.raises(OverflowError):
        solve_group_system([[1, 0]], [(0, 0)], SigmaModel(1, 2**31))
    assert _solution(solve_group_system([[1]], [(0, 5)], SigmaModel(1, 2**30))) == ((0, 5),)


def test_one_row_solver_refuses_past_its_cap():
    # x = 0 over (Z/2)^2 in four unknowns has 2^8 solutions; the cap refuses, it never truncates
    sigma, a = SigmaModel(2, 2), [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
    assert solve_group_system(a, [(0, 0)] * 4, sigma, enumerate_cap=256).kernel_size == 256
    with pytest.raises(BudgetExceededError, match="256 solutions per image exceed"):
        solve_group_system(a, [(0, 0)] * 4, sigma, enumerate_cap=255)
    # an unsolvable right-hand side has no solutions to refuse
    unsolvable = solve_group_system([[2]], [(0, 1)], sigma, enumerate_cap=1)
    assert not unsolvable.solvable[0] and len(unsolvable.table) == 0


_STACK_GROUPS = [(m1, m2) for m2 in range(1, 13) for m1 in range(1, m2 + 1)
                 if m2 % m1 == 0 and m1 * m2 <= 12]


@st.composite
def _stacked_systems(draw):
    """(sigma, A, rhs): A is 1-3 x 1-3 (2 columns past |Sigma| = 6, to bound the brute force),
    rhs a batch of 1-5 right-hand sides, each A x0 for a drawn x0 or drawn outright."""
    sigma = SigmaModel(*draw(st.sampled_from(_STACK_GROUPS)))
    nrows, ncols = draw(st.integers(1, 3)), draw(st.integers(1, 3 if sigma.order <= 6 else 2))
    a = draw(st.lists(st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols),
                      min_size=nrows, max_size=nrows))
    point = st.sampled_from(list(sigma.elements()))
    rhs = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            x0 = draw(st.lists(point, min_size=ncols, max_size=ncols))
            rhs.append([combine(sigma, row, x0) for row in a])
        else:
            rhs.append(draw(st.lists(point, min_size=nrows, max_size=nrows)))
    return sigma, a, rhs


@settings(max_examples=120, deadline=None)
@given(_stacked_systems())
def test_stacked_solver_matches_brute_force_and_the_one_row_solver(system):
    sigma, a, rhs = system
    stack = abelian.solve_group_stack(a, rhs, sigma)
    assert stack.solvable.shape == (len(rhs),) and len(stack.table) == len(stack.image)
    for i, b in enumerate(rhs):
        one, brute = solve_group_system(a, b, sigma), _brute_solutions(a, b, sigma)
        assert bool(stack.solvable[i]) == bool(one.solvable[0]) == bool(brute)
        assert stack.kernel_size == one.kernel_size
        assert _rows(stack.table[stack.image == i]) == _rows(one.table) == brute
        if brute:
            assert one.kernel_size == len(brute)
            assert tuple(map(tuple, stack.particular[i].tolist())) == _solution(one)
    # one cap below the kernel: a batch with a solvable row refuses before any table is built
    with mock.patch.object(abelian, "_homogeneous", side_effect=AssertionError("built")):
        if stack.solvable.any():
            with pytest.raises(BudgetExceededError):
                abelian.solve_group_stack(a, rhs, sigma, enumerate_cap=stack.kernel_size - 1)
        else:
            empty = abelian.solve_group_stack(a, rhs, sigma, enumerate_cap=stack.kernel_size - 1)
            assert empty.table.shape == (0, len(a[0]), 2)


def test_stacked_solver_mixes_solvable_and_unsolvable_rows():
    # determinant 4: over (2, 2) only the zero image is solvable, with 16 solutions
    sigma, b2 = SigmaModel(2, 2), [[-2, 0], [2, -2]]
    rhs = [[(1, 0), (0, 0)], [(0, 0), (0, 0)], [(0, 1), (1, 1)], [(0, 0), (0, 0)]]
    stack = abelian.solve_group_stack(b2, rhs, sigma)
    assert stack.solvable.tolist() == [False, True, False, True]
    assert stack.image.tolist() == [1] * 16 + [3] * 16
    assert _rows(stack.table[:16]) == _rows(stack.table[16:]) == _brute_solutions(b2, rhs[1], sigma)
    with pytest.raises(ValueError):
        abelian.solve_group_stack(b2, rhs[0], sigma)
