import random
from itertools import product
from math import gcd

import pytest

from picfold._linalg import bareiss_det, mat_mul, smith_normal_form
from picfold.abelian import (
    SingularCurveError,
    make_sigma_model,
    solve_group_system,
    weierstrass_group,
)


def test_model_basics():
    sig = make_sigma_model(2, 2)
    assert sig.order == 4
    assert len(sig.torsion(2)) == 4
    assert len(list(sig.elements())) == 4
    sig5 = make_sigma_model(1, 5)
    assert sig5.order == 5
    assert len(make_sigma_model(3, 3).torsion(3)) == 9
    with pytest.raises(ValueError):
        make_sigma_model(2, 3)


def test_torsion_count_formula():
    for m1, m2 in [(1, 12), (2, 4), (3, 9), (2, 6)]:
        sig = make_sigma_model(m1, m2)
        for n in range(1, 8):
            count = sum(1 for x in sig.elements() if sig.is_zero(sig.scale(n, x)))
            assert count == gcd(n, m1) * gcd(n, m2) == len(sig.torsion(n))


def test_group_axioms_random():
    sig = make_sigma_model(2, 6)
    rng = random.Random(0)
    els = list(sig.elements())
    for _ in range(100):
        x, y, z = (rng.choice(els) for _ in range(3))
        assert sig.add(x, y) == sig.add(y, x)
        assert sig.add(sig.add(x, y), z) == sig.add(x, sig.add(y, z))
        assert sig.add(x, sig.neg(x)) == sig.zero


def test_weierstrass_small_curve():
    model, enc = weierstrass_group(5, 1, 0)  # y^2 = x^3 + x over F5
    assert model.order == 4
    assert model == make_sigma_model(2, 2)


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
        assert enc(enc.add(p, q)) == model.add(enc(p), enc(q))


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


def test_snf_invariants_random():
    rng = random.Random(9)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        res = smith_normal_form(a)
        u, s, v = [list(map(list, x)) for x in (res.u, res.s, res.v)]
        assert mat_mul(mat_mul(u, s), v) == [list(r) for r in a]
        assert abs(bareiss_det(u)) == 1
        assert abs(bareiss_det(v)) == 1
        diag = res.diag
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
            assert diag[i] >= 0


def _brute_solutions(a, rhs, sigma):
    n = len(a[0])
    out = []
    for xs in product(list(sigma.elements()), repeat=n):
        ok = True
        for i, row in enumerate(a):
            acc = sigma.zero
            for c, x in zip(row, xs):
                acc = sigma.add(acc, sigma.scale(c, x))
            if acc != rhs[i]:
                ok = False
                break
        if ok:
            out.append(tuple(xs))
    return sorted(out)


def test_solver_agrees_with_brute_force():
    rng = random.Random(4)
    models = [make_sigma_model(1, 5), make_sigma_model(2, 2), make_sigma_model(2, 4), make_sigma_model(1, 8), make_sigma_model(3, 3)]
    for _ in range(50):
        sigma = rng.choice(models)
        k = rng.randint(1, 3)
        a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        rhs = [rng.choice(list(sigma.elements())) for _ in range(k)]
        res = solve_group_system(a, rhs, sigma)
        brute = _brute_solutions(a, rhs, sigma)
        if not brute:
            assert not res.solvable
        else:
            assert res.solvable
            assert res.solutions is not None
            assert list(res.solutions) == brute
            assert res.kernel_size == len(brute)
            assert res.solution in brute
        # kernel size x image size = |Sigma|^k
        hom = _brute_solutions(a, [sigma.zero] * k, sigma)
        images = set()
        for xs in product(list(sigma.elements()), repeat=k):
            img = []
            for row in a:
                acc = sigma.zero
                for c, x in zip(row, xs):
                    acc = sigma.add(acc, sigma.scale(c, x))
                img.append(acc)
            images.add(tuple(img))
        assert len(hom) * len(images) == sigma.order ** k
        assert res.kernel_size == len(hom)


def test_solver_identity_matrix():
    sigma = make_sigma_model(2, 4)
    rhs = [(1, 3), (0, 2)]
    res = solve_group_system([[1, 0], [0, 1]], rhs, sigma)
    assert res.solvable and res.kernel_size == 1
    assert res.solution == tuple(rhs)


def test_b2_style_system_over_coprime_and_torsion():
    # matrix with determinant 4: unique solutions over odd order, kernel 16 over (2,2)
    b2 = [[-2, 0], [2, -2]]
    sig5 = make_sigma_model(1, 5)
    for rhs in product(list(sig5.elements()), repeat=2):
        res = solve_group_system(b2, list(rhs), sig5)
        assert res.solvable and res.kernel_size == 1
    sig22 = make_sigma_model(2, 2)
    res = solve_group_system(b2, [sig22.zero, sig22.zero], sig22)
    assert res.solvable and res.kernel_size == 16
    unsolvable = 0
    for rhs in product(list(sig22.elements()), repeat=2):
        r = solve_group_system(b2, list(rhs), sig22)
        if not r.solvable:
            unsolvable += 1
    assert unsolvable == 15  # image has size |Sigma|^2 / 16 = 1
