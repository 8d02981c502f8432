import random
import sys
import threading
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linalg_oracles import mat_vec
from picfold import folding, rootsys
from picfold._linalg import (
    bareiss_det,
    bareiss_solve,
    integer_left_inverse,
    mat_mul,
    rational_solve,
)
from picfold.lattice import F1, P2, DivisorClass, make_blowup_lattice
from picfold.rootsys import (
    BudgetExceededError,
    NonIntegralReflectionError,
    UnrecognizedDiagramError,
    WeylElement,
    basis_coordinates,
    cartan_matrix_of,
    identify_cartan_type,
    orbit,
    reflect,
    reflection,
    restrict_to_basis,
    root_sublattice,
    row_keys,
    simple_reflections,
    standard_simple_system,
    weyl_generate,
)


@pytest.fixture(scope="module")
def f1_4():
    return make_blowup_lattice(F1, 4)


@pytest.fixture(scope="module")
def cubic():
    return make_blowup_lattice(P2, 6)


def test_root_sublattice_counts(f1_4, cubic):
    assert len(root_sublattice(f1_4, [f1_4.K, f1_4.f])) == 24
    assert len(root_sublattice(f1_4, [f1_4.K, f1_4.f, f1_4.s])) == 12
    assert len(root_sublattice(cubic, [cubic.K])) == 72


def test_root_system_invariants(f1_4):
    rs = root_sublattice(f1_4, [f1_4.K, f1_4.f])
    assert f1_4.zero not in rs
    for r in rs:
        assert -r in rs
    roots = list(rs)
    rng = random.Random(3)
    for _ in range(40):
        a, x = rng.choice(roots), rng.choice(roots)
        assert reflect(f1_4, a, x) in rs


def test_simple_systems_and_cartan_tags(f1_4, cubic):
    ds = standard_simple_system("D", f1_4)
    assert identify_cartan_type(cartan_matrix_of(ds.roots, f1_4)) == "D4"
    e6 = standard_simple_system("E6", cubic)
    assert identify_cartan_type(cartan_matrix_of(e6.roots, cubic)) == "E6"
    a3 = standard_simple_system("A", f1_4)
    assert identify_cartan_type(cartan_matrix_of(a3.roots, f1_4)) == "A3"


def test_standard_simple_system_names_no_folded_type(cubic):
    # the folded simple systems are derived in folding, from the diagram automorphism
    lats = {"B": make_blowup_lattice(F1, 3), "C": make_blowup_lattice(F1, 4),
            "G2": make_blowup_lattice(F1, 4), "F4": cubic}
    for case, lat in lats.items():
        with pytest.raises(ValueError, match="unknown simple-system case"):
            standard_simple_system(case, lat)


def test_single_root_is_a1(f1_4):
    a = cartan_matrix_of([f1_4.l(1) - f1_4.l(2)], f1_4)
    assert a == ((2,),)
    assert identify_cartan_type(a) == "A1"


def test_cartan_matrix_matches_the_pairings(f1_4, cubic):
    for lat, case in ((f1_4, "D"), (f1_4, "A"), (cubic, "E6")):
        roots = standard_simple_system(case, lat).roots
        assert cartan_matrix_of(roots, lat) == tuple(
            tuple(2 * lat.pair(a, b) // lat.pair(b, b) for b in roots) for a in roots)


def test_cartan_matrix_refuses_a_non_integral_pairing(f1_4):
    l, f = f1_4.l, f1_4.f
    # (b1, b2) = 1 and (b2, b2) = -3: A_12 = -2/3; and f is isotropic
    with pytest.raises(UnrecognizedDiagramError, match="non-integral"):
        cartan_matrix_of([l(1) - l(2), l(2) + l(3) + l(4)], f1_4)
    with pytest.raises(UnrecognizedDiagramError, match="non-integral"):
        cartan_matrix_of([l(1) - l(2), f], f1_4)


def test_reflect_examples(f1_4, cubic):
    l = f1_4.l
    assert reflect(f1_4, l(1) - l(2), l(1)) == l(2)
    alpha0 = 2 * cubic.h - sum((cubic.l(i) for i in range(2, 7)), cubic.l(1))
    img = reflect(cubic, alpha0, cubic.l(1))
    expect = 2 * cubic.h - sum((cubic.l(i) for i in range(3, 7)), cubic.l(2))
    assert img == expect
    a = l(1) - l(2)
    assert reflect(f1_4, a, a) == -a


def test_reflect_involution(f1_4):
    rs = root_sublattice(f1_4, [f1_4.K, f1_4.f])
    roots = list(rs)
    rng = random.Random(11)
    for _ in range(100):
        a = rng.choice(roots)
        x = DivisorClass(tuple(rng.randint(-4, 4) for _ in range(6)))
        assert reflect(f1_4, a, reflect(f1_4, a, x)) == x


def test_non_integral_reflection_reported(f1_4):
    beta = f1_4.f - 2 * f1_4.l(2)  # norm -4, not integral on the full lattice
    with pytest.raises(NonIntegralReflectionError):
        reflection(f1_4, beta)


def _reflect_error(lat, alpha):
    """The error ``reflect`` raises at the first unit vector it cannot reflect."""
    for i in range(lat.rank):
        try:
            reflect(lat, alpha, lat.unit(i))
        except ValueError as exc:
            return type(exc), str(exc)
    return None


def test_reflection_matrix_matches_reflect_column_by_column(f1_4, cubic):
    f1_5 = make_blowup_lattice(F1, 5)
    l, f = f1_4.l, f1_4.f
    cases = [(f1_5, r) for r in root_sublattice(f1_5, [f1_5.K, f1_5.f])]  # D5
    cases += [(cubic, r) for r in root_sublattice(cubic, [cubic.K])]  # E6
    cases += [(f1_4, 2 * (f - l(1) - l(2))), (f1_4, 3 * (l(1) - l(2)))]
    assert len(cases) == 40 + 72 + 2
    for lat, alpha in cases:
        cols = [reflect(lat, alpha, lat.unit(i)).coords for i in range(lat.rank)]
        assert np.array_equal(reflection(lat, alpha).mat, np.array(cols).T)
    for alpha in (f, f1_4.zero, f - 2 * l(2), l(1) - 3 * l(2)):  # isotropic, or not integral
        with pytest.raises(ValueError) as exc:
            reflection(f1_4, alpha)
        assert _reflect_error(f1_4, alpha) == (exc.type, str(exc.value))


def test_weyl_group_orders(f1_4, cubic):
    wd4 = weyl_generate(simple_reflections(standard_simple_system("D", f1_4), f1_4))
    assert len(wd4) == 192
    we6 = weyl_generate(simple_reflections(standard_simple_system("E6", cubic), cubic))
    assert len(we6) == 51840
    assert len(weyl_generate([], rank=6)) == 1


def test_weyl_elements_preserve_structure(f1_4, cubic):
    def preserves_gram(w, lat):
        g = np.array(lat.gram, dtype=np.int64)
        return np.array_equal(w.mat.T @ g @ w.mat, g)

    for m in _oracle_closure("D4"):
        w = WeylElement.from_matrix(m)
        assert preserves_gram(w, f1_4)
        assert w.apply(f1_4.K) == f1_4.K
        assert w.apply(f1_4.f) == f1_4.f
    we6 = _oracle_closure("E6")
    rng = random.Random(5)
    for i in [rng.randrange(len(we6)) for _ in range(25)]:
        w = WeylElement.from_matrix(we6[i])
        assert preserves_gram(w, cubic)
        assert w.apply(cubic.K) == cubic.K


def test_orbit_of_line_is_27_lines(cubic):
    gens = simple_reflections(standard_simple_system("E6", cubic), cubic)
    we6 = weyl_generate(gens)
    res = orbit(gens, cubic.l(1))
    assert len(res) == 27 and res == tuple(sorted(res))
    assert len(we6) % len(res) == 0 and len(we6) // len(res) == 51840 // 27


def test_orbit_of_k_is_fixed(f1_4):
    gens = simple_reflections(standard_simple_system("D", f1_4), f1_4)
    assert orbit(gens, f1_4.K) == (f1_4.K,)


def test_enumerated_roots_closed_under_weyl(f1_4):
    roots = set(root_sublattice(f1_4, [f1_4.K, f1_4.f]).roots)
    for m in _oracle_closure("D4"):
        g = WeylElement.from_matrix(m)
        assert {g.apply(r) for r in roots} == roots


def test_closure_memo_returns_equal_readonly_stacks(cubic):
    gens = simple_reflections(standard_simple_system("E6", cubic), cubic)
    first = weyl_generate(gens)
    again = weyl_generate(gens)
    assert first == again and np.array_equal(first.mats, again.mats)
    # a different generator order gives the same group
    assert weyl_generate(gens[::-1]) == first
    # the chain is built from the generator stack, so it cannot be changed under it
    with pytest.raises(ValueError):
        again.mats[0, 0, 0] = 7


def test_closure_memo_keeps_the_cap(cubic):
    gens = simple_reflections(standard_simple_system("E6", cubic), cubic)
    assert len(weyl_generate(gens)) == 51840
    with pytest.raises(BudgetExceededError):
        weyl_generate(gens, cap=1000)
    assert len(weyl_generate(gens, cap=51840)) == 51840
    with pytest.raises(BudgetExceededError):
        weyl_generate(gens, cap=51839)


def test_closure_memo_shared_across_threads(f1_4):
    gens = simple_reflections(standard_simple_system("D", f1_4), f1_4)
    gens = gens + gens[:1] * 3
    results = [None] * 6
    start = threading.Barrier(len(results))

    def close(n):
        start.wait(timeout=10)
        results[n] = weyl_generate(gens)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=close, args=(n,)) for n in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    # no state is shared between calls, so groups built at once are all the same group
    assert all(r == weyl_generate(gens) for r in results)
    assert len(results[0]) == 192


def test_row_keys_equal_tobytes():
    rng = np.random.default_rng(7)
    arrays = [
        rng.integers(-5, 6, size=(40, 3, 3)),
        np.array([[1, 0], [0, 0], [256, 0], [0, 1]], dtype=np.int64),  # trailing zero bytes
        np.zeros((5, 4), dtype=np.int64),
        rng.integers(0, 3, size=(6, 8, 2)).transpose(0, 2, 1),  # not contiguous
        np.zeros((0, 3, 3), dtype=np.int64),
    ]
    for arr in arrays:
        assert row_keys(arr) == [arr[i].tobytes() for i in range(arr.shape[0])]


def einsum_closure_stack(gen_stack, cap):
    """Reference closure: einsum products and one ``tobytes`` per matrix."""
    rank = gen_stack.shape[1]
    ident = np.eye(rank, dtype=np.int64)
    keys = [ident.tobytes()]
    known = set(keys)
    blocks = [ident[None]]
    frontier = blocks[0]
    while frontier.shape[0]:
        prods = np.einsum("fij,gjk->fgik", frontier, gen_stack).reshape(-1, rank, rank)
        fresh_idx = []
        for n, mat in enumerate(prods):
            key = mat.tobytes()
            if key not in known:
                known.add(key)
                keys.append(key)
                fresh_idx.append(n)
                if len(keys) > cap:
                    raise BudgetExceededError(f"group closure exceeded cap {cap}")
        frontier = prods[fresh_idx]
        blocks.append(frontier)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return np.concatenate(blocks)[order]


def _group_gens():
    """Generators of the groups checked against the closure oracle."""
    cubic = make_blowup_lattice(P2, 6)
    f1_4 = make_blowup_lattice(F1, 4)
    f1_6 = make_blowup_lattice(F1, 6)
    out = {
        "D4": simple_reflections(standard_simple_system("D", f1_4), f1_4),
        "E6": simple_reflections(standard_simple_system("E6", cubic), cubic),
        # D5 on points 1..5 of the 6-point F1 blow-up
        "D5": simple_reflections(standard_simple_system("D", f1_6), f1_6)[:5],
        "D6": simple_reflections(standard_simple_system("D", f1_6), f1_6),
    }
    for case in ("B5", "C4", "G2", "F4"):
        out[case] = folding.folded_weyl_generators(folding.case_fold(case))
    # both presentations of fold.presentations.agree, on the fixed sublattice
    for case in ("B2", "B3", "C2", "G2", "F4"):
        reflections, gens, _ = folding.restricted_reflection_matrices(case)
        out[f"{case}.roots"] = [WeylElement.from_matrix(m) for m in reflections]
        out[f"{case}.restricted"] = [WeylElement.from_matrix(m) for m in gens]
    return out


GROUP_GENS = _group_gens()


@lru_cache(maxsize=None)
def _oracle_closure(name):
    gens = GROUP_GENS[name]
    return einsum_closure_stack(np.stack([g.mat for g in gens]).astype(np.int64), cap=10**6)


# |W| by type; "F4.roots" and "F4.restricted" are W(F4) on the fixed sublattice
ORDERS = {"D4": 192, "E6": 51840, "D5": 1920, "D6": 23040, "B2": 8, "B3": 48, "B5": 3840,
          "C2": 8, "C4": 384, "G2": 12, "F4": 1152}


@pytest.mark.parametrize("name", list(GROUP_GENS))
def test_matmul_closure_matches_einsum_oracle(name):
    """The group the generators close to under matrix products, held as a
    chain, against the einsum closure oracle."""
    gens = GROUP_GENS[name]
    closure = _oracle_closure(name)
    order = len(closure)
    assert order == ORDERS[name.split(".")[0]]
    group = weyl_generate(gens)
    assert len(group) == order
    assert all(WeylElement.from_matrix(m) in group for m in closure)
    rank = closure.shape[1]
    minus = -np.eye(rank, dtype=np.int64)
    minus_listed = any(np.array_equal(m, minus) for m in closure)
    assert (WeylElement.from_matrix(minus) in group) == minus_listed
    # orbits by generators equal {w x : w in W}, for every unit vector and a generic vector
    for x in list(np.eye(rank, dtype=np.int64)) + [np.arange(1, rank + 1, dtype=np.int64)]:
        want = {tuple(v) for v in (closure @ x).tolist()}
        got = orbit(gens, DivisorClass(tuple(x.tolist())))
        assert {d.coords for d in got} == want and len(got) == len(want)
        assert order % len(got) == 0
    assert len(weyl_generate(gens, cap=order)) == order
    with pytest.raises(BudgetExceededError):
        weyl_generate(gens, cap=order - 1)


@pytest.mark.parametrize("name", ["E6", "D6", "B5", "F4"])
def test_minus_identity_is_not_in_a_group_fixing_k(name):
    # -I maps K to -K, and each of these groups fixes K
    group = weyl_generate(GROUP_GENS[name])
    assert WeylElement.from_matrix(-np.eye(group.rank, dtype=np.int64)) not in group


def test_group_equality_is_by_elements():
    f4 = weyl_generate(GROUP_GENS["F4.roots"])
    assert f4 == weyl_generate(GROUP_GENS["F4.restricted"])
    assert f4 == weyl_generate(GROUP_GENS["F4.roots"][::-1])
    assert f4 != weyl_generate(GROUP_GENS["F4.roots"][:1])  # a proper subgroup
    # a conjugate: the same order, other elements
    gens = GROUP_GENS["B2.roots"]
    p, p_inv = np.array([[1, 1], [0, 1]]), np.array([[1, -1], [0, 1]])
    conj = weyl_generate([WeylElement.from_matrix(p @ g.mat @ p_inv) for g in gens])
    b2 = weyl_generate(gens)
    assert len(conj) == len(b2) and conj != b2 and b2 != conj


def test_restrict_to_basis_matches_three_operand_einsum(cubic):
    e6 = standard_simple_system("E6", cubic)
    fixed = folding.fixed_sublattice(folding.outer_automorphism("E6", cubic))
    we6, wf4 = _oracle_closure("E6"), _oracle_closure("F4")
    for stack, basis in ((we6, e6.roots), (wf4, e6.roots), (wf4, fixed)):
        bmat = [[b.coords[i] for b in basis] for i in range(cubic.rank)]
        left, den = integer_left_inverse(bmat)
        want = np.einsum("ij,njk,kl->nil", np.array(left, dtype=np.int64),
                         stack, np.array(bmat, dtype=np.int64))
        assert np.all(want % den == 0)
        got = restrict_to_basis(stack, basis, cubic)
        assert got.dtype == np.int64 and np.array_equal(got, want // den)


def test_restrict_to_basis_rejects_a_non_preserving_element(cubic):
    rho = folding.outer_automorphism("E6", cubic)
    with pytest.raises(ValueError):
        restrict_to_basis(_oracle_closure("E6"), folding.fixed_sublattice(rho), cubic)


def test_basis_coordinates_refuse_an_image_outside_the_span():
    # L = (1 0) sends (0, 1) to the integer 0, but B 0 is not (0, 1)
    bmat = np.array([[1], [0]], dtype=np.int64)
    assert basis_coordinates(bmat, np.array([[[3], [0]]])).tolist() == [[[3]]]
    with pytest.raises(ValueError):
        basis_coordinates(bmat, np.array([[[0], [1]]]))
    with pytest.raises(ValueError):
        basis_coordinates(np.array([[2], [0]], dtype=np.int64), np.array([[[1], [0]]]))
    # bmat Y would wrap to X in int64 (2^32 * 2^32 = 2^64): the products are exact
    tall = np.array([[2**32], [1]], dtype=np.int64)
    assert basis_coordinates(tall, np.array([5 * 2**32, 5])).tolist() == [5]
    with pytest.raises(ValueError):
        basis_coordinates(tall, np.array([0, 2**32]))


def _last_invariant_factor(b):
    """D_k / D_(k-1) for m x k b, D_j the gcd of its j x j minors."""
    def minors_gcd(j):
        return gcd(*(bareiss_det([[b[r][c] for c in cols] for r in rows])
                     for rows in combinations(range(len(b)), j)
                     for cols in combinations(range(len(b[0])), j)))
    return minors_gcd(len(b[0])) // minors_gcd(len(b[0]) - 1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_left_inverse_and_basis_coordinates_match_rational_solve(data):
    """L B = den I with den the last invariant factor; coordinates as over Q, when integral."""
    m = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(1, m))
    entry = st.integers(-4, 4)
    b = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
    try:
        rational_solve(b, [0] * m)
    except ValueError:  # dependent columns
        with pytest.raises(ValueError):
            integer_left_inverse(b)
        return
    left, den = integer_left_inverse(b)
    assert den == _last_invariant_factor(b) > 0
    assert mat_mul(left, b) == [[den * (i == j) for j in range(k)] for i in range(k)]
    bmat = np.array(b, dtype=np.int64)
    images, integral = [], []
    for kind in data.draw(st.lists(st.sampled_from(["span", "divided", "any"]),
                                   min_size=1, max_size=3)):
        x = mat_vec(b, data.draw(st.lists(entry, min_size=k, max_size=k)))
        if kind == "divided":  # in the rational span, often off the integer span
            x = [v // (gcd(*x) or 1) for v in x]
        elif kind == "any":
            x = data.draw(st.lists(st.integers(-16, 16), min_size=m, max_size=m))
        try:
            want = rational_solve(b, x)
        except ValueError:  # inconsistent
            want = None
        images.append(x)
        if want is None or any(v.denominator != 1 for v in want):
            integral.append(False)
            with pytest.raises(ValueError):
                basis_coordinates(bmat, np.array(x, dtype=np.int64))
        else:
            integral.append(True)
            got = basis_coordinates(bmat, np.array(x, dtype=np.int64))
            assert got.tolist() == [int(v) for v in want]
    stack = np.array(images, dtype=np.int64).T  # the images as columns
    if all(integral):
        assert np.array_equal(bmat @ basis_coordinates(bmat, stack), stack)
    else:
        with pytest.raises(ValueError):
            basis_coordinates(bmat, stack)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bareiss_solve_matches_rational_solve(data):
    """a x = d b with d = +-det(a) and x / d the rational solution; singular a raises."""
    n = data.draw(st.integers(1, 6))
    a = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                           min_size=n, max_size=n))
    b = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    if bareiss_det(a) == 0:
        with pytest.raises(ValueError):
            bareiss_solve(a, b)
        return
    x, d = bareiss_solve(a, b)
    assert abs(d) == abs(bareiss_det(a))
    assert mat_vec(a, x) == [d * v for v in b]
    assert [Fraction(v, d) for v in x] == rational_solve(a, b)


def test_closure_refuses_int64_overflow():
    gen = WeylElement(((1, 2**40), (0, 1)))
    with pytest.raises(OverflowError):
        weyl_generate([gen])


def test_affine_e8_closure_ends_in_budget_error():
    # nine points on P2: the simple roots form affine E8, an infinite Weyl group
    lat = make_blowup_lattice(P2, 9)
    h, l = lat.h, lat.l
    roots = [h - l(1) - l(2) - l(3)] + [l(i) - l(i + 1) for i in range(1, 9)]
    gens = [reflection(lat, r) for r in roots]
    with pytest.raises(BudgetExceededError):
        weyl_generate(gens, cap=20_000)


def test_root_sublattice_checks_negation_of_every_root(f1_4, monkeypatch):
    roots = rootsys.enumerate_classes(f1_4, [(rootsys.SELF, -2), (f1_4.K, 0), (f1_4.f, 0)])
    assert len(roots) == 24
    for dropped in roots:
        monkeypatch.setattr(rootsys, "enumerate_classes",
                            lambda lat, constraints: [r for r in roots if r != dropped])
        with pytest.raises(ValueError):
            root_sublattice(f1_4, [f1_4.K, f1_4.f])


@lru_cache(maxsize=None)
def _chain(name):
    return weyl_generate(GROUP_GENS[name])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("F4", "E6"), ("B5", "D6")]),
       st.lists(st.integers(0, 99), max_size=24), st.lists(st.integers(0, 99), max_size=24))
def test_chain_membership_of_random_products(pair, word, ambient_word):
    # a product of the group's generators is accepted; a product of the ambient
    # group's simple reflections is accepted exactly when the closure lists it
    name, ambient = pair
    group, listed = _chain(name), {m.tobytes() for m in _oracle_closure(name)}

    def product_of(gens, letters):
        ident = np.eye(group.rank, dtype=np.int64)
        return reduce(np.matmul, [gens[i % len(gens)].mat for i in letters], ident)

    inside = product_of(GROUP_GENS[name], word)
    assert inside.tobytes() in listed and WeylElement.from_matrix(inside) in group
    other = product_of(GROUP_GENS[ambient], ambient_word)
    assert (WeylElement.from_matrix(other) in group) == (other.tobytes() in listed)


@pytest.mark.parametrize("name, ambient", [("F4", "E6"), ("B5", "D6")])
def test_chain_rejects_an_ambient_reflection(name, ambient):
    group, listed = _chain(name), {m.tobytes() for m in _oracle_closure(name)}
    outside = [g for g in GROUP_GENS[ambient] if g.mat.tobytes() not in listed]
    assert outside and not any(g in group for g in outside)
