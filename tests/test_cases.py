"""The case registry and the derived point relations against the hand-written ones they replaced.

The oracles below are the per-case bodies that the point-relation check,
the closed-form invariance (``point_oracles.invariance_closed_form``),
``case_system_matrix`` and the F4 reconstruction system had before every
case fact was read from ``picfold.cases``, and the point matrices P and
torsion orders that ``picfold.cases`` wrote out before
``folding.case_points`` derived them.
"""

import random
from itertools import product

import numpy as np
import pytest

from picfold import cli, folding
from picfold._linalg import bareiss_det, smith_normal_form
from picfold.abelian import SigmaModel, solve_group_system
from picfold.cases import case_spec
from picfold.folding import case_points
from picfold.lattice import F1, make_blowup_lattice
from picfold.moduli import case_system_matrix, folded_images, reconstruct_points
from picfold.rootsys import BudgetExceededError
from point_oracles import add, holds, invariance_closed_form, is_zero, neg, scale

CASES = ["B2", "B3", "C2", "C3", "G2", "F4"]
ALL_CASES = ["B2", "B3", "B4", "B5", "B6", "C2", "C3", "C4", "C5", "G2", "F4"]


def validate_oracle(constraint, s, x):
    if constraint.startswith("B"):
        return is_zero(s, x[0])
    if constraint.startswith("A"):
        return is_zero(s, add(s, *x))
    if constraint.startswith("C"):
        n = len(x) // 2
        return all(is_zero(s, add(s, x[i], x[2 * n - 1 - i])) for i in range(n))
    if constraint == "G2":
        return is_zero(s, x[0]) and add(s, x[0], x[3]) == add(s, x[1], x[2])
    p16 = add(s, x[0], x[5])  # F4
    return p16 == add(s, x[1], x[4]) and p16 == add(s, x[2], x[3])


def closed_form_oracle(case, s, x):
    if case.startswith("B"):
        return is_zero(s, scale(s, 2, x[0]))
    if case.startswith("C"):
        n = len(x) // 2
        sums = [add(s, x[i], x[2 * n - 1 - i]) for i in range(n)]
        return all(t == sums[0] for t in sums[1:])
    if case == "G2":
        return is_zero(s, scale(s, 2, x[0])) and add(s, x[0], x[3]) == add(s, x[1], x[2])
    p16 = add(s, x[0], x[5])  # F4
    return p16 == add(s, x[1], x[4]) and p16 == add(s, x[2], x[3])


def points_oracle(case):
    """The hand-written P (x = P t) and torsion order of a case."""
    n = case_spec(case).rank
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    if case.startswith("B"):  # x1 = 0; x2, ..., x_{n+1} free
        return ((0,) * n,) + tuple(unit), 2
    if case.startswith("C"):  # x_{2n+1-i} = -x_i
        return tuple(unit) + tuple(tuple(-v for v in row) for row in reversed(unit)), n
    if case == "G2":  # x1 = 0, x4 = x2 + x3
        return ((0, 0), (1, 0), (0, 1), (1, 1)), 2
    # F4: x1 + x6 = x2 + x5 = x3 + x4 = p, with t = (x1, x2, x3, p)
    return ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
            (0, 0, -1, 1), (0, -1, 0, 1), (-1, 0, 0, 1)), 1


def system_matrix_oracle(case):
    """Unknowns x2..x_{n+1} (B_n), x1..xn (C_n), x2, x3 (G2)."""
    n = case_spec(case).rank
    if case.startswith("B"):
        a = [[0] * n for _ in range(n)]
        a[0][0] = -2
        for k in range(1, n):
            a[k][k - 1] = 2
            a[k][k] = -2
        return a
    if case.startswith("C"):
        a = [[0] * n for _ in range(n)]
        for k in range(n - 1):
            a[k][k] = 2
            a[k][k + 1] = -2
        a[n - 1][n - 1] = 4
        return a
    return [[-3, 0], [3, -3]]  # G2


# F4 in the points x1..x6: four image rows and the two relation rows
F4_SIX_UNKNOWNS = [
    [1, -1, 0, 0, 1, -1],
    [0, 1, -1, 1, -1, 0],
    [-2, -2, -2, 0, 0, 0],
    [0, 0, 2, -2, 0, 0],
    [1, -1, 0, 0, -1, 1],
    [0, 1, -1, -1, 1, 0],
]


def random_admissible_oracle(case, sigma, rng):
    els = list(sigma.elements())
    n = case_spec(case).npoints
    if case.startswith("B"):
        return ((0, 0),) + tuple(rng.choice(els) for _ in range(n - 1))
    if case.startswith("C"):
        half = [rng.choice(els) for _ in range(n // 2)]
        return tuple(half) + tuple(neg(sigma, p) for p in reversed(half))
    if case == "G2":
        a, b = rng.choice(els), rng.choice(els)
        return ((0, 0), a, b, add(sigma, a, b))
    # F4, t = (x1, x2, x3, x4): the pair sums equal p = x3 + x4
    x1, x2, x3, x4 = (rng.choice(els) for _ in range(4))
    p = add(sigma, x3, x4)
    return (x1, x2, x3, x4, add(sigma, p, neg(sigma, x2)), add(sigma, p, neg(sigma, x1)))


def _sigma_for(case):
    # every tuple at 2x4, or at 2x2 for the six-point cases
    return SigmaModel(2, 2) if case_spec(case).npoints == 6 else SigmaModel(2, 4)


def _diagonal(a):
    s = smith_normal_form([list(r) for r in a]).s
    return [s[i][i] for i in range(min(len(s), len(s[0])))]


@pytest.mark.parametrize("case", ALL_CASES[:-1])
def test_case_points_match_the_hand_written_oracle(case):
    points = case_points(case)
    assert (points.points, points.torsion) == points_oracle(case)


def test_f4_points_span_the_hand_written_lattice():
    # t = (x1, x2, x3, x4) now, not (x1, x2, x3, p): P_old = P_new U with U unimodular
    new, (old, torsion) = case_points("F4"), points_oracle("F4")
    p = np.array(new.points, dtype=np.int64)
    assert np.array_equal(p[:4], np.eye(4, dtype=np.int64))  # t = (x1, x2, x3, x4)
    u = np.array(old[:4], dtype=np.int64)
    assert np.array_equal(p @ u, np.array(old, dtype=np.int64))
    assert abs(bareiss_det(u.tolist())) == 1
    assert new.torsion == torsion
    assert new.relations == ((0, 1, -1, -1, 1, 0), (1, 0, -1, -1, 0, 1))


def test_free_points_of_the_ambient_zero_sums():
    # no rows: every point free; the A zero sum: x = (t, -sum t); no integral echelon basis
    assert folding.free_points((), 3) == (((1, 0, 0), (0, 1, 0), (0, 0, 1)), (), 1)
    assert folding.free_points(((1, 1, 1),), 3) == (((1, 0), (0, 1), (-1, -1)), ((1, 1, 1),), 1)
    assert _ambient_zero_sums(3) == ((1, 1, 1),)
    with pytest.raises(ValueError, match="no integral basis"):
        folding.free_points(((1, 2),), 2)  # x1 = -2 x2: x2 = -x1 / 2


def _ambient_zero_sums(npoints):
    """The zero-sum rows of the A fold on npoints points."""
    return folding.outer_automorphism("A", make_blowup_lattice(F1, npoints)).zero_sums


def _points_of_mutated_fold(monkeypatch, case, **changes):
    """(P, torsion) of case_points, uncached, on the case's fold with the given fields replaced."""
    fold = folding.case_fold
    fields = ("ambient", "lattice", "simple_system", "permutation", "orthogonal_to", "zero_sums")
    monkeypatch.setattr(folding, "case_fold", lambda name: folding.OuterAutomorphism(
        *(changes.get(f, getattr(fold(name), f)) for f in fields)))
    points = folding.case_points.__wrapped__(case)
    return points.points, points.torsion


@pytest.mark.parametrize("case", ["B3", "C2", "G2"])
def test_case_points_read_the_fold(monkeypatch, case):
    assert _points_of_mutated_fold(monkeypatch, case) == points_oracle(case)


def test_case_points_need_the_zero_sum_row(monkeypatch):
    # without sum x = 0 the C2 pair sums are equal but need not vanish
    p, torsion = _points_of_mutated_fold(monkeypatch, "C2", zero_sums=())
    assert (p, torsion) != points_oracle("C2")
    assert (len(p[0]), torsion) == (3, 1)


@pytest.mark.parametrize("case, permutation", [
    ("B3", (2, 1, 0, 3)),  # a1 <-> a3 in place of the fork ends a1 <-> a2
    ("C2", (1, 0, 2)),  # a1 <-> a2 in place of the chain reversal a1 <-> a3
])
def test_case_points_need_the_right_sigma(monkeypatch, case, permutation):
    assert _points_of_mutated_fold(monkeypatch, case, permutation=permutation) != (
        points_oracle(case))


@pytest.mark.parametrize("case", ALL_CASES)
def test_relations_are_the_saturated_left_kernel_of_p(case):
    spec, points = case_spec(case), case_points(case)
    p, r = points.points, points.relations
    assert len(p) == spec.npoints and all(len(row) == spec.rank for row in p)
    assert len(r) == spec.npoints - spec.rank
    assert all(sum(r_i * p_i[j] for r_i, p_i in zip(row, p)) == 0
               for row in r for j in range(spec.rank))
    # both P and R have Smith normal form all ones: saturated image and kernel
    assert _diagonal(p) == [1] * spec.rank
    assert _diagonal(r) == [1] * len(r)


@pytest.mark.parametrize("case", CASES)
def test_relations_and_closed_form_match_the_oracles(case):
    sigma = _sigma_for(case)
    relations = case_points(case).relations
    x = np.array(list(product(list(sigma.elements()), repeat=case_spec(case).npoints)),
                 dtype=np.int64)
    mods = (sigma.m1, sigma.m2)
    rel = ~(np.array(relations, dtype=np.int64) @ x % mods).any(axis=(1, 2))
    closed = ~(np.array(case_spec(case).invariance, dtype=np.int64) @ x % mods).any(axis=(1, 2))
    for pts, r, c in zip(x.tolist(), rel, closed):
        pts = tuple(map(tuple, pts))
        assert holds(relations, sigma, pts) == r == validate_oracle(case, sigma, pts)
        assert invariance_closed_form(case, sigma, pts) == c == closed_form_oracle(case, sigma, pts)


def test_ambient_zero_sum_matches_the_oracle():
    sigma, zero_sums = SigmaModel(2, 4), _ambient_zero_sums(4)
    for x in product(list(sigma.elements()), repeat=4):
        assert holds(zero_sums, sigma, x) == validate_oracle("A", sigma, x)


def test_point_relations_reject_unknown_names_and_counts():
    # the bare family names "B" and "C" are not case names
    for name in ("A3", "D4", "E6", "B", "C", "Bx", "C0", "G3", "F", ""):
        with pytest.raises(ValueError):
            case_points(name)
    # neither the relations nor a closed form read a tuple of the wrong length
    sigma = SigmaModel(2, 2)
    with pytest.raises(ValueError):
        holds(case_points("B3").relations, sigma, ((0, 0),) * 3)
    with pytest.raises(ValueError):
        holds(case_points("C2").relations, sigma, ((0, 0),) * 5)
    with pytest.raises(ValueError):
        invariance_closed_form("F4", sigma, ((0, 0),) * 5)


@pytest.mark.parametrize("case", ["B2", "B3", "B4", "B5", "C2", "C3", "C4", "G2"])
def test_system_matrix_is_m_times_p(case):
    assert [list(row) for row in case_system_matrix(case)] == system_matrix_oracle(case)


def _six_unknown_f4(p_images, sigma):
    res = solve_group_system(F4_SIX_UNKNOWNS, list(p_images) + [(0, 0)] * 2, sigma)
    pts = sorted(tuple(map(tuple, x)) for x in res.table.tolist())
    return res.solvable[0], res.kernel_size, pts


@pytest.mark.parametrize("m1,m2", [(2, 2), (3, 3)])
def test_f4_reconstruction_matches_the_six_unknown_system(m1, m2):
    sigma = SigmaModel(m1, m2)
    for imgs in product(list(sigma.elements()), repeat=4):
        res = reconstruct_points("F4", [imgs], sigma)
        solvable, kernel, pts = _six_unknown_f4(imgs, sigma)
        assert (res.solvable[0], res.kernel_size) == (solvable, kernel)
        assert [tuple(map(tuple, x)) for x in res.table.tolist()] == pts


@pytest.mark.parametrize("case", CASES)
def test_random_admissible_is_p_times_t(case):
    # one batched draw equals 20 sequential oracle draws from the same seed, and uses as much
    for sigma in (SigmaModel(2, 2), SigmaModel(2, 4), SigmaModel(1, 5)):
        for seed in (7, 42, 20240801):
            new, old = random.Random(seed), random.Random(seed)
            x = cli._random_admissible(case, sigma, new, 20)
            assert x.shape == (20, case_spec(case).npoints, 2)
            drawn = [tuple(map(tuple, pts)) for pts in x.tolist()]
            assert drawn == [random_admissible_oracle(case, sigma, old) for _ in range(20)]
            assert all(holds(case_points(case).relations, sigma, pts) for pts in drawn)
            assert new.random() == old.random()


def test_reconstruction_refuses_more_solutions_than_the_cap():
    sigma = SigmaModel(2, 4)
    imgs = folded_images("C2", np.zeros((1, 4, 2), dtype=np.int64), sigma)  # of x = 0
    assert reconstruct_points("C2", imgs, sigma).kernel_size > 1
    with pytest.raises(BudgetExceededError):
        reconstruct_points("C2", imgs, sigma, enumerate_cap=1)
