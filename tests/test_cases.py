"""The case registry against the hand-written relations it replaced.

The oracles below are the per-case bodies that ``PointAssignment.validate``,
``invariance_closed_form``, ``case_system_matrix`` and the F4
reconstruction system had before every case fact was read from
``picfold.cases``.
"""

import random
from itertools import product

import pytest

from picfold import cli
from picfold._linalg import smith_normal_form
from picfold.abelian import make_sigma_model, solve_group_system
from picfold.cases import case_spec, point_relations
from picfold.moduli import (
    PointAssignment,
    case_system_matrix,
    folded_restriction,
    invariance_closed_form,
    reconstruct_points,
)
from picfold.rootsys import BudgetExceededError

CASES = ["B2", "B3", "C2", "C3", "G2", "F4"]


def validate_oracle(constraint, s, x):
    if constraint.startswith("B"):
        return s.is_zero(x[0])
    if constraint.startswith("A"):
        acc = s.zero
        for p in x:
            acc = s.add(acc, p)
        return s.is_zero(acc)
    if constraint.startswith("C"):
        n = len(x) // 2
        return all(s.is_zero(s.add(x[i], x[2 * n - 1 - i])) for i in range(n))
    if constraint == "G2":
        return s.is_zero(x[0]) and s.add(x[0], x[3]) == s.add(x[1], x[2])
    p16 = s.add(x[0], x[5])  # F4
    return p16 == s.add(x[1], x[4]) and p16 == s.add(x[2], x[3])


def closed_form_oracle(case, s, x):
    if case.startswith("B"):
        return s.is_zero(s.scale(2, x[0]))
    if case.startswith("C"):
        n = len(x) // 2
        sums = [s.add(x[i], x[2 * n - 1 - i]) for i in range(n)]
        return all(t == sums[0] for t in sums[1:])
    if case == "G2":
        return s.is_zero(s.scale(2, x[0])) and s.add(x[0], x[3]) == s.add(x[1], x[2])
    p16 = s.add(x[0], x[5])  # F4
    return p16 == s.add(x[1], x[4]) and p16 == s.add(x[2], x[3])


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
        pts = (sigma.zero,) + tuple(rng.choice(els) for _ in range(n - 1))
    elif case.startswith("C"):
        half = [rng.choice(els) for _ in range(n // 2)]
        pts = tuple(half) + tuple(sigma.neg(p) for p in reversed(half))
    elif case == "G2":
        a, b = rng.choice(els), rng.choice(els)
        pts = (sigma.zero, a, b, sigma.add(a, b))
    else:
        x1, x2, x3, p = (rng.choice(els) for _ in range(4))
        pts = (x1, x2, x3, sigma.sub(p, x3), sigma.sub(p, x2), sigma.sub(p, x1))
    return PointAssignment(sigma, pts)


def _sigma_for(case):
    # every tuple at 2x4, or at 2x2 for the six-point cases
    return make_sigma_model(2, 2) if case_spec(case).npoints == 6 else make_sigma_model(2, 4)


def _diagonal(a):
    s = smith_normal_form([list(r) for r in a]).s
    return [s[i][i] for i in range(min(len(s), len(s[0])))]


@pytest.mark.parametrize("case", CASES)
def test_relations_are_the_saturated_left_kernel_of_p(case):
    spec = case_spec(case)
    p, r = spec.points, spec.relations
    assert len(p) == spec.npoints and all(len(row) == spec.rank for row in p)
    assert len(r) == spec.npoints - spec.rank
    assert all(sum(r_i * p_i[j] for r_i, p_i in zip(row, p)) == 0
               for row in r for j in range(spec.rank))
    # both P and R have Smith normal form all ones: saturated image and kernel
    assert _diagonal(p) == [1] * spec.rank
    assert _diagonal(r) == [1] * len(r)


@pytest.mark.parametrize("case", CASES)
def test_relations_and_closed_form_match_the_oracles(case):
    spec = case_spec(case)
    sigma = _sigma_for(case)
    names = [case, case[0]] if spec.family in ("B", "C") else [case]
    for x in product(list(sigma.elements()), repeat=spec.npoints):
        pa = PointAssignment(sigma, x)
        for name in names:
            expected = validate_oracle(name, sigma, x)
            if expected:
                assert pa.validate(name) is pa
            else:
                with pytest.raises(ValueError):
                    pa.validate(name)
        assert invariance_closed_form(case, pa) == closed_form_oracle(case, sigma, x)


def test_ambient_zero_sum_matches_the_oracle():
    sigma = make_sigma_model(2, 4)
    for x in product(list(sigma.elements()), repeat=4):
        pa = PointAssignment(sigma, x)
        if validate_oracle("A", sigma, x):
            assert pa.validate("A") is pa
        else:
            with pytest.raises(ValueError):
                pa.validate("A")


def test_point_relations_reject_unknown_names_and_counts():
    for name in ("A3", "D4", "E6", "B", "Bx", "C0", "G3", "F", ""):
        with pytest.raises(ValueError):
            point_relations(name, 1 if name == "B" else 4)
    with pytest.raises(ValueError):
        point_relations("B3", 3)
    with pytest.raises(ValueError):
        point_relations("C", 5)
    # a closed form never reads a tuple of the wrong length
    sigma = make_sigma_model(2, 2)
    with pytest.raises(ValueError):
        invariance_closed_form("F4", PointAssignment(sigma, (sigma.zero,) * 5))


@pytest.mark.parametrize("case", ["B2", "B3", "B4", "B5", "C2", "C3", "C4", "G2"])
def test_system_matrix_is_m_times_p(case):
    assert [list(row) for row in case_system_matrix(case)] == system_matrix_oracle(case)


def _six_unknown_f4(p_images, sigma):
    res = solve_group_system(F4_SIX_UNKNOWNS, list(p_images) + [sigma.zero] * 2, sigma)
    pts = sorted(res.solutions) if res.solvable else []
    return res.solvable, res.kernel_size, pts


@pytest.mark.parametrize("m1,m2", [(2, 2), (3, 3)])
def test_f4_reconstruction_matches_the_six_unknown_system(m1, m2):
    sigma = make_sigma_model(m1, m2)
    for imgs in product(list(sigma.elements()), repeat=4):
        res = reconstruct_points("F4", imgs, sigma)
        solvable, kernel, pts = _six_unknown_f4(imgs, sigma)
        assert (res.solvable, res.kernel_size) == (solvable, kernel)
        assert [pa.points for pa in res.assignments] == pts


@pytest.mark.parametrize("case", CASES)
def test_random_admissible_is_p_times_t(case):
    # one batched draw equals 20 sequential oracle draws from the same seed, and uses as much
    for sigma in (make_sigma_model(2, 2), make_sigma_model(2, 4), make_sigma_model(1, 5)):
        for seed in (7, 42, 20240801):
            new, old = random.Random(seed), random.Random(seed)
            x = cli._random_admissible(case, sigma, new, 20)
            assert x.shape == (20, case_spec(case).npoints, 2)
            drawn = [PointAssignment(sigma, tuple(map(tuple, pts))) for pts in x.tolist()]
            assert drawn == [random_admissible_oracle(case, sigma, old) for _ in range(20)]
            assert all(pa.validate(case) is pa for pa in drawn)
            assert new.random() == old.random()


def test_reconstruction_refuses_more_solutions_than_the_cap():
    sigma = make_sigma_model(2, 4)
    pa = PointAssignment(sigma, (sigma.zero,) * 4)
    imgs = folded_restriction("C2", pa)
    assert reconstruct_points("C2", imgs, sigma).kernel_size > 1
    with pytest.raises(BudgetExceededError):
        reconstruct_points("C2", imgs, sigma, enumerate_cap=1)
