"""Restriction data of configurations and the moduli-level checks.

The restriction homomorphism is normalized by u(s) = u(f) = u(h) = 0 and
u(l_i) = x_i; this is the convention forced by the displayed values of u
on simple roots (for instance u(f - l1 - l2) = -x1 - x2).  Points live in
a SigmaModel (or a SymbolicSigma for generic arguments).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .abelian import SigmaModel, SymbolicSigma, solve_group_system
from .folding import fixed_sublattice, folded_weyl_group, outer_automorphism
from .lattice import F1, P2, DivisorClass, IntersectionLattice, make_blowup_lattice
from .rootsys import (
    BudgetExceededError,
    WeylSet,
    decompose_in_basis,
    restrict_to_basis,
    simple_reflections,
    standard_simple_system,
    weyl_generate,
)

CASES = ("B", "C", "G2", "F4")


def case_rank(case: str) -> int:
    if case in ("G2",):
        return 2
    if case in ("F4",):
        return 4
    return int(case[1:])


@lru_cache(maxsize=None)
def case_lattice(case: str) -> IntersectionLattice:
    """The blow-up lattice on which the case's configurations live."""
    if case.startswith("B"):
        return make_blowup_lattice(F1, case_rank(case) + 1)
    if case.startswith("C"):
        return make_blowup_lattice(F1, 2 * case_rank(case))
    if case == "G2":
        return make_blowup_lattice(F1, 4)
    if case == "F4":
        return make_blowup_lattice(P2, 6)
    raise ValueError(f"unknown case {case!r}")


def ambient_case(case: str) -> str:
    if case.startswith("B"):
        return "D"
    if case.startswith("C"):
        return "A"
    if case == "G2":
        return "D4-triality"
    if case == "F4":
        return "E6"
    raise ValueError(f"unknown case {case!r}")


@dataclass(frozen=True)
class PointAssignment:
    """Blow-up points on the anticanonical curve, one per exceptional class."""

    sigma: object
    points: tuple

    def __len__(self):
        return len(self.points)

    def validate(self, constraint: str | None):
        """Check the case's defining point relations; returns self."""
        s = self.sigma
        x = self.points
        if constraint is None:
            return self
        if constraint.startswith("B"):
            ok = s.is_zero(x[0])
        elif constraint.startswith("A"):
            acc = s.zero
            for p in x:
                acc = s.add(acc, p)
            ok = s.is_zero(acc)
        elif constraint.startswith("C"):
            n = len(x) // 2
            ok = all(s.is_zero(s.add(x[i], x[2 * n - 1 - i])) for i in range(n))
        elif constraint == "G2":
            ok = s.is_zero(x[0]) and s.add(x[0], x[3]) == s.add(x[1], x[2])
        elif constraint == "F4":
            p16 = s.add(x[0], x[5])
            ok = p16 == s.add(x[1], x[4]) and p16 == s.add(x[2], x[3])
        else:
            raise ValueError(f"unknown constraint {constraint!r}")
        if not ok:
            raise ValueError(f"points violate the {constraint} relations")
        return self


def u_point(lat: IntersectionLattice, pa: PointAssignment, d: DivisorClass):
    """The point part of the restriction of O(d): sum of c_i x_i."""
    return pa.sigma.combine(lat.l_coeffs(d), pa.points)


@dataclass(frozen=True)
class RestrictionHom:
    basis: tuple[DivisorClass, ...]
    images: tuple


def restriction_hom(lat: IntersectionLattice, pa: PointAssignment, basis) -> RestrictionHom:
    """Images of degree-zero classes under restriction to the curve."""
    basis = tuple(basis)
    for b in basis:
        if lat.pair(b, lat.K) != 0:
            raise ValueError(f"{b} is not orthogonal to K")
    return RestrictionHom(basis, tuple(u_point(lat, pa, b) for b in basis))


def _pair_sums(pa: PointAssignment):
    s, x = pa.sigma, pa.points
    n = len(x) // 2
    return [s.add(x[i], x[2 * n - 1 - i]) for i in range(n)]


def invariance_closed_form(case: str, pa: PointAssignment) -> bool:
    """The closed-form fixed-point condition on the blow-up points.

    For C_n the n pair sums must share a single common value (an
    n-torsion point, automatically, since the points sum to zero); the
    weaker elementwise condition n (x_i + x_{2n+1-i}) = 0 is equivalent
    only for n = 2.
    """
    s, x = pa.sigma, pa.points
    if case.startswith("B"):
        return s.is_zero(s.scale(2, x[0]))
    if case.startswith("C"):
        sums = _pair_sums(pa)
        return all(t == sums[0] for t in sums[1:])
    if case == "G2":
        return s.is_zero(s.scale(2, x[0])) and s.add(x[0], x[3]) == s.add(x[1], x[2])
    if case == "F4":
        p16 = s.add(x[0], x[5])
        return p16 == s.add(x[1], x[4]) and p16 == s.add(x[2], x[3])
    raise ValueError(f"unknown case {case!r}")


def invariance_literal_c(pa: PointAssignment) -> bool:
    """n (x_i + x_{2n+1-i}) = 0 for every i (necessary, not sufficient for n >= 3)."""
    s = pa.sigma
    n = len(pa.points) // 2
    return all(s.is_zero(s.scale(n, t)) for t in _pair_sums(pa))


@lru_cache(maxsize=None)
def _invariance_data(case: str):
    lat = case_lattice(case)
    rho = outer_automorphism(ambient_case(case), lat)
    coeffs = tuple(lat.l_coeffs(r) for r in rho.simple_system.roots)
    return lat, rho.permutation, coeffs


def invariance_direct(case: str, pa: PointAssignment) -> bool:
    """Compare u with u composed with the diagram automorphism on simple roots."""
    lat, perm, coeffs = _invariance_data(case)
    if len(pa.points) != lat.npoints:
        raise ValueError(f"{case} expects {lat.npoints} points")
    imgs = [pa.sigma.combine(c, pa.points) for c in coeffs]
    return all(imgs[perm[i]] == imgs[i] for i in range(len(imgs)))


def invariance_condition(case: str, pa: PointAssignment) -> bool:
    """Fixed-point condition, evaluated both ways; the two must agree."""
    if case.startswith("C"):
        pa.validate("A")  # the ambient configuration assumes sum x_i = 0
    closed = invariance_closed_form(case, pa)
    direct = invariance_direct(case, pa)
    if closed != direct:
        raise AssertionError(
            f"{case}: closed form and direct comparison disagree at {pa.points}"
        )
    return closed


@dataclass(frozen=True)
class FixedComponents:
    labels: tuple
    component_size: int
    identity_label: object
    full_torsion: bool


def fixed_components(case: str, sigma: SigmaModel) -> FixedComponents:
    """Connected components of the fixed locus, labelled by torsion points.

    The label is the distinguished torsion datum of the case: x1 for B
    and G2 (a 2-torsion point), the common pair-sum value for C_n (an
    n-torsion point).  The component of the trivial bundle carries the
    zero label.  When the group lacks full torsion the count degrades
    and a warning is emitted.
    """
    n = case_rank(case)
    if case.startswith("B"):
        labels, expected, free = sigma.torsion(2), 4, n
    elif case.startswith("C"):
        labels, expected, free = sigma.torsion(n), n * n, n
    elif case == "G2":
        labels, expected, free = sigma.torsion(2), 4, 2
    elif case == "F4":
        labels, expected, free = [sigma.zero], 1, 4
    else:
        raise ValueError(f"unknown case {case!r}")
    full = len(labels) == expected
    if not full:
        warnings.warn(
            f"{case}: group (Z/{sigma.m1})x(Z/{sigma.m2}) lacks full torsion; "
            f"{len(labels)} of {expected} components are visible",
            stacklevel=2,
        )
    return FixedComponents(
        labels=tuple(sorted(labels)),
        component_size=sigma.order**free,
        identity_label=sigma.zero,
        full_torsion=full,
    )


def case_system_matrix(case: str):
    """Coefficient matrix of the point-reconstruction system.

    Unknowns are the free points of the case (B_n: x2..x_{n+1};
    C_n: x1..xn; G2: x2, x3; F4: x1..x6 with two homogeneous rows)."""
    n = case_rank(case)
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
    if case == "G2":
        return [[-3, 0], [3, -3]]
    if case == "F4":
        return [
            [1, -1, 0, 0, 1, -1],
            [0, 1, -1, 1, -1, 0],
            [-2, -2, -2, 0, 0, 0],
            [0, 0, 2, -2, 0, 0],
            [1, -1, 0, 0, -1, 1],
            [0, 1, -1, -1, 1, 0],
        ]
    raise ValueError(f"unknown case {case!r}")


def _solution_to_points(case: str, sol, sigma) -> PointAssignment:
    if case.startswith("B"):
        pts = (sigma.zero,) + tuple(sol)
    elif case.startswith("C"):
        pts = tuple(sol) + tuple(sigma.neg(p) for p in reversed(sol))
    elif case == "G2":
        x2, x3 = sol
        pts = (sigma.zero, x2, x3, sigma.add(x2, x3))
    else:
        pts = tuple(sol)
    return PointAssignment(sigma, pts).validate(case)


@dataclass(frozen=True)
class ReconstructionResult:
    solvable: bool
    kernel_size: int
    assignments: tuple[PointAssignment, ...]


def reconstruct_points(case: str, p_images, sigma: SigmaModel,
                       enumerate_cap: int = 4096) -> ReconstructionResult:
    """Recover all point assignments whose folded restriction data is p_images."""
    a = case_system_matrix(case)
    rank = case_rank(case)
    if len(p_images) != rank:
        raise ValueError(f"{case} expects {rank} image points")
    rhs = list(p_images)
    if case == "F4":
        rhs = rhs + [sigma.zero, sigma.zero]
    res = solve_group_system(a, rhs, sigma, enumerate_cap=enumerate_cap)
    if not res.solvable:
        return ReconstructionResult(False, res.kernel_size, ())
    sols = res.solutions if res.solutions is not None else (res.solution,)
    assignments = tuple(_solution_to_points(case, sol, sigma) for sol in sols)
    return ReconstructionResult(True, res.kernel_size, assignments)


def folded_restriction(case: str, pa: PointAssignment):
    """The images of the folded simple system under restriction."""
    lat = case_lattice(case)
    delta = standard_simple_system(case[0] if case[0] in "BC" else case, lat)
    return tuple(u_point(lat, pa, b) for b in delta.roots)


def _all_point_grids(sigma: SigmaModel, n: int):
    """Component coordinate arrays (N, n) covering every point tuple."""
    total = sigma.order
    grids = np.meshgrid(*([np.arange(total)] * n), indexing="ij")
    idx = np.stack(grids).reshape(n, -1).T
    return idx // sigma.m2 % sigma.m1, idx % sigma.m2


def invariance_agreement_exhaustive(case: str, sigma: SigmaModel) -> int:
    """Assert closed-form == direct comparison on every point tuple.

    Vectorized over the whole of Sigma^n (restricted to zero-sum tuples
    for the C cases, where the ambient configuration assumes it).
    Returns the number of assignments checked.
    """
    lat, perm, coeffs = _invariance_data(case)
    n = lat.npoints
    x1, x2 = _all_point_grids(sigma, n)
    if case.startswith("C"):
        keep = ((x1.sum(axis=1) % sigma.m1) == 0) & ((x2.sum(axis=1) % sigma.m2) == 0)
        x1, x2 = x1[keep], x2[keep]

    def images(x, m):
        c = np.array(coeffs, dtype=np.int64)  # (nroots, n)
        return x @ c.T % m

    i1, i2 = images(x1, sigma.m1), images(x2, sigma.m2)
    direct = np.ones(x1.shape[0], dtype=bool)
    for i, p in enumerate(perm):
        if p == i:
            continue
        direct &= (i1[:, p] == i1[:, i]) & (i2[:, p] == i2[:, i])

    def closed(x, m):
        if case.startswith("B"):
            return 2 * x[:, 0] % m == 0
        if case.startswith("C"):
            half = x.shape[1] // 2
            sums = (x + x[:, ::-1]) % m
            return np.all(sums[:, :half] == sums[:, :1], axis=1)
        if case == "G2":
            return (2 * x[:, 0] % m == 0) & (
                (x[:, 0] + x[:, 3]) % m == (x[:, 1] + x[:, 2]) % m
            )
        if case == "F4":
            a = (x[:, 0] + x[:, 5]) % m
            return (a == (x[:, 1] + x[:, 4]) % m) & (a == (x[:, 2] + x[:, 3]) % m)
        raise ValueError(case)

    closed_mask = closed(x1, sigma.m1) & closed(x2, sigma.m2)
    if not np.array_equal(closed_mask, direct):
        bad = int(np.nonzero(closed_mask != direct)[0][0])
        raise AssertionError(
            f"{case}: closed form and direct comparison disagree at "
            f"{[tuple(p) for p in zip(x1[bad], x2[bad])]}"
        )
    return x1.shape[0]


@dataclass(frozen=True)
class ChiReport:
    passed: bool
    domain_size: int
    group_size: int
    orbits_checked: int
    counterexample: tuple | None


def _encode(arrs, base):
    """Pack rows of stacked small nonneg integer arrays into int64 keys."""
    flat = np.concatenate(arrs, axis=-1).astype(np.int64)
    weights = base ** np.arange(flat.shape[-1], dtype=np.int64)
    return flat @ weights


def chi_injectivity_check(case: str, sigma: SigmaModel,
                          action_cap: int = 10**8) -> ChiReport:
    """Exhaustive injectivity check for the folded moduli inclusion.

    For every pair x, y in the fixed sublattice tensored with the group:
    if some element of the big Weyl group maps x to y, some element of
    the folded Weyl group already does.  Budgeted; refuses rather than
    samples, since the value of the statement is exhaustiveness.

    The big orbit of each representative is its breadth-first closure
    under the simple reflections of the big group (restricted to the
    simple-root coordinates), which is the set {w.v : w in W_big} since
    W_big is generated by them; the work is the sum of the big orbit
    sizes times the number of generators.  W_big is still closed (once,
    memoized) for its order, which the budget and the report use.
    """
    lat = case_lattice(case)
    rho = outer_automorphism(ambient_case(case), lat)
    delta = rho.simple_system
    gens = simple_reflections(delta, lat)
    w_big = weyl_generate(gens)
    w_small = folded_weyl_group(case, lat)
    basis = fixed_sublattice(rho)
    k = len(basis)
    rprime = len(delta)
    domain_size = sigma.order**k
    if domain_size * len(w_big) > action_cap:
        raise BudgetExceededError(
            f"{domain_size} domain elements x {len(w_big)} group elements "
            f"exceeds the action cap {action_cap}"
        )

    g_big = restrict_to_basis(WeylSet.from_elements(gens), delta.roots, lat)
    m_small = restrict_to_basis(w_small, delta.roots, lat)
    embed = np.array(
        [decompose_in_basis(b, delta.roots) for b in basis], dtype=np.int64
    ).T  # (r', k)

    mods = (sigma.m1, sigma.m2)
    base = max(mods) if max(mods) > 1 else 2
    # every generator acting on rows [x1 | x2], side by side: one product per level
    act = np.hstack([np.kron(np.eye(2, dtype=np.int64), g.T) for g in g_big])
    row_mods = np.repeat(np.array(mods, dtype=np.int64), rprime)

    def big_orbit_keys(v):
        seen = {int(_encode([v], base))}
        frontier = v[None]
        while frontier.shape[0]:
            imgs = (frontier @ act).reshape(-1, 2 * rprime) % row_mods
            img_keys, first = np.unique(_encode([imgs], base), return_index=True)
            img_keys = img_keys.tolist()
            fresh = [n for key, n in zip(img_keys, first.tolist()) if key not in seen]
            seen.update(img_keys)
            frontier = imgs[fresh]
        return seen

    # all domain tuples, embedded into simple-root coordinates mod each factor
    coords1 = np.array(list(product(range(mods[0]), repeat=k)), dtype=np.int64)
    coords2 = np.array(list(product(range(mods[1]), repeat=k)), dtype=np.int64)
    # cartesian product of the two component grids
    i1 = np.repeat(np.arange(coords1.shape[0]), coords2.shape[0])
    i2 = np.tile(np.arange(coords2.shape[0]), coords1.shape[0])
    dom1 = coords1[i1] @ embed.T % mods[0]
    dom2 = coords2[i2] @ embed.T % mods[1]
    dom_keys = _encode([dom1, dom2], base)
    key_to_tuple = {}
    for t in range(dom_keys.shape[0]):
        key_to_tuple.setdefault(int(dom_keys[t]), t)
    dom_key_set = set(dom_keys.tolist())

    done: set[int] = set()
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
        big_keys = big_orbit_keys(np.concatenate([v1, v2]))
        reachable_in_domain = big_keys & dom_key_set
        if reachable_in_domain != small_keys:
            stray = sorted(reachable_in_domain - small_keys)[0]
            x_idx = key_to_tuple[key]
            y_idx = key_to_tuple[stray]
            cx = (tuple(coords1[i1[x_idx]]), tuple(coords2[i2[x_idx]]))
            cy = (tuple(coords1[i1[y_idx]]), tuple(coords2[i2[y_idx]]))
            return ChiReport(False, dom_keys.shape[0], len(w_big), orbits, (cx, cy))
        done |= small_keys
    return ChiReport(True, dom_keys.shape[0], len(w_big), orbits, None)
