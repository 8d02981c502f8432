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
from .cases import ambient_case, case_lattice, case_rank, case_spec, holds, point_relations
from .folding import fixed_sublattice, folded_weyl_group, outer_automorphism
from .lattice import DivisorClass, IntersectionLattice
from .rootsys import (
    BudgetExceededError,
    WeylSet,
    decompose_in_basis,
    restrict_to_basis,
    simple_reflections,
    standard_simple_system,
    weyl_generate,
)


@dataclass(frozen=True)
class PointAssignment:
    """Blow-up points on the anticanonical curve, one per exceptional class."""

    sigma: object
    points: tuple

    def __len__(self):
        return len(self.points)

    def validate(self, constraint: str | None):
        """Check the point relations of a case (see cases.point_relations); returns self."""
        if constraint is None:
            return self
        if not holds(point_relations(constraint, len(self.points)), self.sigma, self.points):
            raise ValueError(f"points violate the {constraint} relations")
        return self


def points_from_parameters(case: str, params, sigma: SigmaModel) -> list[PointAssignment]:
    """The admissible assignments x = P t, one for each tuple t of free parameters."""
    spec = case_spec(case)
    t = np.array(params, dtype=np.int64).reshape(len(params), spec.rank, 2)
    x = np.array(spec.points, dtype=np.int64) @ t % np.array([sigma.m1, sigma.m2])
    return [PointAssignment(sigma, tuple(map(tuple, pts))) for pts in x.tolist()]


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


def invariance_closed_form(case: str, pa: PointAssignment) -> bool:
    """The closed-form fixed-point condition on the blow-up points: Q x = 0.

    For C_n the n pair sums must share a single common value (an
    n-torsion point, automatically, since the points sum to zero); the
    weaker elementwise condition n (x_i + x_{2n+1-i}) = 0 is equivalent
    only for n = 2.
    """
    return holds(case_spec(case).invariance, pa.sigma, pa.points)


def invariance_literal_c(pa: PointAssignment) -> bool:
    """n (x_i + x_{2n+1-i}) = 0 for every i (necessary, not sufficient for n >= 3)."""
    s, x = pa.sigma, pa.points
    n = len(x) // 2
    return all(s.is_zero(s.scale(n, s.add(x[i], x[2 * n - 1 - i]))) for i in range(n))


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
    if case_spec(case).family == "C":
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
    spec = case_spec(case)
    labels, expected = sigma.torsion(spec.torsion), spec.torsion**2
    full = len(labels) == expected
    if not full:
        warnings.warn(
            f"{case}: group (Z/{sigma.m1})x(Z/{sigma.m2}) lacks full torsion; "
            f"{len(labels)} of {expected} components are visible",
            stacklevel=2,
        )
    return FixedComponents(
        labels=tuple(sorted(labels)),
        component_size=sigma.order**spec.rank,
        identity_label=sigma.zero,
        full_torsion=full,
    )


@lru_cache(maxsize=None)
def case_system_matrix(case: str) -> tuple[tuple[int, ...], ...]:
    """Coefficient matrix M P of the point-reconstruction system.

    M holds the l-coefficients of the folded simple roots, so M P t is the
    folded restriction of the points x = P t; the unknowns are the free
    parameters t.
    """
    spec = case_spec(case)
    delta = standard_simple_system(spec.family, spec.lattice)
    return tuple(tuple(sum(c * row[j] for c, row in zip(spec.lattice.l_coeffs(b), spec.points))
                       for j in range(spec.rank)) for b in delta.roots)


@dataclass(frozen=True)
class ReconstructionResult:
    solvable: bool
    kernel_size: int
    assignments: tuple[PointAssignment, ...]


def reconstruct_points(case: str, p_images, sigma: SigmaModel,
                       enumerate_cap: int = 4096) -> ReconstructionResult:
    """Recover all point assignments whose folded restriction data is p_images.

    Solves M P t = p_images over the group and returns every x = P t,
    sorted by points.  Raises BudgetExceededError when the solution set
    is larger than ``enumerate_cap``, rather than return part of it.
    """
    rank = case_rank(case)
    if len(p_images) != rank:
        raise ValueError(f"{case} expects {rank} image points")
    res = solve_group_system(case_system_matrix(case), list(p_images), sigma,
                             enumerate_cap=enumerate_cap)
    if not res.solvable:
        return ReconstructionResult(False, res.kernel_size, ())
    if res.solutions is None:
        raise BudgetExceededError(
            f"{case}: {res.kernel_size} solutions exceed the enumerate cap {enumerate_cap}")
    assignments = sorted(points_from_parameters(case, res.solutions, sigma),
                         key=lambda pa: pa.points)
    return ReconstructionResult(True, res.kernel_size, tuple(assignments))


def folded_restriction(case: str, pa: PointAssignment):
    """The images of the folded simple system under restriction."""
    spec = case_spec(case)
    delta = standard_simple_system(spec.family, spec.lattice)
    return tuple(u_point(spec.lattice, pa, b) for b in delta.roots)


def invariance_agreement_exhaustive(case: str, sigma: SigmaModel) -> int:
    """Assert closed-form == direct comparison on every point tuple.

    Vectorized over the whole of Sigma^n (restricted to zero-sum tuples
    for the C cases, where the ambient configuration assumes it).
    Returns the number of assignments checked.
    """
    lat, perm, coeffs = _invariance_data(case)
    n = lat.npoints
    x1, x2 = sigma.point_grids(n)
    if case_spec(case).family == "C":
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

    def closed(x, m):  # Q x = 0
        ok = np.ones(x.shape[0], dtype=bool)
        for row in case_spec(case).invariance:
            ok &= sum(c * x[:, j] for j, c in enumerate(row) if c) % m == 0
        return ok

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
