"""Restriction data of configurations and the moduli-level checks.

The restriction homomorphism is normalized by u(s) = u(f) = u(h) = 0 and
u(l_i) = x_i; this is the convention forced by the displayed values of u
on simple roots (for instance u(f - l1 - l2) = -x1 - x2).  Points live in
a SigmaModel (or a SymbolicSigma for generic arguments).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice, product

import numpy as np

from .abelian import SigmaModel, SymbolicSigma, solve_group_system
from .cases import ambient_case, case_lattice, case_rank, case_spec, holds, point_relations
from .folding import ambient_weyl_group, fixed_sublattice, folded_weyl_group, outer_automorphism
from .lattice import DivisorClass, IntersectionLattice
from .rootsys import (
    BudgetExceededError,
    basis_coordinates,
    restrict_to_basis,
    standard_simple_system,
    weyl_generate,  # noqa: F401 (perfbench/tracer.py binds it here by name)
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


def _point_table(case: str, t: np.ndarray, sigma: SigmaModel) -> np.ndarray:
    """x = P t mod (m1, m2): an (n, rank, 2) int64 table of parameters to (n, npoints, 2)."""
    return np.array(case_spec(case).points, dtype=np.int64) @ t % np.array([sigma.m1, sigma.m2])


def _assignments(sigma: SigmaModel, x: np.ndarray) -> list[PointAssignment]:
    return [PointAssignment(sigma, tuple(map(tuple, pts))) for pts in x.tolist()]


def points_from_parameters(case: str, params, sigma: SigmaModel) -> list[PointAssignment]:
    """The admissible assignments x = P t, one for each tuple t of free parameters."""
    t = np.array(params, dtype=np.int64).reshape(len(params), case_rank(case), 2)
    return _assignments(sigma, _point_table(case, t, sigma))


def u_point(lat: IntersectionLattice, pa: PointAssignment, d: DivisorClass):
    """The point part of the restriction of O(d): sum of c_i x_i."""
    return pa.sigma.combine(lat.l_coeffs(d), pa.points)


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
def _folded_simple_coeffs(case: str) -> tuple[tuple[int, ...], ...]:
    """The l-coefficients of the folded simple roots, in the simple system's order."""
    spec = case_spec(case)
    return tuple(spec.lattice.l_coeffs(b)
                 for b in standard_simple_system(spec.family, spec.lattice).roots)


@lru_cache(maxsize=None)
def case_system_matrix(case: str) -> tuple[tuple[int, ...], ...]:
    """Coefficient matrix M P of the point-reconstruction system.

    M holds the l-coefficients of the folded simple roots, so M P t is the
    folded restriction of the points x = P t; the unknowns are the free
    parameters t.
    """
    spec = case_spec(case)
    return tuple(tuple(sum(c * row[j] for c, row in zip(coeffs, spec.points))
                       for j in range(spec.rank)) for coeffs in _folded_simple_coeffs(case))


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """The assignments x = P t that solve a reconstruction system.

    ``table`` is a read-only (n, npoints, 2) int64 array of the points' (mod m1,
    mod m2) residue pairs, rows sorted by points, empty when unsolvable.
    ``assignments`` is built on first access; ``pa in result`` reads the rows.
    """

    solvable: bool
    kernel_size: int
    sigma: SigmaModel
    table: np.ndarray

    @cached_property
    def assignments(self) -> tuple[PointAssignment, ...]:
        return tuple(_assignments(self.sigma, self.table))

    def __contains__(self, pa: PointAssignment) -> bool:
        if pa.sigma != self.sigma or len(pa.points) != self.table.shape[1]:
            return False
        return bool((self.table == np.array(pa.points, dtype=np.int64)).all(axis=(1, 2)).any())


def reconstruct_points(case: str, p_images, sigma: SigmaModel,
                       enumerate_cap: int = 4096) -> ReconstructionResult:
    """Recover all point assignments whose folded restriction data is p_images.

    Solves M P t = p_images over the group (``solve_group_system``, which
    caches the Smith form of M P), maps the solution table through P in
    one matmul mod (m1, m2) and sorts the rows by points.  Raises
    BudgetExceededError when the solution set is larger than
    ``enumerate_cap``, rather than return part of it.
    """
    rank = case_rank(case)
    if len(p_images) != rank:
        raise ValueError(f"{case} expects {rank} image points")
    res = solve_group_system(case_system_matrix(case), list(p_images), sigma,
                             enumerate_cap=enumerate_cap)
    if res.solvable and res.table is None:
        raise BudgetExceededError(
            f"{case}: {res.kernel_size} solutions exceed the enumerate cap {enumerate_cap}")
    t = res.table if res.solvable else np.zeros((0, rank, 2), dtype=np.int64)
    x = _point_table(case, t, sigma)
    x = x[np.lexsort(x.reshape(len(x), 2 * x.shape[1]).T[::-1])]
    x.flags.writeable = False
    return ReconstructionResult(res.solvable, res.kernel_size, sigma, x)


def folded_restriction(case: str, pa: PointAssignment):
    """The images of the folded simple system under restriction."""
    return tuple(pa.sigma.combine(c, pa.points) for c in _folded_simple_coeffs(case))


def invariance_agreement_exhaustive(case: str, sigma: SigmaModel) -> int:
    """Check closed form == direct comparison on every point tuple; raise at the first miss.

    Both sides are forms in x = params t that must vanish, over every t in
    Sigma^k (``SigmaModel.form_chunks``): u(a_{perm(i)}) - u(a_i) on the
    simple roots, and Q.  params is the identity, or x = (t, -sum t) for
    the C cases, where the ambient configuration assumes a zero sum.
    Returns the number of tuples checked.
    """
    lat, perm, coeffs = _invariance_data(case)
    k = lat.npoints - (case_spec(case).family == "C")  # C: x = (t, -sum t)
    params = np.vstack([np.eye(k, dtype=np.int64), -np.ones((lat.npoints - k, k), dtype=np.int64)])
    direct = [np.subtract(coeffs[p], coeffs[i]) for i, p in enumerate(perm) if p != i]
    forms = np.array(direct + list(case_spec(case).invariance), dtype=np.int64) @ params
    for cols, r in sigma.form_chunks(forms):
        hit = r.any(axis=0)  # (forms, tuples): the form is nonzero there
        miss = np.flatnonzero(hit[:len(direct)].any(axis=0) != hit[len(direct):].any(axis=0))
        if len(miss):
            t = next(islice(product(sigma.elements(), repeat=k), cols.start + miss[0], None))
            raise AssertionError(f"{case}: closed form and direct comparison disagree at "
                                 f"{tuple(sigma.combine(row, t) for row in params.tolist())}")
    return sigma.order**k


@dataclass(frozen=True)
class ChiReport:
    passed: bool
    domain_size: int
    group_size: int
    orbits_checked: int
    counterexample: tuple | None


_WALKED, _DOMAIN, _DONE = 1, 2, 4  # state bits of a point of Sigma^r'


def chi_injectivity_check(case: str, sigma: SigmaModel,
                          action_cap: int = 10**8) -> ChiReport:
    """Exhaustive injectivity check for the folded moduli inclusion.

    For every pair x, y in the fixed sublattice tensored with the group:
    if some element of the big Weyl group maps x to y, some element of
    the folded Weyl group already does.  Budgeted; refuses rather than
    samples, since the value of the statement is exhaustiveness.

    Points of Sigma^r' = (Z/m1)^r' x (Z/m2)^r', in the r' simple-root
    coordinates, are integer codes c1 + m1^r' c2, each factor little-endian
    with x2 the more significant half, so codes order tuples as digit rows
    compared from the last digit of x2.  Every generator of each group (the
    simple reflections of the big group, the folded generators of the small
    one, restricted to the simple-root coordinates) is tabulated once as a
    permutation of each factor's m^r' codes, so a frontier's images are two
    gathers.  Each orbit is the breadth-first closure of a representative
    under these tables, which is the set {w.v : w in W} since W is
    generated by them.  One byte per point of Sigma^r' holds three bits:
    walked (cleared after each walk), in the domain, and done (in the small
    orbit of an earlier representative).  Domain tuples are visited in
    product order, and the first orbit whose big orbit meets the domain
    outside its small orbit is reported with the least such code.

    Two budget terms are checked against ``action_cap`` before anything
    is allocated: the domain size times |W_big|, read from the stabilizer
    chain of W_big, and the walk's arrays, |Sigma|^r' state bytes plus one
    table entry per generator and per point of each factor.
    """
    lat = case_lattice(case)
    rho = outer_automorphism(ambient_case(case), lat)
    delta = rho.simple_system
    w_big = ambient_weyl_group(case, lat)
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
    mods = (sigma.m1, sigma.m2)
    sizes = [m**rprime for m in mods]
    points = sigma.order**rprime
    walk_entries = points + (len(w_big.mats) + len(w_small.mats)) * sum(sizes)
    if walk_entries > action_cap:
        raise BudgetExceededError(
            f"{walk_entries} orbit-walk entries ({sigma.order}^{rprime} states and the "
            f"generator tables) exceed the action cap {action_cap}"
        )

    embed = basis_coordinates(np.array([r.coords for r in delta.roots], dtype=np.int64).T,
                              np.array([b.coords for b in basis], dtype=np.int64).T)  # (r', k)
    weights = [m ** np.arange(rprime, dtype=np.int64) for m in mods]
    size1 = sizes[0]

    def tables(group):
        """Per factor, the (gens, m^r') codes of every generator's image of every code."""
        g = restrict_to_basis(group.mats, delta.roots, lat).transpose(0, 2, 1)
        out = []
        for m, w, size in zip(mods, weights, sizes):
            digits = np.arange(size, dtype=np.int64)[:, None] // w % m  # (m^r', r')
            out.append(digits @ g % m @ w)
        return out

    state = np.zeros(points, dtype=np.uint8)

    def orbit(v, t1, t2):
        """The codes of the orbit of code v, marked walked while it is walked."""
        frontier = np.array([v], dtype=np.int64)
        state[frontier] |= _WALKED
        levels = [frontier]
        while frontier.size:
            imgs = (t1[:, frontier % size1] + size1 * t2[:, frontier // size1]).ravel()
            fresh = np.sort(imgs[state[imgs] & _WALKED == 0])  # sort and diff beat np.unique
            first = np.ones(len(fresh), dtype=bool)
            np.not_equal(fresh[1:], fresh[:-1], out=first[1:])
            frontier = fresh[first]
            state[frontier] |= _WALKED
            levels.append(frontier)
        codes = np.concatenate(levels)
        state[codes] ^= _WALKED
        return codes

    big, small = tables(w_big), tables(w_small)
    # all domain tuples in product order, t = i1 * len(coords2) + i2
    coords1 = np.array(list(product(range(mods[0]), repeat=k)), dtype=np.int64)
    coords2 = np.array(list(product(range(mods[1]), repeat=k)), dtype=np.int64)
    codes1 = coords1 @ embed.T % mods[0] @ weights[0]
    codes2 = coords2 @ embed.T % mods[1] @ weights[1]
    dom_codes = (codes1[:, None] + size1 * codes2[None, :]).ravel()
    state[dom_codes] |= _DOMAIN

    def pair(t):
        """The domain tuple t as (coordinates mod m1, coordinates mod m2)."""
        i1, i2 = divmod(t, len(coords2))
        return tuple(coords1[i1]), tuple(coords2[i2])

    orbits = 0
    for t, code in enumerate(dom_codes.tolist()):
        if state[code] & _DONE:
            continue
        orbits += 1
        small_codes = orbit(code, *small)
        state[small_codes] |= _DONE
        big_codes = orbit(code, *big)
        reached = big_codes[state[big_codes] & _DOMAIN != 0]
        # earlier big orbits are disjoint from this one, so done here means in small_codes
        outside = reached[state[reached] & _DONE == 0]
        if len(outside):
            y = int(np.flatnonzero(dom_codes == outside.min())[0])
            return ChiReport(False, domain_size, len(w_big), orbits, (pair(t), pair(y)))
        if len(reached) != len(small_codes):
            raise ValueError(f"{case}: a small orbit leaves the domain part of its big orbit")
    return ChiReport(True, domain_size, len(w_big), orbits, None)
