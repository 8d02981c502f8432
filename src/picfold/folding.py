"""Diagram automorphisms and folded root systems: B, C, F4, G2.

The folding automorphism of a simply-laced system is realized on the
root sublattice only, in simple-root coordinates.  It cannot extend to
an isometry of the full blow-up lattice fixing f and K: solving the
linear conditions for the image of the section class forces half-integer
coordinates.  Nothing downstream needs more than the root-lattice action
(plus K, which is fixed), so the domain is enforced instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, product

import numpy as np

from ._linalg import integer_kernel
from .cases import FOLDED_TO_SIMPLY_LACED, ambient_case, case_spec  # noqa: F401 (re-exported)
from .lattice import DivisorClass, IntersectionLattice
from .rootsys import (
    RootSystemData,
    SimpleSystem,
    WeylElement,
    WeylGroup,
    basis_coordinates,
    cartan_matrix_of,
    cartan_matrix_of_q,
    identify_cartan_type,
    reflect,
    reflection,
    restrict_to_basis,
    simple_reflections,
    standard_simple_system,
    weyl_generate,
)


@dataclass(frozen=True)
class OuterAutomorphism:
    """A diagram automorphism acting on a chosen simple system.

    ``permutation`` maps simple-root indices (0-based) to indices; it acts
    on the span of the simple roots plus K, fixing K.
    """

    case: str
    lattice: IntersectionLattice
    simple_system: SimpleSystem
    permutation: tuple[int, ...]
    order: int

    def orbits(self) -> list[tuple[int, ...]]:
        seen = set()
        out = []
        for i in range(len(self.permutation)):
            if i in seen:
                continue
            orb = [i]
            seen.add(i)
            j = self.permutation[i]
            while j != i:
                orb.append(j)
                seen.add(j)
                j = self.permutation[j]
            out.append(tuple(orb))
        return out


@lru_cache(maxsize=None)
def outer_automorphism(case: str, lat: IntersectionLattice) -> OuterAutomorphism:
    """The folding automorphism for the A, D, E6 or D4-triality case, built once.

    Index conventions follow the simple systems of standard_simple_system:
    the A chain is reversed; the D fork ends (first two roots) swap; for
    the cubic-surface E6 labelling the two chain ends swap (1<->6, 2<->5);
    triality cycles the three D4 fork ends.  The Cartan-matrix check runs
    once per (case, lat); callers share the frozen result.
    """
    if case == "A":
        delta = standard_simple_system("A", lat)
        m = len(delta)  # 2n - 1
        perm = tuple(m - 1 - i for i in range(m))
        order = 2
    elif case == "D":
        delta = standard_simple_system("D", lat)
        perm = (1, 0) + tuple(range(2, len(delta)))
        order = 2
    elif case == "E6":
        delta = standard_simple_system("E6", lat)
        perm = (5, 4, 2, 3, 1, 0)
        order = 2
    elif case == "D4-triality":
        delta = standard_simple_system("D", lat)
        if len(delta) != 4:
            raise ValueError("triality needs the 4-point blow-up")
        perm = (1, 3, 2, 0)  # a1 -> a2 -> a4 -> a1, a3 fixed
        order = 3
    else:
        raise ValueError(f"unknown folding case {case!r}")
    rho = OuterAutomorphism(case, lat, delta, perm, order)
    a = cartan_matrix_of(list(delta.roots), lat)
    n = len(delta)
    if any(a[perm[i]][perm[j]] != a[i][j] for i in range(n) for j in range(n)):
        raise ValueError("permutation is not a diagram automorphism")
    p = perm
    for _ in range(order - 1):
        p = tuple(perm[i] for i in p)
    if p != tuple(range(n)):
        raise ValueError("permutation order mismatch")
    return rho


@dataclass(frozen=True)
class FoldedSimpleSystem:
    """Orbit-averages of simple roots; rational coordinates."""

    vectors: tuple[tuple[Fraction, ...], ...]
    type_tag: str


def fold_simple_system(delta: SimpleSystem, rho: OuterAutomorphism) -> FoldedSimpleSystem:
    """Average each automorphism orbit of simple roots.

    The averages satisfy the Cartan relations of the folded type; they
    are genuinely rational and are kept out of DivisorClass on purpose.
    """
    lat = rho.lattice
    vecs = []
    for orb in rho.orbits():
        total = [Fraction(0)] * lat.rank
        for i in orb:
            for t, c in enumerate(delta.roots[i].coords):
                total[t] += c
        vecs.append(tuple(v / len(orb) for v in total))
    tag = identify_cartan_type(cartan_matrix_of_q(vecs, lat))
    return FoldedSimpleSystem(tuple(vecs), tag)


def folded_weyl_generators(delta: SimpleSystem, rho: OuterAutomorphism) -> list[WeylElement]:
    """One generator per orbit: the product of its (commuting) reflections."""
    lat = rho.lattice
    gens = []
    for orb in rho.orbits():
        for i, j in combinations(orb, 2):
            if lat.pair(delta.roots[i], delta.roots[j]) != 0:
                raise ValueError("roots in an automorphism orbit must be orthogonal")
        refl = [reflection(lat, delta.roots[i]) for i in orb]
        gens.append(reduce(lambda a, b: a @ b, refl))
    return gens


def folded_weyl_group(case: str, lat: IntersectionLattice, cap: int = 10**6) -> WeylGroup:
    """The Weyl group of the folded type as a subgroup of the ambient one, built once."""
    return _weyl_group(case, lat, cap, True)


def ambient_weyl_group(case: str, lat: IntersectionLattice, cap: int = 10**6) -> WeylGroup:
    """The Weyl group of the case's simply-laced ambient type, built once."""
    return _weyl_group(case, lat, cap, False)


@lru_cache(maxsize=None)
def _weyl_group(case: str, lat: IntersectionLattice, cap: int, folded: bool) -> WeylGroup:
    """One shared group per positional key (case, lat, cap, folded); its arrays are read-only."""
    rho = outer_automorphism(ambient_case(case), lat)
    delta = rho.simple_system
    gens = folded_weyl_generators(delta, rho) if folded else simple_reflections(delta, lat)
    return weyl_generate(gens, cap=cap)


@lru_cache(maxsize=None)
def fixed_sublattice(rho: OuterAutomorphism) -> tuple[DivisorClass, ...]:
    """Integral basis of the automorphism-fixed part of the root lattice, computed once per rho.

    Computed as the integer kernel of (P - id) in simple-root
    coordinates, so the result is a saturated sublattice.
    """
    roots = rho.simple_system.roots
    n = len(roots)
    p_minus_id = [[(1 if rho.permutation[j] == i else 0) - (1 if i == j else 0)
                   for j in range(n)] for i in range(n)]
    basis = []
    for combo in integer_kernel(p_minus_id):
        acc = rho.lattice.zero
        for c, r in zip(combo, roots):
            acc = acc + c * r
        basis.append(acc)
    return tuple(basis)


def folded_root_system(case: str, lat: IntersectionLattice) -> RootSystemData:
    """The literal integral divisor presentation of R(B_n), R(C_n), R(G2), R(F4)."""
    l = lat.l
    family = case_spec(case).family
    roots: set[DivisorClass] = set()
    if family == "B":
        n = lat.npoints - 1
        idx = range(2, n + 2)
        for i in idx:
            roots.add(lat.f - 2 * l(i))
            roots.add(-(lat.f - 2 * l(i)))
        for i, j in product(idx, idx):
            if i != j:
                roots.add(2 * (l(i) - l(j)))
        for i, j in combinations(idx, 2):
            roots.add(2 * (lat.f - l(i) - l(j)))
            roots.add(-2 * (lat.f - l(i) - l(j)))
        expected = 2 * n * n
    elif family == "C":
        n = lat.npoints // 2
        eps = [l(k) - l(2 * n + 1 - k) for k in range(1, n + 1)]
        for e in eps:
            roots.add(2 * e)
            roots.add(-2 * e)
        for a, b in combinations(eps, 2):
            for sa, sb in product((1, -1), repeat=2):
                roots.add(sa * a + sb * b)
        expected = 2 * n * n
    elif family == "G2":
        eps = (l(2), l(3), lat.f - l(4))
        for a, b in combinations(eps, 2):
            roots.add(3 * (a - b))
            roots.add(-3 * (a - b))
        for i in range(3):
            j, k = [t for t in range(3) if t != i]
            v = 2 * eps[i] - eps[j] - eps[k]
            roots.add(v)
            roots.add(-v)
        expected = 12
    else:  # F4
        h = lat.h
        eps = (
            l(2) - l(3) + l(4) - l(5),
            l(2) + l(3) - l(4) - l(5),
            2 * h - 2 * l(1) - l(2) - l(3) - l(4) - l(5),
            2 * h - 2 * l(6) - l(2) - l(3) - l(4) - l(5),
        )
        for e in eps:
            roots.add(e)
            roots.add(-e)
        for a, b in combinations(eps, 2):
            for sa, sb in product((1, -1), repeat=2):
                roots.add(sa * a + sb * b)
        for signs in product((1, -1), repeat=4):
            total = lat.zero
            for s, e in zip(signs, eps):
                total = total + s * e
            if any(c % 2 for c in total.coords):
                raise ValueError(f"{total} is not divisible by 2")
            roots.add(DivisorClass(tuple(c // 2 for c in total.coords)))
        expected = 48
    if len(roots) != expected:
        raise ValueError(f"{case} on {lat.npoints} points: {len(roots)} roots, not {expected}")
    return RootSystemData(lat, frozenset(roots))


def f4_short_roots(lat: IntersectionLattice) -> tuple[DivisorClass, ...]:
    """The 24 short roots (self-intersection -4) of the F4 presentation."""
    rs = folded_root_system("F4", lat)
    return tuple(sorted(r for r in rs.roots if lat.pair(r, r) == -4))


def _restricted_root_reflections(case: str, lat: IntersectionLattice,
                                 basis) -> list[WeylElement]:
    """Reflections in every folded root, as matrices on the sublattice basis."""
    bmat = np.array([[b.coords[i] for b in basis] for i in range(lat.rank)], dtype=np.int64)
    images = np.array([[reflect(lat, root, b).coords for b in basis]
                       for root in sorted(folded_root_system(case, lat).roots)], dtype=np.int64)
    return [WeylElement.from_matrix(m) for m in basis_coordinates(bmat, images.transpose(0, 2, 1))]


def restricted_reflection_matrices(case: str, lat: IntersectionLattice, cap: int = 10**6):
    """The two presentations of the folded Weyl group on the fixed sublattice.

    Folded roots have self-intersection -4, -6, -8, -18, so their
    reflections are not integral on the whole blow-up lattice; they are
    integral on the automorphism-fixed sublattice, and there they
    generate the same group as the folded Weyl generators. Returns
    (group of the folded-root reflections, group of the restricted folded
    generators, sublattice basis); the two groups should be equal.
    """
    rho = outer_automorphism(ambient_case(case), lat)
    basis = fixed_sublattice(rho)
    side_a = weyl_generate(_restricted_root_reflections(case, lat, basis), cap=cap)
    gens = np.stack([g.mat for g in folded_weyl_generators(rho.simple_system, rho)])
    side_b = weyl_generate(map(WeylElement.from_matrix, restrict_to_basis(gens, basis, lat)),
                           cap=cap)
    return side_a, side_b, basis
