"""Diagram automorphisms and the folded root systems B, C, F4, G2 they give.

A diagram automorphism sigma of the ambient type (A, D, E6, D4-triality)
permutes its simple roots.  The folded roots and simple roots are the
sigma-orbit sums sum_{k < ord sigma} sigma^k alpha of the ambient ones
(Steinberg, *Lectures on Chevalley groups*, 1967; Carter, *Simple Groups of
Lie Type*, 1972, ch. 13); none is written out by hand.

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
from itertools import combinations
from math import lcm

import numpy as np

from ._linalg import integer_kernel
from .cases import FOLDED_TO_SIMPLY_LACED, ambient_case  # noqa: F401 (re-exported)
from .lattice import DivisorClass, IntersectionLattice
from .rootsys import (
    CoxeterWeylGroup,
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
    root_sublattice,
    simple_reflections,
    standard_simple_system,
    weyl_generate,
)


@dataclass(frozen=True)
class OuterAutomorphism:
    """A diagram automorphism acting on a chosen simple system.

    ``permutation`` maps simple-root indices (0-based) to indices; it acts
    on the span of the simple roots plus K, fixing K.  Besides K, the
    ambient roots are orthogonal to the classes ``orthogonal_to``.
    """

    case: str
    lattice: IntersectionLattice
    simple_system: SimpleSystem
    permutation: tuple[int, ...]
    orthogonal_to: tuple[DivisorClass, ...] = ()

    @property
    def order(self) -> int:
        """ord sigma: the lcm of the cycle lengths."""
        return lcm(*map(len, self.orbits()))

    def orbits(self) -> list[tuple[int, ...]]:
        """The cycles of ``permutation``, each from its least index, in that order."""
        out, p = [], self.permutation
        for i in range(len(p)):
            if all(i not in orb for orb in out):
                orb = [i]
                while p[orb[-1]] != i:
                    orb.append(p[orb[-1]])
                out.append(tuple(orb))
        return out


@lru_cache(maxsize=None)
def outer_automorphism(case: str, lat: IntersectionLattice) -> OuterAutomorphism:
    """The folding automorphism for the A, D, E6 or D4-triality case, built once.

    Index conventions follow the simple systems of standard_simple_system:
    the A chain is reversed; the D fork ends (first two roots) swap; for
    the cubic-surface E6 labelling the two chain ends swap (1<->6, 2<->5);
    triality cycles the three D4 fork ends.  The ambient roots are
    orthogonal to K and to f (D, triality), to f and s (A) or to K alone
    (E6).  The Cartan-matrix check runs once per (case, lat); callers share
    the frozen result.
    """
    if case == "A":
        delta, others = standard_simple_system("A", lat), (lat.f, lat.s)
        perm = tuple(reversed(range(len(delta))))  # the chain of 2n - 1 roots, reversed
    elif case == "D":
        delta, others = standard_simple_system("D", lat), (lat.f,)
        perm = (1, 0) + tuple(range(2, len(delta)))
    elif case == "E6":
        delta, others = standard_simple_system("E6", lat), ()
        perm = (5, 4, 2, 3, 1, 0)
    elif case == "D4-triality":
        delta, others = standard_simple_system("D", lat), (lat.f,)
        if len(delta) != 4:
            raise ValueError("triality needs the 4-point blow-up")
        perm = (1, 3, 2, 0)  # a1 -> a2 -> a4 -> a1, a3 fixed
    else:
        raise ValueError(f"unknown folding case {case!r}")
    a, n = cartan_matrix_of(list(delta.roots), lat), len(delta)
    if sorted(perm) != list(range(n)) or any(a[perm[i]][perm[j]] != a[i][j]
                                             for i in range(n) for j in range(n)):
        raise ValueError("permutation is not a diagram automorphism")
    return OuterAutomorphism(case, lat, delta, perm, others)


def ambient_root_system(ambient: str, lat: IntersectionLattice) -> RootSystemData:
    """The ambient type's roots, built once per (lat, orthogonal_to): D and triality share."""
    return _root_sublattice(lat, outer_automorphism(ambient, lat).orthogonal_to)


_root_sublattice = lru_cache(maxsize=None)(root_sublattice)


def _columns(classes) -> np.ndarray:
    return np.array([c.coords for c in classes], dtype=np.int64).T


def _orbit_sums(coords: np.ndarray, rho: OuterAutomorphism) -> np.ndarray:
    """sum_{k < ord sigma} sigma^k c per column c of simple-root coordinates.

    sigma moves coordinate i to permutation[i]: c goes to c[argsort(permutation)].
    """
    inv, images, total = np.argsort(rho.permutation), coords, coords
    for _ in range(rho.order - 1):
        images = images[inv]
        total = total + images
    return total


def _simple_orbit_sums(delta: SimpleSystem, rho: OuterAutomorphism) -> np.ndarray:
    """The orbit sums of delta's roots, as lattice columns in ``rho.orbits()`` order."""
    unit = np.eye(len(rho.permutation), dtype=np.int64)[:, [orb[0] for orb in rho.orbits()]]
    return _columns(delta.roots) @ _orbit_sums(unit, rho)


@dataclass(frozen=True)
class FoldedSimpleSystem:
    """Orbit-averages of simple roots; rational coordinates."""

    vectors: tuple[tuple[Fraction, ...], ...]
    type_tag: str


def fold_simple_system(delta: SimpleSystem, rho: OuterAutomorphism) -> FoldedSimpleSystem:
    """Average each orbit O of simple roots, as its orbit sum over ord sigma.

    The sum counts each root of O ord sigma / |O| times.  The averages are
    genuinely rational and are kept out of DivisorClass on purpose.
    """
    sums = _simple_orbit_sums(delta, rho)
    vecs = [tuple(Fraction(c, rho.order) for c in col) for col in sums.T.tolist()]
    tag = identify_cartan_type(cartan_matrix_of_q(vecs, rho.lattice))
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
    """One shared group per positional key (case, lat, cap, folded); its arrays are read-only.

    Built from the Cartan matrix of its simple system (``CoxeterWeylGroup``):
    the folded simple system with one generator per sigma-orbit, or the
    ambient one with its simple reflections.
    """
    rho = outer_automorphism(ambient_case(case), lat)
    delta = rho.simple_system
    if folded:
        return CoxeterWeylGroup(folded_weyl_generators(delta, rho),
                                folded_simple_system(case, lat), lat, cap)
    return CoxeterWeylGroup(simple_reflections(delta, lat), delta, lat, cap)


@lru_cache(maxsize=None)
def fixed_sublattice(rho: OuterAutomorphism) -> tuple[DivisorClass, ...]:
    """Integral basis of the automorphism-fixed part of the root lattice, computed once per rho.

    Computed as the integer kernel of (P - id) in simple-root
    coordinates, so the result is a saturated sublattice.
    """
    unit = np.eye(len(rho.permutation), dtype=np.int64)
    kernel = np.array(integer_kernel((unit[:, rho.permutation] - unit).tolist()), dtype=np.int64)
    basis = kernel @ _columns(rho.simple_system.roots).T
    return tuple(DivisorClass(tuple(v)) for v in basis.tolist())


def folded_simple_system(case: str, lat: IntersectionLattice) -> SimpleSystem:
    """The orbit sums of the ambient simple roots, in ``rho.orbits()`` order."""
    rho = outer_automorphism(ambient_case(case), lat)
    sums = _simple_orbit_sums(rho.simple_system, rho)
    return SimpleSystem(tuple(DivisorClass(tuple(col)) for col in sums.T.tolist()), case)


def _ambient_root_coords(rho: OuterAutomorphism) -> tuple[np.ndarray, np.ndarray]:
    """The simple roots as lattice columns, and the ambient roots in their coordinates."""
    bmat = _columns(rho.simple_system.roots)
    return bmat, basis_coordinates(bmat, _columns(ambient_root_system(rho.case, rho.lattice).roots))


def folded_root_system(case: str, lat: IntersectionLattice) -> RootSystemData:
    """R(G) of a folded case, the sigma-orbit sums of the ambient roots, built once."""
    return _folded_roots(case, lat)


@lru_cache(maxsize=None)
def _folded_roots(case: str, lat: IntersectionLattice) -> RootSystemData:
    """The sums in simple-root coordinates; ``ValueError`` unless nonzero, one per orbit.

    The orbits are counted by Burnside's lemma, (1/ord sigma) sum_k |Fix(sigma^k)|.
    """
    rho = outer_automorphism(ambient_case(case), lat)
    bmat, coords = _ambient_root_coords(rho)
    sums = {DivisorClass(tuple(col)) for col in (bmat @ _orbit_sums(coords, rho)).T.tolist()}
    inv, images, fixed = np.argsort(rho.permutation), coords, 0
    for _ in range(rho.order):
        fixed += int((images == coords).all(axis=0).sum())
        images = images[inv]
    if lat.zero in sums or len(sums) * rho.order != fixed:
        raise ValueError(f"{case} on {lat.npoints} points: {len(sums)} orbit sums "
                         f"for {fixed // rho.order} sigma-orbits")
    return RootSystemData(lat, frozenset(sums))


def f4_short_roots(lat: IntersectionLattice) -> tuple[DivisorClass, ...]:
    """The 24 short roots of F4: the sums alpha + sigma alpha over the 2-orbits of R(E6)."""
    rho = outer_automorphism("E6", lat)
    bmat, coords = _ambient_root_coords(rho)
    moved = coords[:, (coords[np.argsort(rho.permutation)] != coords).any(axis=0)]
    sums = bmat @ _orbit_sums(moved, rho)
    return tuple(sorted({DivisorClass(tuple(c)) for c in sums.T.tolist()}))


def _restricted_root_reflections(case: str, lat: IntersectionLattice,
                                 basis) -> list[WeylElement]:
    """Reflections in every folded root, as matrices on the sublattice basis."""
    bmat = _columns(basis)
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
