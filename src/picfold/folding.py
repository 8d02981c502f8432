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

The same sigma forces the relations among a case's blow-up points
(``case_points``).

As in ``rootsys``, a root system is the sorted tuple of its roots and a
simple system the tuple of its simple roots in diagram order, which for
``folded_simple_system`` is the order of ``rho.orbits()``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from itertools import combinations
from math import lcm
from typing import NamedTuple

import numpy as np

from ._linalg import reduced_echelon, smith_normal_form
from .cases import Rows, case_spec
from .lattice import DivisorClass, IntersectionLattice, gram_matrix
from .rootsys import (
    CoxeterWeylGroup,
    WeylElement,
    WeylGroup,
    basis_coordinates,
    cartan_matrix_of,
    restrict_to_basis,
    root_sublattice,
    row_keys,
    simple_reflections,
    standard_simple_system,
)


class OuterAutomorphism:
    """A diagram automorphism acting on a chosen simple system.

    ``permutation`` maps simple-root indices (0-based) to indices; it acts
    on the span of the simple roots plus K, fixing K.  Besides K, the
    ambient roots are orthogonal to the classes ``orthogonal_to``, and
    ``zero_sums`` holds rows r with r x = 0 on the points of every ambient
    configuration.  ``outer_automorphism`` builds one per (ambient, lattice),
    and each is equal only to itself.
    """

    def __init__(self, ambient: str, lattice: IntersectionLattice, simple_system: tuple,
                 permutation: tuple[int, ...], orthogonal_to: tuple[DivisorClass, ...] = (),
                 zero_sums: Rows = ()):
        self.ambient = ambient  # the simply-laced type: "A", "D", "E6" or "D4-triality"
        self.lattice, self.simple_system, self.permutation = lattice, simple_system, permutation
        self.orthogonal_to, self.zero_sums = orthogonal_to, zero_sums

    @cached_property
    def invariance_rows(self) -> Rows:
        """D: row i is l(sigma a_i) - l(a_i), so D x = 0 iff u = u o sigma on the simple roots."""
        coeffs = [self.lattice.l_coeffs(r) for r in self.simple_system]
        return tuple(tuple(a - b for a, b in zip(coeffs[p], coeffs[i]))
                     for i, p in enumerate(self.permutation))

    @cached_property
    def reflections(self) -> tuple[WeylElement, ...]:
        """The ambient simple reflections, built once per fold for both Weyl groups."""
        return tuple(simple_reflections(self.simple_system, self.lattice))

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
def outer_automorphism(ambient: str, lat: IntersectionLattice) -> OuterAutomorphism:
    """The folding automorphism of an ambient type (A, D, E6 or D4-triality) on lat, built once.

    Index conventions follow the simple systems of standard_simple_system:
    the A chain is reversed; the D fork ends (first two roots) swap; for
    the cubic-surface E6 labelling the two chain ends swap (1<->6, 2<->5);
    triality cycles the three D4 fork ends.  The ambient roots are
    orthogonal to K and to f (D, triality), to f and s (A) or to K alone
    (E6), and the points of A sum to zero.  The key is the ambient type,
    not a case name: one D lives on many lattices.  The Cartan-matrix check
    runs once per (ambient, lat); callers share the one result.
    """
    sums = ()
    if ambient == "A":
        delta, others = standard_simple_system("A", lat), (lat.f, lat.s)
        perm = tuple(reversed(range(len(delta))))  # the chain of 2n - 1 roots, reversed
        sums = ((1,) * lat.npoints,)
    elif ambient == "D":
        delta, others = standard_simple_system("D", lat), (lat.f,)
        perm = (1, 0) + tuple(range(2, len(delta)))
    elif ambient == "E6":
        delta, others = standard_simple_system("E6", lat), ()
        perm = (5, 4, 2, 3, 1, 0)
    elif ambient == "D4-triality":
        delta, others = standard_simple_system("D", lat), (lat.f,)
        if len(delta) != 4:
            raise ValueError("triality needs the 4-point blow-up")
        perm = (1, 3, 2, 0)  # a1 -> a2 -> a4 -> a1, a3 fixed
    else:
        raise ValueError(f"unknown ambient type {ambient!r}")
    a, n = cartan_matrix_of(delta, lat), len(delta)
    if sorted(perm) != list(range(n)) or any(a[perm[i]][perm[j]] != a[i][j]
                                             for i in range(n) for j in range(n)):
        raise ValueError("permutation is not a diagram automorphism")
    return OuterAutomorphism(ambient, lat, delta, perm, others, sums)


def case_fold(case: str) -> OuterAutomorphism:
    """The folding automorphism of a case name, on the case's own lattice."""
    spec = case_spec(case)
    return outer_automorphism(spec.ambient, spec.lattice)


class FreePoints(NamedTuple):
    """The blow-up points x with D x = 0 (``free_points``)."""

    points: Rows  # P: x = P t, one row per blow-up point
    relations: Rows  # R: a basis of the integer vectors r with r P = 0
    torsion: int  # order of the torsion points that label the fixed components


def free_points(rows: Rows, npoints: int) -> FreePoints:
    """P, R and the torsion order of the integer solutions x of D x = 0, D the rows.

    x = P t, t the values of the first independent points: P is D's Smith-form
    kernel in reduced echelon form (``ValueError`` unless integral).  R has a
    row x_j - P[j] t per other point j, so R x = 0 holds exactly on the image
    of P, over Z and over every finite abelian group.  The torsion order is
    D's last nonzero invariant factor, 1 when D is zero.
    """
    snf = smith_normal_form([list(r) for r in rows] or [[0] * npoints])
    basis, free = reduced_echelon(snf.kernel())
    if any(v.denominator != 1 for vec in basis for v in vec):
        raise ValueError("no integral basis is the identity on the first independent points")
    points = tuple(tuple(int(vec[i]) for vec in basis) for i in range(npoints))
    relations = tuple(tuple(int(i == j) - (points[j][free.index(i)] if i in free else 0)
                            for i in range(npoints)) for j in range(npoints) if j not in free)
    return FreePoints(points, relations, next((d for d in reversed(snf.diag) if d), 1))


@lru_cache(maxsize=None)
def case_points(case: str) -> FreePoints:
    """``free_points`` of the fold's invariance rows and zero sums, derived once per case."""
    rho = case_fold(case)
    return free_points(rho.invariance_rows + rho.zero_sums, rho.lattice.npoints)


def ambient_root_system(ambient: str, lat: IntersectionLattice) -> tuple[DivisorClass, ...]:
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


def _simple_orbit_sums(rho: OuterAutomorphism) -> np.ndarray:
    """The orbit sums of rho's simple roots, as lattice columns in ``rho.orbits()`` order."""
    unit = np.eye(len(rho.permutation), dtype=np.int64)[:, [orb[0] for orb in rho.orbits()]]
    return _columns(rho.simple_system) @ _orbit_sums(unit, rho)


def folded_weyl_generators(rho: OuterAutomorphism) -> list[WeylElement]:
    """One generator per orbit: the product of its (commuting) reflections."""
    delta, lat, refl = rho.simple_system, rho.lattice, rho.reflections
    gens = []
    for orb in rho.orbits():
        for i, j in combinations(orb, 2):
            if lat.pair(delta[i], delta[j]) != 0:
                raise ValueError("roots in an automorphism orbit must be orthogonal")
        gens.append(reduce(lambda a, b: a @ b, (refl[i] for i in orb)))
    return gens


def folded_weyl_group(case: str, cap: int = 10**6) -> WeylGroup:
    """The Weyl group of the folded type as a subgroup of the ambient one, built once."""
    return _weyl_group(case, cap, True)


def ambient_weyl_group(case: str, cap: int = 10**6) -> WeylGroup:
    """The Weyl group of the case's simply-laced ambient type, built once."""
    return _weyl_group(case, cap, False)


@lru_cache(maxsize=None)
def _weyl_group(case: str, cap: int, folded: bool) -> WeylGroup:
    """One shared group per positional key (case, cap, folded); its arrays are read-only.

    Built on the case's lattice from the Cartan matrix of its simple system
    (``CoxeterWeylGroup``): the folded simple system with one generator per
    sigma-orbit, or the ambient one with its simple reflections.
    """
    rho = case_fold(case)
    if folded:
        return CoxeterWeylGroup(folded_weyl_generators(rho), folded_simple_system(case),
                                rho.lattice, cap)
    return CoxeterWeylGroup(rho.reflections, rho.simple_system, rho.lattice, cap)


@lru_cache(maxsize=None)
def fixed_sublattice(rho: OuterAutomorphism) -> tuple[DivisorClass, ...]:
    """A basis of the automorphism-fixed part of the root lattice, built once per rho.

    sigma permutes the simple-root coordinates, so the cycle sums
    sum_{i in c} a_i, in ``rho.orbits()`` order, are a basis.
    """
    delta = rho.simple_system
    return tuple(sum((delta[i] for i in orb[1:]), delta[orb[0]]) for orb in rho.orbits())


@lru_cache(maxsize=None)
def folded_simple_system(case: str) -> tuple[DivisorClass, ...]:
    """The orbit sums of the ambient simple roots, in ``rho.orbits()`` order, built once."""
    sums = _simple_orbit_sums(case_fold(case))
    return tuple(DivisorClass(tuple(col)) for col in sums.T.tolist())


def folded_root_system(case: str) -> tuple[DivisorClass, ...]:
    """R(G) of a folded case, the sigma-orbit sums of the ambient roots, built once."""
    return _folded_roots(case)


@lru_cache(maxsize=None)
def _folded_roots(case: str) -> tuple[DivisorClass, ...]:
    """The sums in simple-root coordinates; ``ValueError`` unless nonzero, one per orbit.

    The orbits are counted by Burnside's lemma, (1/ord sigma) sum_k |Fix(sigma^k)|.
    """
    rho = case_fold(case)
    lat = rho.lattice
    bmat = _columns(rho.simple_system)
    coords = basis_coordinates(bmat, _columns(ambient_root_system(rho.ambient, lat)))
    sums = {DivisorClass(tuple(col)) for col in (bmat @ _orbit_sums(coords, rho)).T.tolist()}
    inv, images, fixed = np.argsort(rho.permutation), coords, 0
    for _ in range(rho.order):
        fixed += int((images == coords).all(axis=0).sum())
        images = images[inv]
    if lat.zero in sums or len(sums) * rho.order != fixed:
        raise ValueError(f"{case} on {lat.npoints} points: {len(sums)} orbit sums "
                         f"for {fixed // rho.order} sigma-orbits")
    return tuple(sorted(sums))


def _fixed_coords(basis, classes) -> np.ndarray:
    """The classes as (N, k) rows of coordinates in the sublattice basis."""
    return basis_coordinates(_columns(basis), _columns(classes)).T


def restricted_reflection_matrices(case: str):
    """The two presentations of the folded Weyl group on the fixed sublattice.

    Folded roots have self-intersection -4, -6, -8, -18, so their
    reflections are integral only on the automorphism-fixed sublattice.
    Returns (the reflections in the sorted roots of ``folded_root_system``,
    the restricted folded generators, the sublattice basis): two int64
    stacks in basis coordinates.  Each reflection is I - p q^T, p the
    primitive root, q = 2 G p / (p, p) and G the basis's Gram matrix, all
    in one product; a remainder raises ``ValueError``.
    """
    rho = case_fold(case)
    basis, lat = fixed_sublattice(rho), rho.lattice
    roots = _fixed_coords(basis, folded_root_system(case))
    prim = roots // np.gcd.reduce(roots, axis=1, keepdims=True)
    num = 2 * prim @ gram_matrix(lat, basis)
    norms = (num * prim).sum(axis=1, keepdims=True) // 2
    if (num % norms).any():
        raise ValueError(f"{case}: a folded root reflection leaves the fixed sublattice")
    reflections = np.eye(len(basis), dtype=np.int64) - prim[:, :, None] * (num // norms)[:, None]
    gens = restrict_to_basis(np.stack([g.mat for g in folded_weyl_generators(rho)]), basis, lat)
    return reflections, gens, basis


def check_presentations(case: str) -> None:
    """Certify, with no closure, that the stacks of ``restricted_reflection_matrices`` agree.

    Each generator g_i must be the reflection in its folded simple root b_i,
    so <g> lies in <s_beta>.  A walk from the b_i by the g_j must stay in R(G)
    and reach all of it, with s_beta' = g_j s_beta g_j at each new root
    beta' = g_j beta (Humphreys, *Reflection Groups and Coxeter Groups*, §1.14),
    so every s_beta is a word in the g_j: the groups are one.  Raises ``ValueError``.
    """
    reflections, gens, basis = restricted_reflection_matrices(case)
    roots = _fixed_coords(basis, folded_root_system(case))
    index = {key: n for n, key in enumerate(row_keys(roots))}
    queue = [index.get(key) for key in row_keys(_fixed_coords(basis, folded_simple_system(case)))]
    if None in queue or not np.array_equal(gens, reflections[queue]):
        raise ValueError(f"{case}: a folded generator is not the reflection in its simple root")
    seen = np.isin(np.arange(len(roots)), queue)
    for n in queue:  # grows while it is walked
        for j, key in enumerate(row_keys(gens @ roots[n])):
            m = index.get(key)
            if m is None:
                raise ValueError(f"{case}: generator {j} maps {roots[n].tolist()} out of R(G)")
            if not seen[m]:
                if not np.array_equal(reflections[m], gens[j] @ reflections[n] @ gens[j]):
                    raise ValueError(f"{case}: the reflection in {roots[m].tolist()} is not "
                                     f"its conjugate by generator {j}")
                seen[m] = True
                queue.append(m)
    if len(queue) != len(roots):
        raise ValueError(f"{case}: the walk reaches {len(queue)} of {len(roots)} folded roots")
