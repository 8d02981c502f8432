"""Restriction data of configurations and the moduli-level checks.

The restriction homomorphism is normalized by u(s) = u(f) = u(h) = 0 and
u(l_i) = x_i; this is the convention forced by the displayed values of u
on simple roots (for instance u(f - l1 - l2) = -x1 - x2).  Points are
integer arrays: (..., npoints, 2) residue pairs in a SigmaModel, or, for
generic arguments, the (npoints, k) coefficient rows over free parameters
t, such as the P of ``case_points`` (x = P t).

The folded Weyl group is the centralizer of the diagram automorphism in
the ambient one, W(G) = W(G~)^sigma (Steinberg, *Endomorphisms of linear
algebraic groups*, 1968); ``chi_injectivity_check`` certifies it per case.

x = P t (``point_table``) maps an (n, rank, 2) stack of parameters to
(n, npoints, 2) points, M x (``folded_images``, the ``restriction`` of the
folded simple roots) maps points to an (n, rank, 2) stack of folded
restriction data, and ``reconstruct_points`` inverts M P t on such a
stack in one call.  A single image is a stack of one.  Draws that share an
image share its solve: ``distinct_images`` groups the rows of a stack,
and ``ReconstructionStack.contains`` looks each draw up in the block of its
own image.
"""

from __future__ import annotations

from itertools import islice, product
from typing import NamedTuple

import numpy as np

from .abelian import SigmaModel, solve_group_stack
from .cases import case_spec
from .folding import (
    ambient_weyl_group,
    case_fold,
    case_points,
    fixed_sublattice,
    folded_simple_system,
    folded_weyl_group,
    free_points,
)
from .lattice import IntersectionLattice
from .rootsys import (
    BudgetExceededError,
    basis_coordinates,
    restrict_to_basis,
    row_keys,
    weyl_generate,  # noqa: F401 (perfbench/tracer.py binds it here by name)
)


def point_table(case: str, t: np.ndarray, sigma: SigmaModel) -> np.ndarray:
    """x = P t mod (m1, m2): an (n, rank, 2) int64 table of parameters to (n, npoints, 2)."""
    return np.array(case_points(case).points, dtype=np.int64) @ t % np.array([sigma.m1, sigma.m2])


def restriction(lat: IntersectionLattice, classes, x: np.ndarray, sigma: SigmaModel | None = None):
    """u(d) = sum_i c_i x_i per class d, (..., len(classes), last) from x (..., npoints, last).

    Reduced mod (m1, m2) on the last axis when ``sigma`` is given, exact otherwise.
    """
    coeffs = np.array([d.coords for d in classes], dtype=np.int64).reshape(-1, lat.rank)
    u = coeffs[:, lat.l_offset:] @ x
    return u if sigma is None else u % np.array([sigma.m1, sigma.m2])


class FixedComponents(NamedTuple):
    labels: tuple
    full_torsion: bool


def fixed_components(case: str, sigma: SigmaModel) -> FixedComponents:
    """Connected components of the fixed locus, labelled by torsion points.

    The label is the distinguished torsion datum of the case: x1 for B
    and G2 (a 2-torsion point), the common pair-sum value for C_n (an
    n-torsion point).  The component of the trivial bundle carries the
    zero label.  When the group lacks full torsion fewer labels are
    visible, and ``full_torsion`` is False.
    """
    torsion = case_points(case).torsion
    labels = sigma.torsion(torsion)
    return FixedComponents(labels=tuple(sorted(labels)), full_torsion=len(labels) == torsion**2)


def case_system_matrix(case: str) -> list[list[int]]:
    """Coefficient matrix M P of the point-reconstruction system.

    M holds the l-coefficients of the folded simple roots, so M P t is the
    folded restriction of the points x = P t; the unknowns are the free
    parameters t.
    """
    p = np.array(case_points(case).points, dtype=np.int64)
    return restriction(case_spec(case).lattice, folded_simple_system(case), p).tolist()


class ReconstructionStack(NamedTuple):
    """The assignments x = P t that solve a stack of n reconstruction systems.

    ``table`` is a read-only (N, npoints, 2) int64 array of points, block by
    block in the order of the images, each block sorted by points; ``image``
    (N,) is the index of the image each row solves, nondecreasing, and
    ``solvable`` is (n,) bool.  Block i is ``table[image == i]``.
    """

    solvable: np.ndarray
    kernel_size: int
    table: np.ndarray
    image: np.ndarray

    def contains(self, x: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        """(n,) bool: whether row i of the (n, npoints, 2) point table x is in block blocks[i].

        Each row is compared with every row of its block, which ``image``
        delimits.
        """
        lo, hi = (np.searchsorted(self.image, blocks, side) for side in ("left", "right"))
        at = lo[:, None] + np.arange((hi - lo).max(initial=0))
        inside = at < hi[:, None]
        hit = (self.table[np.where(inside, at, 0)] == x[:, None]).all(axis=(2, 3))
        return (hit & inside).any(axis=1)


def reconstruct_points(case: str, p_images, sigma: SigmaModel,
                       enumerate_cap: int = 4096) -> ReconstructionStack:
    """Recover all point assignments whose folded restriction data is each image of p_images.

    p_images is an (n, rank, 2) stack of images, rank points each; a single
    image is passed as a stack of one, and its rows are the whole table.
    Solves M P t = p_images over the group for the whole stack at once
    (``solve_group_stack``: one Smith form of M P), maps every solution
    through P in one matmul mod (m1, m2) and sorts each image's block by
    points (one lexsort, keyed on the image index first).  Raises
    BudgetExceededError when the solution set of an image is larger than
    ``enumerate_cap``, rather than return part of it.
    """
    rank = case_spec(case).rank
    imgs = np.asarray(p_images, dtype=np.int64)
    if imgs.ndim != 3 or imgs.shape[1:] != (rank, 2):
        raise ValueError(f"{case} expects an (n, {rank}, 2) stack of images")
    res = solve_group_stack(case_system_matrix(case), imgs, sigma, enumerate_cap=enumerate_cap)
    x = point_table(case, res.table, sigma)
    x = x[np.lexsort(np.vstack([x.reshape(len(x), 2 * x.shape[1]).T[::-1], res.image]))]
    x.flags.writeable = False
    return ReconstructionStack(res.solvable, res.kernel_size, x, res.image)


def folded_images(case: str, x: np.ndarray, sigma: SigmaModel) -> np.ndarray:
    """M x mod (m1, m2): the folded restriction of an (n, npoints, 2) point table, (n, rank, 2)."""
    return restriction(case_spec(case).lattice, folded_simple_system(case), x, sigma)


def distinct_images(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, block) of an (n, rank, 2) stack: the distinct images are ``images[first]``.

    ``block[i]`` is the index of image i among them.
    """
    _, first, block = np.unique(images.reshape(len(images), -1), axis=0,
                                return_index=True, return_inverse=True)
    return first, block.reshape(-1)


def invariance_agreement_exhaustive(case: str, sigma: SigmaModel, cap: int = 10**8) -> int:
    """Check closed form == direct comparison on every point tuple; raise at the first miss.

    Both sides are forms in x = params t that must vanish, over every t in
    Sigma^k: u(a_{perm(i)}) - u(a_i) on the simple roots, and Q.  params is
    the ``free_points`` basis of the ambient's ``zero_sums``: the identity,
    or x = (t, -sum t) for A.  The walk (``SigmaModel.form_chunks``) yields
    each form's point codes, and a form is nonzero where its code is.  The
    |Sigma|^k tuples are checked against ``cap`` before the walk starts
    (``SigmaModel.tuple_count``).  Returns the number of tuples checked.
    """
    rho = case_fold(case)
    params = np.array(free_points(rho.zero_sums, rho.lattice.npoints).points, dtype=np.int64)
    k = params.shape[1]
    count = sigma.tuple_count(k, cap)
    direct = [row for row in rho.invariance_rows if any(row)]
    forms = np.array(direct + list(case_spec(case).invariance), dtype=np.int64) @ params
    for cols, codes in sigma.form_chunks(forms):
        miss = np.flatnonzero(codes[:len(direct)].any(axis=0) != codes[len(direct):].any(axis=0))
        if len(miss):
            t = next(islice(product(sigma.elements(), repeat=k), cols.start + miss[0], None))
            x = params @ np.array(t, dtype=np.int64) % np.array([sigma.m1, sigma.m2])
            raise AssertionError(f"{case}: closed form and direct comparison disagree at "
                                 f"{tuple(map(tuple, x.tolist()))}")
    return count


class ChiReport(NamedTuple):
    passed: bool
    domain_size: int
    orbits_checked: int
    counterexample: tuple | None


def conjugacy_class_walk(perm: np.ndarray, gens: np.ndarray):
    """The class of perm under conjugation by the group of the involutions gens, level by level.

    Returns (us, taus, edges): the class is {us[j] perm us[j]^-1} and taus[j] = us[j]^-1, so
    the group is the disjoint union of the cosets C taus[j], C the centralizer of perm; edges
    are index arrays (i, g, j), one entry per j and g, with gens[g] conjugating j into i.
    """
    conj, us = perm[None], np.eye(len(perm), dtype=np.int64)[None]
    taus, index, edges, done = us, {perm.tobytes(): 0}, [], 0
    while done < len(conj):
        gen, src = (a.ravel() for a in np.indices((len(gens), len(conj) - done)))
        src += done
        ids = np.array([index.setdefault(key, len(index))
                        for key in row_keys(gens[gen] @ conj[src] @ gens[gen])], dtype=np.int64)
        edges.append((ids, gen, src))
        fresh, at = np.unique(ids, return_index=True)
        g, j = gen[at[fresh >= len(conj)]], src[at[fresh >= len(conj)]]
        done = len(conj)
        conj = np.concatenate([conj, gens[g] @ conj[j] @ gens[g]])
        us, taus = np.concatenate([us, gens[g] @ us[j]]), np.concatenate([taus, taus[j] @ gens[g]])
    return us, taus, tuple(map(np.concatenate, zip(*edges)))


def chi_injectivity_check(case: str, sigma: SigmaModel,
                          action_cap: int = 10**8, weyl_cap: int = 10**6) -> ChiReport:
    """Exhaustive injectivity check for the folded moduli inclusion.

    For every pair x, y in the fixed sublattice tensored with the group:
    if some element of the big Weyl group maps x to y, some element of
    the folded Weyl group already does.  Budgeted; refuses rather than
    samples, since the value of the statement is exhaustiveness.

    In the r' simple-root coordinates of Sigma^r' the diagram automorphism
    is a permutation matrix P, and the domain is the set of points P fixes.
    Its centralizer C in W_big preserves the domain, and W_big is the union
    of the cosets C tau, tau in T (``conjugacy_class_walk``), so the big
    orbit of x meets the domain in the C-orbits of the tau x inside it.
    A small generator that leaves the domain or W_big raises ``ValueError``
    before any orbit is compared.  W_small = C is certified when its
    generators commute with P and |W_small| |T| = |W_big|; otherwise the
    C-orbits are labelled from the Schreier generators of C.  Orbits of
    domain tuples (positions in product order) are labelled with their
    least position by min-label propagation and pointer jumping, and T is
    applied to these orbit representatives only.  The first representative
    whose big orbit meets the domain outside its small orbit fails, with
    the point there of least code c1 + m1^r' c2 (each factor little-endian,
    x2 the more significant half) and the representatives checked so far.

    Both groups come from ``folding`` as ``CoxeterWeylGroup``s: |W_big| and
    |W_small| are products of fundamental-weight orbit sizes, read from the
    Cartan matrices, and the subgroup test descends each small generator
    to the dominant chamber of W_big.  A group of order above ``weyl_cap``
    raises ``BudgetExceededError`` before it is built.

    Two budget terms are checked against ``action_cap`` before anything
    is allocated: the domain size times |W_big|, and |Sigma|^r' plus one
    entry per generator and per point of each factor, what an orbit walk
    over Sigma^r' would store.  Nothing that large is allocated, so the
    second term is conservative; it is kept so that the same inputs run or
    refuse.
    """
    rho = case_fold(case)
    delta, lat = rho.simple_system, rho.lattice
    w_big = ambient_weyl_group(case, weyl_cap)
    w_small = folded_weyl_group(case, weyl_cap)
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
    walk_entries = sigma.order**rprime + (len(w_big.mats) + len(w_small.mats)) * sum(sizes)
    if walk_entries > action_cap:
        raise BudgetExceededError(
            f"{walk_entries} orbit-walk entries ({sigma.order}^{rprime} states and the "
            f"generator tables) exceed the action cap {action_cap}"
        )

    embed = basis_coordinates(np.array([r.coords for r in delta], dtype=np.int64).T,
                              np.array([b.coords for b in basis], dtype=np.int64).T)  # (r', k)
    coords = [np.array(list(product(range(m), repeat=k)), dtype=np.int64) for m in mods]
    weights = [m ** np.arange(rprime, dtype=np.int64) for m in mods]
    pts = [c @ embed.T % m for c, m in zip(coords, mods)]  # each factor's domain, (m^k, r')
    codes = [p @ w for p, w in zip(pts, weights)]
    where = [np.full(size, -1, dtype=np.int64) for size in sizes]  # code -> factor position
    for at, c in zip(where, codes):
        at[c] = np.arange(len(c))
    n2 = len(codes[1])

    def maps(mats):
        """Per factor, the (N, m^k) positions of the domain's images under mats; -1 outside."""
        return [at[p @ mats.transpose(0, 2, 1) % m @ w]
                for at, p, m, w in zip(where, pts, mods, weights)]

    def labels(maps1, maps2):
        """The least position of each domain tuple's orbit under the generators."""
        gens = [(a[:, None] * n2 + b).ravel() for a, b in zip(maps1, maps2)]  # maps of positions
        lab, prev = np.arange(domain_size), None
        while not np.array_equal(lab, prev):
            prev = lab
            for p in gens:
                lab = np.minimum(lab, lab[p])
            while not np.array_equal(lab, jumped := lab[lab]):
                lab = jumped
        return lab

    small = restrict_to_basis(w_small.mats, delta, lat)
    small_maps = maps(small)
    if any((m < 0).any() for m in small_maps):
        raise ValueError(f"{case}: a small orbit leaves the domain part of its big orbit")
    if not all(g in w_big for g in w_small.gens):
        raise ValueError(f"{case}: the small group is not a subgroup of the big one")
    lab = labels(*small_maps)
    big = restrict_to_basis(w_big.mats, delta, lat)
    perm = np.eye(rprime, dtype=np.int64)[:, list(rho.permutation)]
    us, taus, (ids, gen, src) = conjugacy_class_walk(perm, big)
    certified = (np.array_equal(small @ perm, perm @ small)
                 and len(w_small) * len(taus) == len(w_big))
    clab = lab
    if not certified:  # the orbits of C, from its distinct Schreier generators
        clab = labels(*maps(np.unique(taus[ids] @ big[gen] @ us[src], axis=0)))

    reps = np.flatnonzero(lab == np.arange(domain_size))
    t1, t2 = maps(taus)
    a, b = t1[:, reps // n2], t2[:, reps % n2]
    reached = np.sort(np.where((a >= 0) & (b >= 0), clab[a * n2 + b], domain_size), axis=0)
    first = np.diff(reached, axis=0, prepend=-1) != 0
    # met: the size of the big orbit on the domain; it holds the small one, so equal iff as big
    met = (np.append(np.bincount(clab, minlength=domain_size), 0)[reached] * first).sum(axis=0)
    bad = np.flatnonzero(met > np.bincount(lab, minlength=domain_size)[reps])
    if not len(bad):
        return ChiReport(True, domain_size, len(reps), None)
    x = reps[bad[0]]
    ys = np.flatnonzero(np.isin(clab, reached[:, bad[0]]) & (lab != x))
    y = ys[np.argmin(codes[0][ys // n2] + sizes[0] * codes[1][ys % n2])]
    return ChiReport(False, domain_size, int(bad[0]) + 1,
                     tuple((tuple(coords[0][t // n2]), tuple(coords[1][t % n2])) for t in (x, y)))
