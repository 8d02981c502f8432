"""Root systems inside Picard lattices, and their Weyl groups.

Weyl elements are integer matrices acting on lattice coordinates (column
vectors).  A Weyl group is never enumerated.  It is built in one of two
ways, and both keep the same surface (``WeylGroup``: generators, order,
membership, equality, orbits).  Every group the other modules build is a
``CoxeterWeylGroup``; ``weyl_generate`` serves the benchmark's pin and the
tests, where it is the oracle the Coxeter groups are checked against.

``weyl_generate`` takes arbitrary generators.  It keeps a stabilizer
chain of their permutation action on a finite domain, the union of the
orbits of the unit vectors.  The domain contains a basis, so the action is
faithful and the permutation group has the order of the matrix group.  The
chain is a base and strong generating set from a deterministic
Schreier-Sims (Sims, "Computational methods in the study of permutation
groups", 1970; Seress, *Permutation Group Algorithms*, ch. 4): each base
point is the first point a generator moves, and every Schreier generator is
sifted, with no random choice and no early stop, so the order (the product
of the basic orbit sizes) is a proof.  Membership is decided by sifting.

``CoxeterWeylGroup`` takes the generators of a simple system b_1..b_n and
reads the group from its Cartan matrix A instead.  No two roots may be at
an acute angle, each generator must act on span(b) as the reflection in
its root, and the generators must satisfy the Coxeter relations of A on
the whole lattice, so the matrix group is the Coxeter group of A
(Humphreys, *Reflection Groups and Coxeter Groups*, 1990, §1.9).  The
stabilizer of a dominant weight is the standard parabolic subgroup of the
simple reflections that fix it (ibid., Theorem 1.12), so
|W| = prod_j |W_J omega_j| for J = {j, ..., n}: each orbit of a
fundamental weight is walked in weight coordinates with Python ints.
Membership descends g v, v regular dominant, to the dominant chamber by
the simple reflections; g is in W iff the product u of the steps has
u g = I (Casselman, "Machine calculations in Weyl groups", Invent. Math.
1994).

The orbit walks refuse with ``BudgetExceededError`` once one orbit has more
than ``cap`` points (an orbit is never larger than the group), and the
lattice walks raise ``OverflowError`` before an int64 entry could reach
2^62, so the generators of an infinite group end in one of these errors,
never in wrapped integers.  A finite group of order above ``cap`` raises
``BudgetExceededError`` too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations
from math import gcd, prod

import numpy as np

from ._linalg import bareiss_solve, integer_left_inverse
from .lattice import SELF, DivisorClass, IntersectionLattice, enumerate_classes, gram_matrix


class BudgetExceededError(RuntimeError):
    """Closure or orbit enumeration exceeded the configured element cap."""


class NonIntegralReflectionError(ValueError):
    """A reflection does not preserve the integral lattice (malformed root)."""


class UnrecognizedDiagramError(ValueError):
    """A Cartan matrix matches no diagram in the finite catalogue."""


DEFAULT_CAP = 10**6

# entries of an int64 product are kept below this, with room to spare
_INT64_SAFE = 2**62


def row_keys(arr: np.ndarray) -> list[bytes]:
    """``arr[i].tobytes()`` for each i, from one void view (trailing zero bytes kept)."""
    flat = np.ascontiguousarray(arr).reshape(arr.shape[0], prod(arr.shape[1:]))
    return flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize))).ravel().tolist()


@dataclass(frozen=True)
class RootSystemData:
    ambient: IntersectionLattice
    roots: frozenset[DivisorClass]

    def __len__(self):
        return len(self.roots)

    def __contains__(self, item):
        return item in self.roots

    def __iter__(self):
        return iter(sorted(self.roots))


@dataclass(frozen=True)
class SimpleSystem:
    roots: tuple[DivisorClass, ...]
    type_tag: str

    def __len__(self):
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)


@dataclass(frozen=True)
class WeylElement:
    entries: tuple[tuple[int, ...], ...]

    @cached_property
    def mat(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int64)

    @staticmethod
    def from_matrix(m) -> "WeylElement":
        return WeylElement(tuple(map(tuple, np.asarray(m, dtype=np.int64).tolist())))

    def __matmul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement.from_matrix(self.mat @ other.mat)

    def apply(self, d: DivisorClass) -> DivisorClass:
        return DivisorClass(tuple(int(x) for x in self.mat @ np.array(d.coords, dtype=np.int64)))


def root_sublattice(lat: IntersectionLattice, orthogonal_to) -> RootSystemData:
    """All classes x with x.x = -2 orthogonal to the given classes."""
    constraints = [(SELF, -2)] + [(c, 0) for c in orthogonal_to]
    if not any(c == lat.K or c == -lat.K for c in orthogonal_to):
        constraints.append((lat.K, 0))
    roots = enumerate_classes(lat, constraints)
    data = RootSystemData(lat, frozenset(roots))
    for r in data.roots:
        if -r not in data.roots:
            raise ValueError(f"root set is not closed under negation: {r} without {-r}")
    return data


def standard_simple_system(case: str, lat: IntersectionLattice) -> SimpleSystem:
    """The simple systems of the types A, D and E6; ``folding`` derives the folded ones."""
    m = lat.npoints
    l = lat.l
    if case == "D":
        if lat.model != "F1" or m < 2:
            raise ValueError("D-type needs an F1 blow-up of at least 2 points")
        roots = [l(1) - l(2), lat.f - l(1) - l(2)]
        roots += [l(i - 1) - l(i) for i in range(3, m + 1)]
        return SimpleSystem(tuple(roots), f"D{m}")
    if case == "A":
        if lat.model != "F1":
            raise ValueError("A-type lives on the F1 model here")
        roots = [l(i) - l(i + 1) for i in range(1, m)]
        return SimpleSystem(tuple(roots), f"A{m - 1}")
    if case == "E6":
        if lat.model != "P2" or m != 6:
            raise ValueError("E6 needs the 6-point P2 blow-up")
        h = lat.h
        roots = (l(1) - l(2), l(2) - l(3), h - l(1) - l(2) - l(3),
                 l(3) - l(4), l(4) - l(5), l(5) - l(6))
        return SimpleSystem(roots, "E6")
    raise ValueError(f"unknown simple-system case {case!r}")


def cartan_matrix_of(roots, lat: IntersectionLattice):
    """A_ij = 2 (b_i, b_j) / (b_j, b_j) for a list of classes, from one Gram matrix."""
    g = gram_matrix(lat, roots)
    den = np.diagonal(g)
    if not den.all() or (2 * g % den).any():  # a zero diagonal raises before any division
        raise UnrecognizedDiagramError("non-integral Cartan pairing")
    return tuple(map(tuple, (2 * g // den).tolist()))


def catalogue_cartan(series: str, rank: int):
    """Cartan matrix of a Dynkin type in a fixed labelling.

    Entry (i, j) is 2 (a_i, a_j) / (a_j, a_j).
    """
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def chain(i, j):
        a[i][j] = a[j][i] = -1

    if series == "A":
        for i in range(rank - 1):
            chain(i, i + 1)
    elif series == "B":
        if rank < 2:
            raise ValueError("B needs rank >= 2")
        for i in range(rank - 1):
            chain(i, i + 1)
        a[rank - 2][rank - 1] = -2  # last root short
    elif series == "C":
        if rank < 2:
            raise ValueError("C needs rank >= 2")
        for i in range(rank - 1):
            chain(i, i + 1)
        a[rank - 1][rank - 2] = -2  # last root long
    elif series == "D":
        if rank < 3:
            raise ValueError("D needs rank >= 3")
        for i in range(rank - 2):
            chain(i, i + 1)
        chain(rank - 3, rank - 1)
    elif series == "E":
        if rank not in (6, 7, 8):
            raise ValueError("E needs rank 6, 7 or 8")
        for i in range(rank - 2):
            chain(i, i + 1)
        chain(2, rank - 1)
    elif series == "F":
        if rank != 4:
            raise ValueError("F needs rank 4")
        chain(0, 1)
        chain(2, 3)
        a[1][2] = -2
        a[2][1] = -1
    elif series == "G":
        if rank != 2:
            raise ValueError("G needs rank 2")
        a[0][1] = -1
        a[1][0] = -3
    else:
        raise ValueError(f"unknown series {series!r}")
    return tuple(tuple(row) for row in a)


def _matches_up_to_permutation(a, b) -> bool:
    n = len(a)
    if len(b) != n:
        return False
    # quick invariant: multiset of sorted rows
    inv = lambda m: sorted(tuple(sorted(row)) for row in m)
    if inv(a) != inv(b):
        return False
    for perm in permutations(range(n)):
        if all(a[perm[i]][perm[j]] == b[i][j] for i in range(n) for j in range(n)):
            return True
    return False


def identify_cartan_type(a) -> str:
    """Match a Cartan matrix against the catalogue, up to re-ordering.

    Note B2 and C2 are the same diagram; this returns "B2" for both.
    """
    n = len(a)
    candidates = []
    if n == 1:
        candidates.append(("A", 1))
    else:
        candidates = [("A", n), ("B", n), ("C", n), ("D", n), ("E", n), ("F", n), ("G", n)]
    for series, rank in candidates:
        try:
            cat = catalogue_cartan(series, rank)
        except ValueError:
            continue
        if _matches_up_to_permutation(a, cat):
            return f"{series}{rank}"
    raise UnrecognizedDiagramError(f"no catalogue match for rank-{n} matrix")


def _primitive(alpha: DivisorClass) -> DivisorClass:
    g = gcd(*alpha.coords)
    return alpha if g <= 1 else DivisorClass(tuple(c // g for c in alpha.coords))


def reflect(lat: IntersectionLattice, alpha: DivisorClass, x: DivisorClass) -> DivisorClass:
    """x - 2 (x, alpha) / (alpha, alpha) * alpha, with integrality enforced.

    The map is invariant under rescaling alpha, so it is computed on the
    primitive representative; scaled roots such as 2(f - li - lj) or
    3(li - lj) therefore reflect integrally whenever the underlying
    orthogonal map preserves the lattice.
    """
    n2 = lat.pair(alpha, alpha)
    if n2 == 0:
        raise ValueError("cannot reflect in an isotropic class")
    alpha = _primitive(alpha)
    n2 = lat.pair(alpha, alpha)
    num = 2 * lat.pair(x, alpha)
    if num % n2 != 0:
        raise NonIntegralReflectionError(
            f"reflection of {x} in {alpha} leaves the lattice"
        )
    return x - (num // n2) * alpha


def reflection(lat: IntersectionLattice, alpha: DivisorClass) -> WeylElement:
    """The reflection in alpha as a lattice matrix: I - a q^T, q = 2 G a / (a, a).

    a is alpha divided by the gcd of its coordinates; an error names the first e_i it fails on.
    """
    if lat.pair(alpha, alpha) == 0:
        raise ValueError("cannot reflect in an isotropic class")
    alpha = _primitive(alpha)
    a = np.array(alpha.coords, dtype=np.int64)
    num, n2 = 2 * np.array(lat.gram, dtype=np.int64) @ a, lat.pair(alpha, alpha)
    bad = np.flatnonzero(num % n2)
    if len(bad):
        raise NonIntegralReflectionError(
            f"reflection of {lat.unit(int(bad[0]))} in {alpha} leaves the lattice")
    return WeylElement.from_matrix(np.eye(lat.rank, dtype=np.int64) - np.outer(a, num // n2))


def simple_reflections(simple: SimpleSystem, lat: IntersectionLattice) -> list[WeylElement]:
    return [reflection(lat, r) for r in simple.roots]


def _orbit_rows(mats: np.ndarray, vec: np.ndarray, cap: int) -> list[np.ndarray]:
    """Breadth-first orbit of an int64 row under the matrices, in visiting order.

    The row is a concatenation of lattice vectors, and each matrix acts on
    every one of them.  Raises ``BudgetExceededError`` past ``cap`` points
    and ``OverflowError`` before an entry could reach 2^62.
    """
    rank = mats.shape[1]
    # |(m @ v)_i| <= max|v| * sum_j |m_ij|: the largest absolute row sum
    bound = int(np.abs(mats).sum(axis=2).max()) if len(mats) else 0
    seen = {vec.tobytes(): vec}
    frontier = vec[None]
    while frontier.shape[0]:
        if int(np.abs(frontier).max()) * bound >= _INT64_SAFE:
            raise OverflowError(f"orbit entries would exceed 2^62 after {len(seen)} points")
        blocks = frontier.reshape(-1, rank)
        fresh = []
        for m in mats:
            for row in (blocks @ m.T).reshape(frontier.shape):
                key = row.tobytes()
                if key not in seen:
                    seen[key] = row
                    fresh.append(row)
                    if len(seen) > cap:
                        raise BudgetExceededError(f"orbit exceeded cap {cap}")
        frontier = np.array(fresh, dtype=np.int64).reshape(-1, vec.shape[0])
    return list(seen.values())


def _sift(base, levels, g: np.ndarray, start: int):
    """Strip g through the chain from level ``start``.

    Returns the residue and the level where it stopped (``len(base)`` when
    it passed every level); g is in the group iff the residue is the identity.
    """
    for j in range(start, len(base)):
        entry = levels[j].get(int(g[base[j]]))
        if entry is None:
            return g, j
        g = entry[1][g]
    return g, len(base)


def _schreier_sims(perms, n: int):
    """Base and basic transversals of the group generated by the permutations.

    A permutation is an array p of range(n) with p[x] the image of x, and
    "p then q" is ``q[p]``.  ``levels[i]`` maps each point of the i-th basic
    orbit to (u, u^-1), u carrying ``base[i]`` there.  Deterministic
    Schreier-Sims, one generator at a time: a generator that sifts to the
    identity is already a member and is skipped; otherwise its residue
    becomes a strong generator at the depth d where it stopped (it fixes
    ``base[:d]``; past the last level, its first moved point becomes a new
    base point).  The levels are then completed from that depth up: every
    Schreier generator u_beta s u_gamma^-1 of a level is sifted through the
    levels below it, and a nontrivial residue is added the same way.
    """
    ident = np.arange(n)
    base, levels, strong = [], [], []  # strong: (permutation, depth)
    tested = set()  # (level, beta, index into strong) of every sifted Schreier generator

    def extend(i):
        orbit, gens = levels[i], [s for s, d in strong if d >= i]
        queue = list(orbit)
        for beta in queue:
            u = orbit[beta][0]
            for s in gens:
                gamma = int(s[beta])
                if gamma not in orbit:
                    v = s[u]
                    orbit[gamma] = (v, np.argsort(v))
                    queue.append(gamma)

    def add(h, depth, top):
        if depth == len(base):
            base.append(int(np.flatnonzero(h != ident)[0]))
            levels.append({base[-1]: (ident, ident)})
        strong.append((h, depth))
        for level in range(top, depth + 1):
            extend(level)

    def residue_at(i):
        for beta, (u, _) in list(levels[i].items()):
            for k, (s, d) in enumerate(strong):
                if d < i or (i, beta, k) in tested:
                    continue
                tested.add((i, beta, k))
                h, j = _sift(base, levels, levels[i][int(s[beta])][1][s[u]], i + 1)
                if not np.array_equal(h, ident):
                    return h, j
        return None

    for g in perms:
        h, i = _sift(base, levels, g, 0)
        if np.array_equal(h, ident):
            continue
        add(h, i, 0)
        while i >= 0:
            found = residue_at(i)
            if found is None:
                i -= 1
            else:
                add(*found, i + 1)
                i = found[1]
    return base, levels


class WeylGroup:
    """A finite group of lattice matrices: its generators and a stabilizer chain.

    ``len`` is the order, ``w in group`` tests a ``WeylElement`` by sifting
    its permutation of the domain, and two groups are equal when they have
    the same order and every generator of one is a member of the other
    (a subgroup of equal order is the whole group).  See the module
    docstring for the domain and the chain.
    """

    def __init__(self, gens, rank: int, cap: int):
        self.gens = tuple(gens)
        self.rank = rank
        self.mats = np.array([g.mat for g in self.gens], dtype=np.int64).reshape(-1, rank, rank)
        points = {}
        for e in np.eye(rank, dtype=np.int64):
            if e.tobytes() not in points:
                points.update((row.tobytes(), row) for row in _orbit_rows(self.mats, e, cap))
        self._points = np.array(list(points.values()), dtype=np.int64)
        self._index = {key: n for n, key in enumerate(points)}
        perms = [self._permutation(m) for m in self.mats]
        self._base, self._levels = _schreier_sims(perms, len(points))
        self.order = prod(len(level) for level in self._levels)
        if self.order > cap:
            raise BudgetExceededError(f"group order {self.order} exceeds cap {cap}")
        # groups are cached and shared (folding._weyl_group): nothing may write to them
        for arr in (self.mats, self._points, *(g.mat for g in self.gens),
                    *(a for level in self._levels for pair in level.values() for a in pair)):
            arr.flags.writeable = False

    def _permutation(self, mat: np.ndarray) -> np.ndarray | None:
        """The action of a matrix on the domain, or None if it leaves the domain."""
        idx = list(map(self._index.get, row_keys(self._points @ mat.T)))
        return None if None in idx else np.array(idx)

    def orbit_rows(self, row: np.ndarray) -> list[np.ndarray]:
        """The orbit of an int64 row of lattice vectors side by side, by generators."""
        return _orbit_rows(self.mats, row, self.order)

    def __len__(self):
        return self.order

    def __contains__(self, w: WeylElement) -> bool:
        perm = self._permutation(w.mat) if w.mat.shape == (self.rank, self.rank) else None
        if perm is None:
            return False
        residue, _ = _sift(self._base, self._levels, perm, 0)
        return bool(np.array_equal(residue, np.arange(len(perm))))

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylGroup):
            return NotImplemented
        return self.order == other.order and all(g in self for g in other.gens)


# m_ij of the Coxeter relation (s_i s_j)^m_ij = 1, by A_ij A_ji for a finite type
_COXETER_M = (2, 3, 4, 6)


def _fundamental_orbit_sizes(a, cap: int) -> list[int]:
    """|W_J omega_j| for J = {j, ..., n - 1}, j = 0 .. n - 1: the factors of |W|.

    Each orbit is walked in weight coordinates, s_i lambda = lambda - lambda_i A_i.
    From a dominant weight, s_i with lambda_i > 0 reaches every orbit point (the
    descent to the chamber, reversed).  Raises ``BudgetExceededError`` once an
    orbit or the product of the sizes passes ``cap``.
    """
    n, sizes = len(a), []
    for j in range(n):
        start = tuple(int(i == j) for i in range(n))
        seen, frontier = {start}, [start]
        while frontier:
            fresh = []
            for lam in frontier:
                for i in range(j, n):
                    if (c := lam[i]) > 0:
                        mu = tuple(x - c * y for x, y in zip(lam, a[i]))
                        if mu not in seen:
                            seen.add(mu)
                            fresh.append(mu)
                            if len(seen) > cap:
                                raise BudgetExceededError(f"orbit exceeded cap {cap}")
            frontier = fresh
        sizes.append(len(seen))
        if prod(sizes) > cap:
            raise BudgetExceededError(f"group order {prod(sizes)}+ exceeds cap {cap}")
    return sizes


class CoxeterWeylGroup(WeylGroup):
    """The Weyl group of a simple system, read from its Cartan matrix; no stabilizer chain.

    ``gens[i]`` belongs to ``simple.roots[i]`` = b_i.  With A the
    ``cartan_matrix_of`` the roots, no two roots may be at an acute angle
    (A_ij <= 0 for i != j), every generator must map each b_j to
    b_j - A_ji b_i (the tie check), and the generators must satisfy the
    Coxeter relations (g_i g_j)^m_ij = I on the whole lattice, m_ii = 1;
    otherwise ``ValueError``.  Then the matrix group is the Coxeter group of
    A, acting faithfully on span(b).  For a folded group
    (``folding.folded_weyl_group``) the generators are products of commuting
    ambient reflections, and the relations hold because W(G) < W(G~) acts
    faithfully on span(b): that span holds the sigma-fixed regular rho of
    the ambient roots, which only the identity of W(G~) fixes.

    ``len``, ``==`` and ``orbit_rows`` are ``WeylGroup``'s, so ``==`` works
    across the two classes; ``in`` is the descent test of the module docstring.
    """

    def __init__(self, gens, simple: SimpleSystem, lat: IntersectionLattice,
                 cap: int = DEFAULT_CAP):
        self.gens, self.rank = tuple(gens), lat.rank
        self.mats = np.array([g.mat for g in self.gens], dtype=np.int64).reshape(-1, lat.rank,
                                                                                 lat.rank)
        a = cartan_matrix_of(simple.roots, lat)
        n = len(a)
        bmat = np.array([b.coords for b in simple.roots], dtype=np.int64).reshape(n, lat.rank).T
        at = np.array(a, dtype=np.int64).reshape(n, n).T  # at[i, j] = A_ji
        rowsum = int(np.abs(self.mats).sum(axis=2).max(initial=1))
        if rowsum ** 12 * int(np.abs(bmat).max(initial=1)) >= _INT64_SAFE:
            raise OverflowError("generator entries too large for exact int64 relation checks")
        if any(a[i][j] > 0 for i in range(n) for j in range(n) if i != j):
            raise ValueError("the roots are not a simple system: an acute pair")
        if len(self.gens) != n or not np.array_equal(
                self.mats @ bmat, bmat[None] - bmat.T[:, :, None] * at[:, None, :]):
            raise ValueError("a generator does not act as the reflection in its simple root")
        self.order = prod(_fundamental_orbit_sizes(a, cap))
        # finite type now, so A_ij A_ji <= 3; the relations need words of up to 12 letters
        m = np.array([[1 if i == j else _COXETER_M[a[i][j] * a[j][i]] for j in range(n)]
                      for i in range(n)], dtype=np.int64).reshape(n, n)
        power = pairs = self.mats[:, None] @ self.mats[None]
        for k in range(1, int(m.max(initial=1)) + 1):
            if k > 1:
                power = power @ pairs
            if not (power[m == k] == np.eye(lat.rank, dtype=np.int64)).all():
                raise ValueError(f"the generators break a Coxeter relation of order {k}")
        # v = sum_j c_j b_j with weights A^T c = d (1, ..., 1), d = det(A) > 0: regular, dominant
        c = np.array(bareiss_solve(at.tolist(), [1] * n)[0], dtype=np.int64)
        if not (at @ c > 0).all():
            raise ValueError("no regular dominant vector found in span(b)")
        self._cartan = a
        self._regular = bmat @ c
        self._dual = np.array(lat.gram, dtype=np.int64) @ bmat  # (x, b_j) = x @ _dual[:, j]
        self._norms = tuple(int(x) for x in (bmat * self._dual).sum(axis=0))
        for arr in (self.mats, self._regular, self._dual, *(g.mat for g in self.gens)):
            arr.flags.writeable = False

    def __contains__(self, w: WeylElement) -> bool:
        if w.mat.shape != (self.rank, self.rank):
            return False
        # Python ints from here on: any matrix may be asked about, and none may wrap
        lam = []
        for p, n2 in zip(((w.mat.astype(object) @ self._regular) @ self._dual).tolist(),
                         self._norms):
            if 2 * p % n2:
                return False  # the weights of g v are integral when g is in W
            lam.append(2 * p // n2)
        word = np.eye(self.rank, dtype=object)
        for _ in range(self.order):  # a member descends in at most |R+| < |W| steps
            i = next((i for i, c in enumerate(lam) if c < 0), None)
            if i is None:  # u g v = v: g is in W iff g = u^-1, the word of the steps
                return bool(np.array_equal(word, w.mat))
            c = lam[i]
            lam = [x - c * y for x, y in zip(lam, self._cartan[i])]
            word = word @ self.mats[i]
        return False


def weyl_generate(gens, cap: int = DEFAULT_CAP, rank: int | None = None) -> WeylGroup:
    """The group the matrices generate, as a ``WeylGroup``.

    An empty generator list yields the trivial group (rank required).
    """
    gens = list(gens)
    if not gens and rank is None:
        raise ValueError("empty generator list needs an explicit rank")
    return WeylGroup(gens, gens[0].mat.shape[0] if gens else rank, cap)


def orbit(gens, seed, cap: int = DEFAULT_CAP) -> tuple:
    """The sorted orbit of a class, or of a tuple of classes, under the generators.

    Read off ``_orbit_rows``, so it refuses past ``cap`` points and before
    an entry could reach 2^62, as the group's own orbit walks do.
    """
    parts = [seed] if isinstance(seed, DivisorClass) else list(seed)
    rank = len(parts[0].coords)
    vec = np.array([c for p in parts for c in p.coords], dtype=np.int64)
    mats = np.array([g.mat for g in gens], dtype=np.int64).reshape(-1, rank, rank)
    elems = []
    for row in _orbit_rows(mats, vec, cap):
        classes = [DivisorClass(tuple(row[i:i + rank].tolist())) for i in range(0, len(row), rank)]
        elems.append(classes[0] if isinstance(seed, DivisorClass) else tuple(classes))
    return tuple(sorted(elems))


@lru_cache(maxsize=128)
def _left_inverse(bmat: tuple[tuple[int, ...], ...]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``integer_left_inverse`` of a basis matrix given by its rows, one Smith form per basis."""
    left, den = integer_left_inverse([list(row) for row in bmat])
    return tuple(map(tuple, left)), den


def basis_coordinates(bmat: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Integer Y with bmat @ Y = X for a stack X (..., rank, k) of image columns.

    bmat (rank x k) has independent columns.  One integer left inverse L
    (L bmat = den I) gives every block as L X / den; an image outside the
    integer span of the columns raises ``ValueError``.  The products are
    taken in int64 while no entry of L X or bmat Y can reach 2^62, and in
    Python ints otherwise, so none wraps; Y is returned as int64, and a
    coordinate beyond int64 raises ``OverflowError``.
    """
    left, den = _left_inverse(tuple(map(tuple, bmat.tolist())))
    top = max(sum(map(abs, row)) for row in left) * int(np.abs(images).max(initial=0))
    bound = max(top, int(np.abs(bmat).sum(axis=1).max()) * (top // den))  # |L X|, |bmat Y|
    dtype = np.int64 if bound < _INT64_SAFE else object
    lx = np.array(left, dtype=dtype) @ images.astype(dtype)
    coords = lx // den
    if (lx % den).any() or not np.array_equal(bmat.astype(dtype) @ coords, images):
        raise ValueError("an image has no integer coordinates in the basis")
    return coords.astype(np.int64)


def restrict_to_basis(mats: np.ndarray, basis, lat: IntersectionLattice) -> np.ndarray:
    """The matrices of an (N, rank, rank) stack on the span of ``basis``.

    Every matrix must preserve the span integrally, else ``ValueError``.
    Returns an (N, k, k) array, ``basis_coordinates`` of the images M @ B.
    """
    bmat = np.array([[b.coords[i] for b in basis] for i in range(lat.rank)], dtype=np.int64)
    return basis_coordinates(bmat, np.asarray(mats, dtype=np.int64) @ bmat)

