"""Root systems inside Picard lattices, and their Weyl groups.

Weyl elements are integer matrices acting on lattice coordinates (column
vectors).  A Weyl group is never enumerated: ``weyl_generate`` keeps the
generators and a stabilizer chain of their permutation action on a
finite domain, the union of the orbits of the unit vectors.  The domain
contains a basis, so the action is faithful and the permutation group has
the order of the matrix group.  The chain is a base and strong generating
set from a deterministic Schreier-Sims (Sims, "Computational methods in
the study of permutation groups", 1970; Seress, *Permutation Group
Algorithms*, ch. 4): each base point is the first point a generator
moves, and every Schreier generator is sifted, with no random choice and
no early stop, so the order (the product of the basic orbit sizes) is a
proof.  Membership is decided by sifting.

The orbit walk that builds the domain refuses with ``BudgetExceededError``
once one orbit has more than ``cap`` points (an orbit is never larger
than the group), and raises ``OverflowError`` before an int64 entry
could reach 2^62, so the generators of an infinite group end in one of
these errors, never in wrapped integers.  A finite group of order above
``cap`` raises ``BudgetExceededError`` too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from math import prod

import numpy as np

from ._linalg import integer_left_inverse, rational_solve_int
from .lattice import SELF, DivisorClass, IntersectionLattice, enumerate_classes


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

    @cached_property
    def norm_values(self) -> frozenset[int]:
        return frozenset(self.ambient.pair(r, r) for r in self.roots)

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

    def preserves_gram(self, lat: IntersectionLattice) -> bool:
        g = np.array(lat.gram, dtype=np.int64)
        return bool(np.array_equal(self.mat.T @ g @ self.mat, g))

    def fixes(self, d: DivisorClass) -> bool:
        return self.apply(d) == d


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
    """The fixed simple systems used throughout, as printed divisor classes."""
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
    if case == "B":
        n = m - 1
        if lat.model != "F1" or n < 2:
            raise ValueError("B_n needs an F1 blow-up of n+1 >= 3 points")
        roots = [lat.f - 2 * l(2)] + [2 * (l(k) - l(k + 1)) for k in range(2, n + 1)]
        return SimpleSystem(tuple(roots), f"B{n}")
    if case == "C":
        if lat.model != "F1" or m % 2 != 0:
            raise ValueError("C_n needs an F1 blow-up of 2n points")
        n = m // 2
        eps = [l(k) - l(2 * n + 1 - k) for k in range(1, n + 1)]
        roots = [eps[k] - eps[k + 1] for k in range(n - 1)] + [2 * eps[n - 1]]
        return SimpleSystem(tuple(roots), f"C{n}")
    if case == "G2":
        if lat.model != "F1" or m != 4:
            raise ValueError("G2 needs the 4-point F1 blow-up")
        return SimpleSystem((lat.f - 2 * l(2) + l(3) - l(4), 3 * (l(2) - l(3))), "G2")
    if case == "F4":
        if lat.model != "P2" or m != 6:
            raise ValueError("F4 needs the 6-point P2 blow-up")
        h = lat.h
        return SimpleSystem(
            (l(1) - l(2) + l(5) - l(6),
             l(2) - l(3) + l(4) - l(5),
             2 * (h - l(1) - l(2) - l(3)),
             2 * (l(3) - l(4))),
            "F4",
        )
    raise ValueError(f"unknown simple-system case {case!r}")


def cartan_matrix_of(roots, lat: IntersectionLattice):
    """A_ij = 2 (b_i, b_j) / (b_j, b_j) for a list of classes."""
    n = len(roots)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            num = 2 * lat.pair(roots[i], roots[j])
            den = lat.pair(roots[j], roots[j])
            if num % den != 0:
                raise UnrecognizedDiagramError("non-integral Cartan pairing")
            a[i][j] = num // den
    return tuple(tuple(row) for row in a)


def cartan_matrix_of_q(vectors, lat: IntersectionLattice):
    """Cartan matrix for rational coordinate vectors (e.g. folded averages)."""
    n = len(vectors)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            val = 2 * lat.pair_q(vectors[i], vectors[j]) / lat.pair_q(vectors[j], vectors[j])
            if val.denominator != 1:
                raise UnrecognizedDiagramError("non-integral Cartan pairing")
            a[i][j] = int(val)
    return tuple(tuple(row) for row in a)


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
    g = 0
    for c in alpha.coords:
        g = np.gcd(g, abs(c))
    g = int(g)
    if g <= 1:
        return alpha
    return DivisorClass(tuple(c // g for c in alpha.coords))


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
    """The reflection in alpha as a lattice matrix."""
    cols = []
    for i in range(lat.rank):
        cols.append(reflect(lat, alpha, lat.unit(i)).coords)
    mat = np.array(cols, dtype=np.int64).T
    return WeylElement.from_matrix(mat)


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
        self.mats.flags.writeable = False  # the chain is built from these
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


def weyl_generate(gens, cap: int = DEFAULT_CAP, rank: int | None = None) -> WeylGroup:
    """The group the matrices generate, as a ``WeylGroup``.

    An empty generator list yields the trivial group (rank required).
    """
    gens = list(gens)
    if not gens and rank is None:
        raise ValueError("empty generator list needs an explicit rank")
    return WeylGroup(gens, gens[0].mat.shape[0] if gens else rank, cap)


@dataclass(frozen=True)
class OrbitResult:
    elements: tuple
    stabilizer_size: int | None

    def __len__(self):
        return len(self.elements)


def orbit(gens, seed, group: WeylGroup | None = None, cap: int = DEFAULT_CAP) -> OrbitResult:
    """Orbit of a class (or tuple of classes) under the generated group.

    When the group is supplied, the stabilizer size |G| / |orbit| is
    reported alongside.
    """
    parts = [seed] if isinstance(seed, DivisorClass) else list(seed)
    rank = len(parts[0].coords)
    vec = np.array([c for p in parts for c in p.coords], dtype=np.int64)
    mats = np.array([g.mat for g in gens], dtype=np.int64).reshape(-1, rank, rank)
    elems = []
    for row in _orbit_rows(mats, vec, cap):
        classes = [DivisorClass(tuple(row[i:i + rank].tolist())) for i in range(0, len(row), rank)]
        elems.append(classes[0] if isinstance(seed, DivisorClass) else tuple(classes))
    elems = tuple(sorted(elems))
    stab = None
    if group is not None and len(group) % len(elems) == 0:
        stab = len(group) // len(elems)
    return OrbitResult(elems, stab)


def restrict_to_basis(mats: np.ndarray, basis, lat: IntersectionLattice) -> np.ndarray:
    """The matrices of an (N, rank, rank) stack on the span of ``basis``.

    Every matrix must preserve the span; images must have integer
    coordinates in the basis, else ``ValueError``.  Returns an (N, k, k)
    array, computed as two matrix products ``L @ (M @ B)``.
    """
    bmat = [[b.coords[i] for b in basis] for i in range(lat.rank)]  # rank x k
    left, den = integer_left_inverse(bmat)
    b_np = np.array(bmat, dtype=np.int64)
    l_np = np.array(left, dtype=np.int64)
    images = l_np @ (np.asarray(mats, dtype=np.int64) @ b_np)
    if not np.all(images % den == 0):
        raise ValueError("an element does not preserve the sublattice integrally")
    return images // den


def decompose_in_basis(x: DivisorClass, basis, require_integral=True):
    """Coordinates of x in the given (independent) class basis."""
    bmat = [[b.coords[i] for b in basis] for i in range(len(x.coords))]
    if require_integral:
        return rational_solve_int(bmat, list(x.coords))
    from ._linalg import rational_solve

    return rational_solve(bmat, list(x.coords))
