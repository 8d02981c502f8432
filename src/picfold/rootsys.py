"""Root systems inside Picard lattices, and their Weyl groups.

Weyl elements are stored as integer matrices acting on lattice
coordinates (column vectors).  Group closure is a breadth-first
multiplication by generators: each level is one int64 ``matmul`` of the
frontier against the generator stack, deduplicated by the raw matrix
bytes (``row_keys``: one void-dtype view per chunk of products, not one
``tobytes`` per matrix); the result is sorted by those bytes, so output
order is canonical.  Before each level the closure checks that no entry of the
product can reach 2^62 (largest frontier entry times the largest
absolute column sum of a generator) and raises ``OverflowError`` rather
than let int64 wrap, so a closure of an infinite group ends in
``BudgetExceededError`` or ``OverflowError``, never in wrapped integers.

Closures are memoized for the life of the process, keyed on the
generator stack (its shape and bytes, not the cap): a group is closed
once, however many claims ask for it.  A cached group larger than the
cap of a later call raises ``BudgetExceededError`` exactly as a fresh
closure would, and a closure that raised is never stored.  The cached
``WeylSet.stack`` is read-only, so callers (threads included) share one
object safely.
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
# The closure keys this many products at a time.  The keys of a whole level
# at once (up to ~9 MiB of small bytes objects for W(E6)) fragment the
# small-object heap, and `picfold verify all` then peaked ~23 MiB higher.
_KEY_CHUNK = 1024


def row_keys(arr: np.ndarray) -> list[bytes]:
    """The raw bytes of each ``arr[i]``, equal to ``arr[i].tobytes()``.

    Built from one void-dtype view and one ``tolist``, so trailing zero
    bytes are kept (a void item, unlike a bytes-string item, is not
    stripped).
    """
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
        return WeylElement(tuple(tuple(int(x) for x in row) for row in m))

    @staticmethod
    def identity(rank: int) -> "WeylElement":
        return WeylElement.from_matrix(np.eye(rank, dtype=np.int64))

    def __matmul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement.from_matrix(self.mat @ other.mat)

    def apply(self, d: DivisorClass) -> DivisorClass:
        return DivisorClass(tuple(int(x) for x in self.mat @ np.array(d.coords, dtype=np.int64)))

    def preserves_gram(self, lat: IntersectionLattice) -> bool:
        g = np.array(lat.gram, dtype=np.int64)
        return bool(np.array_equal(self.mat.T @ g @ self.mat, g))

    def fixes(self, d: DivisorClass) -> bool:
        return self.apply(d) == d


class WeylSet:
    """A finite set of Weyl elements backed by a stacked integer array."""

    def __init__(self, stack: np.ndarray):
        self.stack = stack

    @cached_property
    def _keys(self) -> dict[bytes, int]:
        return {key: i for i, key in enumerate(row_keys(self.stack))}

    @staticmethod
    def from_elements(elems) -> "WeylSet":
        return WeylSet(np.stack([e.mat for e in elems]).astype(np.int64))

    def __len__(self):
        return self.stack.shape[0]

    def __iter__(self):
        for i in range(len(self)):
            yield WeylElement.from_matrix(self.stack[i])

    def __getitem__(self, i) -> WeylElement:
        return WeylElement.from_matrix(self.stack[i])

    def __contains__(self, w: WeylElement) -> bool:
        return w.mat.astype(np.int64).tobytes() in self._keys

    def key_set(self) -> frozenset[bytes]:
        return frozenset(self._keys)

    def same_elements(self, other: "WeylSet") -> bool:
        return self.key_set() == other.key_set()

    def select(self, mask) -> "WeylSet":
        return WeylSet(self.stack[np.asarray(mask, dtype=bool)])

    def apply_all(self, d: DivisorClass) -> np.ndarray:
        """Images of a class under every element, as an (N, rank) array."""
        v = np.array(d.coords, dtype=np.int64)
        return np.einsum("nij,j->ni", self.stack, v)


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


def cartan_matrix(simple: SimpleSystem | list, lat: IntersectionLattice):
    """Cartan matrix of a simple system plus its recognized type tag."""
    roots = list(simple.roots) if isinstance(simple, SimpleSystem) else list(simple)
    a = cartan_matrix_of(roots, lat)
    return a, identify_cartan_type(a)


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


def _closure_stack(gen_stack: np.ndarray, cap: int) -> np.ndarray:
    rank = gen_stack.shape[1]
    # |(f @ g)_ik| <= max|f| * sum_j |g_jk|: the largest absolute column sum
    gen_bound = int(np.abs(gen_stack).sum(axis=1).max())
    ident = np.eye(rank, dtype=np.int64)
    keys = [ident.tobytes()]
    known = set(keys)
    blocks = [ident[None]]
    frontier = blocks[0]
    while frontier.shape[0]:
        if int(np.abs(frontier).max()) * gen_bound >= _INT64_SAFE:
            raise OverflowError(
                f"group closure entries would exceed 2^62 after {len(keys)} elements"
            )
        prods = np.matmul(frontier[:, None], gen_stack[None]).reshape(-1, rank, rank)
        fresh_idx = []
        for start in range(0, prods.shape[0], _KEY_CHUNK):
            chunk = row_keys(prods[start:start + _KEY_CHUNK])
            for n, key in enumerate(chunk, start):
                if key not in known:
                    known.add(key)
                    keys.append(key)
                    fresh_idx.append(n)
                    if len(keys) > cap:
                        raise BudgetExceededError(f"group closure exceeded cap {cap}")
        # a copy of the fresh rows only, so each product block is freed
        frontier = prods[fresh_idx]
        blocks.append(frontier)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return np.concatenate(blocks)[order]


_CLOSURES: dict[tuple, WeylSet] = {}


def weyl_generate(gens, cap: int = DEFAULT_CAP, rank: int | None = None) -> WeylSet:
    """Closure of the generators under composition, canonically ordered.

    An empty generator list yields the trivial group (rank required).
    The result is memoized per generator stack and its stack is
    read-only; see the module docstring.
    """
    gens = list(gens)
    if not gens:
        if rank is None:
            raise ValueError("empty generator list needs an explicit rank")
        return weyl_identity_set(rank)
    stack = np.stack([g.mat for g in gens]).astype(np.int64)
    key = (stack.shape, stack.tobytes())
    group = _CLOSURES.get(key)
    if group is None:
        group = WeylSet(_closure_stack(stack, cap))
        group.stack.flags.writeable = False
        group = _CLOSURES.setdefault(key, group)
    elif len(group) > cap:
        raise BudgetExceededError(f"group closure exceeded cap {cap}")
    return group


def weyl_identity_set(rank: int) -> WeylSet:
    return WeylSet(np.eye(rank, dtype=np.int64)[None, :, :])


@dataclass(frozen=True)
class OrbitResult:
    elements: tuple
    stabilizer_size: int | None

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x):
        return x in self.elements


def _seed_to_vec(seed):
    if isinstance(seed, DivisorClass):
        return np.array(seed.coords, dtype=np.int64), None
    parts = [np.array(s.coords, dtype=np.int64) for s in seed]
    return np.concatenate(parts), len(parts)


def _vec_to_seed(vec, nparts, rank):
    if nparts is None:
        return DivisorClass(tuple(int(x) for x in vec))
    return tuple(
        DivisorClass(tuple(int(x) for x in vec[i * rank:(i + 1) * rank]))
        for i in range(nparts)
    )


def orbit(gens, seed, group: WeylSet | None = None, cap: int = DEFAULT_CAP) -> OrbitResult:
    """Orbit of a class (or tuple of classes) under the generated group.

    When the full group is supplied, the stabilizer size |G| / |orbit|
    is reported alongside.
    """
    gens = list(gens)
    vec, nparts = _seed_to_vec(seed)
    rank = gens[0].mat.shape[0] if gens else len(vec)
    mats = [g.mat for g in gens]
    seen = {vec.tobytes(): vec}
    frontier = [vec]
    while frontier:
        nxt = []
        for v in frontier:
            blocks = v.reshape(-1, rank)
            for m in mats:
                w = (blocks @ m.T).reshape(-1)
                key = w.tobytes()
                if key not in seen:
                    seen[key] = w
                    nxt.append(w)
                    if len(seen) > cap:
                        raise BudgetExceededError(f"orbit exceeded cap {cap}")
        frontier = nxt
    elems = tuple(sorted(_vec_to_seed(v, nparts, rank) for v in seen.values()))
    stab = None
    if group is not None:
        if len(group) % len(elems) == 0:
            stab = len(group) // len(elems)
    return OrbitResult(elems, stab)


def restrict_to_basis(ws: WeylSet, basis, lat: IntersectionLattice) -> np.ndarray:
    """Matrices of the elements on the sublattice spanned by ``basis``.

    Every element must preserve the span; images must have integer
    coordinates in the basis, else ``ValueError``.  Returns an (N, k, k)
    array, computed as two matrix products ``L @ (W @ B)``.
    """
    bmat = [[b.coords[i] for b in basis] for i in range(lat.rank)]  # rank x k
    left, den = integer_left_inverse(bmat)
    b_np = np.array(bmat, dtype=np.int64)
    l_np = np.array(left, dtype=np.int64)
    images = l_np @ (ws.stack @ b_np)
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
