"""Finite abelian stand-ins for the elliptic curve, and exact solvers.

A SigmaModel is Z/m1 x Z/m2 with m1 | m2; every finite abelian group of
rank <= 2 arises this way, which covers all torsion arguments needed for
the configuration checks.  Group elements are canonical residue pairs.
The Weierstrass adapter grounds the group law on an actual curve over a
small prime field by brute-force point enumeration.

Every exhaustive check over point tuples walks Sigma^k in bounded chunks
through one generator, ``SigmaModel.form_chunks``.

Integer linear systems A x = b over a SigmaModel are solved through the
Smith normal form, both cyclic factors at once, for a whole (n, nrows, 2)
stack of right-hand sides b (``solve_group_stack``); a single b is the
one-row case (``solve_group_system``).  What depends only on (A, m1, m2),
U^-1 and V^-1 reduced mod each factor, the invariant orders gcd(d_i, m)
and the sorted homogeneous solution table, is computed once and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, prod

import numpy as np

from ._linalg import smith_normal_form as _snf_raw
from .rootsys import BudgetExceededError

GroupElement = tuple[int, int]

_CHUNK_ROWS = 1 << 15  # the most tuples in a chunk of SigmaModel.form_chunks
_TABLE_ROWS = 1 << 11  # the most tuples of trailing coordinates tabulated once


class SingularCurveError(ValueError):
    pass


@dataclass(frozen=True)
class SigmaModel:
    """Z/m1 x Z/m2 with m1 | m2, elements reduced componentwise."""

    m1: int
    m2: int

    def __post_init__(self):
        if self.m1 < 1 or self.m2 < 1 or self.m2 % self.m1 != 0:
            raise ValueError("need m1 | m2 with both positive")

    @property
    def order(self) -> int:
        return self.m1 * self.m2

    @property
    def zero(self) -> GroupElement:
        return (0, 0)

    def add(self, x: GroupElement, y: GroupElement) -> GroupElement:
        return ((x[0] + y[0]) % self.m1, (x[1] + y[1]) % self.m2)

    def neg(self, x: GroupElement) -> GroupElement:
        return ((-x[0]) % self.m1, (-x[1]) % self.m2)

    def scale(self, k: int, x: GroupElement) -> GroupElement:
        return ((k * x[0]) % self.m1, (k * x[1]) % self.m2)

    def combine(self, coeffs, points) -> GroupElement:
        """sum_j coeffs[j] points[j], reduced once at the end."""
        a = b = 0
        for k, p in zip(coeffs, points):
            if k:
                a += k * p[0]
                b += k * p[1]
        return (a % self.m1, b % self.m2)

    def elements(self):
        for a in range(self.m1):
            for b in range(self.m2):
                yield (a, b)

    def torsion(self, n: int):
        """The n-torsion subgroup, of size gcd(n, m1) * gcd(n, m2)."""
        g1, g2 = gcd(n, self.m1), gcd(n, self.m2)
        return [
            ((self.m1 // g1) * i, (self.m2 // g2) * j)
            for i in range(g1)
            for j in range(g2)
        ]

    def is_zero(self, x: GroupElement) -> bool:
        return x == (0, 0)

    def form_chunks(self, forms):
        """Yield (cols, residues) for integer forms (K, k) at every t in Sigma^k, chunk by chunk.

        Tuples come in the order of ``itertools.product(self.elements(),
        repeat=k)``; ``cols`` is the chunk's slice of tuple numbers, at most
        ``_CHUNK_ROWS`` long, and ``residues`` is (2, K, len) holding forms @ t
        mod (m1, m2) in the smallest unsigned dtype that holds two residues.
        The trailing coordinates' values are tabulated once (at most
        ``_TABLE_ROWS`` tuples); each chunk adds the leading ones to them.

        Every chunk is built in two buffers allocated once per walk, the sum
        and its wrapped difference, and ``residues`` is a view into the
        first: a chunk is valid until the next one is requested.  A caller
        that keeps one must copy it.
        """
        k, order = forms.shape[1], self.order
        t = max(j for j in range(k + 1) if order**j <= min(_CHUNK_ROWS, _TABLE_ROWS))
        width, nlead, step = order**t, order ** (k - t), _CHUNK_ROWS // order**t
        mods = np.array([[[self.m1]], [[self.m2]]], np.min_scalar_type(max(2 * self.m2, order)))

        def values(idx, f):  # f on the tuples numbered idx, read as base-|Sigma| digits
            e = idx // order ** np.arange(f.shape[1])[::-1, None] % order
            return (np.stack([f @ (e // self.m2), f @ (e % self.m2)]) % mods).astype(mods.dtype)

        tail = values(np.arange(width), forms[:, k - t:])[:, :, None, :]
        total, wrapped = (np.empty((2, len(forms), min(step, nlead), width), mods.dtype)
                          for _ in range(2))
        for g0 in range(0, nlead, step):  # step leading tuples, each with every tail
            head = values(np.arange(g0, min(g0 + step, nlead)), forms[:, :k - t])
            s, d = (buf[:, :, :head.shape[2]] for buf in (total, wrapped))
            np.add(tail, head[..., None], out=s)
            np.subtract(s, mods[..., None], out=d)  # wrap, then min
            yield (slice(g0 * width, g0 * width + s.shape[2] * width),
                   np.minimum(s, d, out=s).reshape(2, len(forms), -1))


class SymbolicSigma:
    """Free abelian group Z^k used for 'generic point' arguments.

    Duck-types the part of SigmaModel the restriction machinery needs, so
    all point computations can be run with formal generators; a relation
    holds generically exactly when it holds here.
    """

    def __init__(self, nfree: int):
        self.nfree = nfree

    @property
    def zero(self):
        return (0,) * self.nfree

    def gen(self, i):
        return tuple(1 if j == i else 0 for j in range(self.nfree))

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def neg(self, x):
        return tuple(-a for a in x)

    def scale(self, k, x):
        return tuple(k * a for a in x)

    def combine(self, coeffs, points):
        terms = [(k, p) for k, p in zip(coeffs, points) if k]
        return tuple(sum(k * p[i] for k, p in terms) for i in range(self.nfree))

    def is_zero(self, x) -> bool:
        return all(a == 0 for a in x)


def make_sigma_model(m1: int, m2: int) -> SigmaModel:
    return SigmaModel(m1, m2)


def weierstrass_group(p: int, a: int, b: int):
    """Brute-force group of y^2 = x^3 + a x + b over F_p, p an odd prime.

    Returns (SigmaModel, encode) where encode maps curve points (pairs,
    or None for the point at infinity) to model elements through a group
    isomorphism.  Addition is the usual chord-tangent law.
    """
    if p < 3 or p > 10**4 or any(p % q == 0 for q in range(2, min(p, 200)) if q * q <= p):
        raise ValueError("p must be an odd prime <= 10^4")
    if (4 * a**3 + 27 * b**2) % p == 0:
        raise SingularCurveError("discriminant vanishes mod p")

    a %= p
    b %= p
    points = [None]
    sqrts: dict[int, list[int]] = {}
    for y in range(p):
        sqrts.setdefault(y * y % p, []).append(y)
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        for y in sqrts.get(rhs, ()):
            points.append((x, y))
    n = len(points)

    def add(pt, qt):
        if pt is None:
            return qt
        if qt is None:
            return pt
        x1, y1 = pt
        x2, y2 = qt
        if x1 == x2 and (y1 + y2) % p == 0:
            return None
        if pt == qt:
            m = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
        else:
            m = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (m * m - x1 - x2) % p
        return (x3, (m * (x1 - x3) - y1) % p)

    def mul(k, pt):
        acc = None
        while k:
            if k & 1:
                acc = add(acc, pt)
            pt = add(pt, pt)
            k >>= 1
        return acc

    def order_of(pt):
        o, cur = 1, pt
        while cur is not None:
            cur = add(cur, pt)
            o += 1
        return o

    orders = {pt: order_of(pt) for pt in points}
    m2 = 1
    for o in orders.values():
        m2 = m2 * o // gcd(m2, o)
    # groups of rank <= 2 always contain an element of maximal order
    g2 = next((pt for pt, o in orders.items() if o == m2), None)
    if g2 is None:
        raise AssertionError("no element of maximal order")
    m1 = n // m2
    sub2 = {mul(j, g2) for j in range(m2)}
    g1 = None
    if m1 > 1:
        # an element of order m1 whose nonzero multiples all avoid <g2>
        g1 = next((pt for pt, o in orders.items()
                   if o == m1 and all(mul(j, pt) not in sub2 for j in range(1, o))), None)
        if g1 is None:
            raise AssertionError("no complement generator found")

    model = SigmaModel(m1, m2)
    table = {}
    for i in range(m1):
        base = mul(i, g1) if g1 is not None else None
        for j in range(m2):
            table[_key(add(base, mul(j, g2)))] = (i, j)
    if len(table) != n:
        raise AssertionError(f"the generators reach {len(table)} of {n} points")

    def encode(pt) -> GroupElement:
        return table[_key(pt)]

    encode.add = add  # expose the raw chord-tangent law for tests
    encode.points = points
    return model, encode


def _key(pt):
    return pt if pt is not None else "O"


@dataclass(frozen=True, eq=False)
class GroupSolveStack:
    """The solutions of A x = b for a stack of n right-hand sides b.

    ``solvable`` is (n,) bool and ``particular`` (n, ncols, 2) int64, one solution
    per solvable b (its rows for an unsolvable b mean nothing).  ``table`` holds
    every solution of every solvable b, (N, ncols, 2) with N = kernel_size times
    the solvable count, block by block in the order of b: row k of a block is its
    particular solution plus row k of the sorted homogeneous table.  ``image`` (N,)
    is the index of the b each row solves.
    """

    solvable: np.ndarray
    particular: np.ndarray
    kernel_size: int
    table: np.ndarray
    image: np.ndarray


@lru_cache(maxsize=1024)
def _smith_data(a: tuple[tuple[int, ...], ...]):
    """(d, U^-1, V^-1) of A = U S V as tuples; d is padded with zeros to the column count."""
    dec = _snf_raw([list(row) for row in a])
    ncols = len(a[0]) if a else 0
    d = tuple(dec.diag) + (0,) * (ncols - len(dec.diag))
    return d, tuple(map(tuple, dec.uinv)), tuple(map(tuple, dec.vinv))


class _SolverData:
    """What solving A x = b over Z/m1 x Z/m2 reads that depends on (A, m1, m2) only.

    Arrays are int64 with a leading axis of length 2, one entry per factor m:
    ``uinv`` is U^-1 mod m, padded with zero rows to max(nrows, ncols) rows;
    ``vinv`` is V^-1 mod m; ``orders`` holds g_i = gcd(d_i, m), and m on the rows
    past the column count, where c_i = 0 is needed; ``steps`` holds m / g_i and
    ``units`` the inverse of d_i / g_i mod m / g_i (0 where m / g_i = 1).  All
    are read-only; the homogeneous table is built on first use.
    """

    def __init__(self, a, m1: int, m2: int):
        nrows = len(a)
        self.ncols = ncols = len(a[0]) if nrows else 0
        if m2 * m2 * max(nrows, ncols) >= 1 << 62:
            raise OverflowError(f"solutions mod {m2} of {nrows} x {ncols} systems could exceed 2^62")
        d, uinv, vinv = _smith_data(a)
        self.mods = mods = (m1, m2)
        orders = [[gcd(di, m) for di in d] + [m] * (nrows - ncols) for m in mods]
        self.kernel_size = prod(orders[0][:ncols]) * prod(orders[1][:ncols])
        pad = [(0,) * nrows] * (ncols - nrows)
        self.uinv = np.array([[[u % m for u in row] for row in uinv + tuple(pad)] for m in mods],
                             dtype=np.int64).reshape(2, len(orders[0]), nrows)
        self.vinv = np.array([[[v % m for v in row] for row in vinv] for m in mods],
                             dtype=np.int64).reshape(2, ncols, ncols)
        self.orders = np.array(orders, dtype=np.int64).reshape(2, -1, 1)
        self.steps = np.array(mods, dtype=np.int64).reshape(2, 1, 1) // self.orders[:, :ncols]
        self.units = np.array([[pow(di // g, -1, m // g) if g < m else 0
                                for di, g in zip(d, gs)] for gs, m in zip(orders, mods)],
                              dtype=np.int64).reshape(2, ncols, 1)
        for arr in (self.uinv, self.vinv, self.orders, self.steps, self.units):
            arr.flags.writeable = False  # cached and shared (_solver_data)

    def particular(self, b: np.ndarray):
        """(solvable, particular) for b, an (n, nrows, 2) stack of right-hand sides.

        With c = U^-1 b mod m, coordinate i solves d_i y_i = c_i mod m, which has
        g_i solutions m / g_i apart when g_i divides c_i; x = V^-1 y mod m.
        """
        mods = np.array(self.mods, dtype=np.int64).reshape(2, 1, 1)
        c = self.uinv @ (b.transpose(2, 1, 0) % mods) % mods  # (2, rows, n)
        solvable = ~(c % self.orders).any(axis=(0, 1))
        y = c[:, :self.ncols] // self.orders[:, :self.ncols] * self.units % self.steps
        return solvable, (self.vinv @ y % mods).transpose(2, 1, 0)

    def solutions(self, particular: np.ndarray) -> np.ndarray:
        """(n, kernel_size, ncols, 2): each particular solution plus the homogeneous table."""
        return (particular[:, None] + self.kernel[None]) % np.array(self.mods, dtype=np.int64)

    @cached_property
    def kernel(self) -> np.ndarray:
        """The read-only (kernel_size, ncols, 2) table of solutions of A x = 0, sorted.

        Per factor: V^-1 applied to every combination of the steps m / g_i, in
        one int64 matmul; the factors are paired, sorted and checked distinct.
        """
        ncols, cosets = self.ncols, []
        for vinv, g, step, m in zip(self.vinv, self.orders[:, :ncols, 0], self.steps, self.mods):
            ticks = np.indices(tuple(g.tolist())).reshape(ncols, -1)
            cosets.append((vinv @ (step * ticks) % m).T)
        c1, c2 = cosets
        flat = np.stack([np.repeat(c1, len(c2), axis=0), np.tile(c2, (len(c1), 1))],
                        axis=2).reshape(self.kernel_size, 2 * ncols)
        flat = flat[np.lexsort(flat.T[::-1])]
        distinct = 1 + int(np.count_nonzero((flat[1:] != flat[:-1]).any(axis=1)))
        if distinct != self.kernel_size:
            raise AssertionError(f"{distinct} distinct solutions, kernel size {self.kernel_size}")
        table = flat.reshape(self.kernel_size, ncols, 2)
        table.flags.writeable = False
        return table


@lru_cache(maxsize=1024)
def _solver_data(a: tuple[tuple[int, ...], ...], m1: int, m2: int) -> _SolverData:
    return _SolverData(a, m1, m2)


def solve_group_stack(a, rhs, sigma: SigmaModel, enumerate_cap: int = 4096) -> GroupSolveStack:
    """Solve A x = b over the group for each b of rhs, an (n, nrows, 2) stack.

    Everything that depends on (A, m1, m2) alone is cached (``_solver_data``):
    the Smith form, U^-1 and V^-1 reduced mod each factor, the invariant
    orders gcd(d_i, m) and the sorted homogeneous table.  The stack itself
    costs a few int64 operations: c = U^-1 b mod m, one solvability mask,
    the particular solutions and (particular + homogeneous) mod m.
    ``OverflowError`` is raised when max(nrows, ncols) * m^2 could reach
    2^62.  When some b is solvable and the kernel is larger than
    ``enumerate_cap``, ``BudgetExceededError`` is raised before the table is
    built: the cap refuses, it never truncates.
    """
    data = _solver_data(tuple(map(tuple, a)), sigma.m1, sigma.m2)
    b = np.asarray(rhs, dtype=np.int64)
    if b.ndim != 3 or b.shape[1:] != (len(a), 2):
        raise ValueError(f"need an (n, {len(a)}, 2) stack of right-hand sides, not {b.shape}")
    solvable, particular = data.particular(b)
    image = np.flatnonzero(solvable)
    if len(image) and data.kernel_size > enumerate_cap:
        raise BudgetExceededError(
            f"{data.kernel_size} solutions per image exceed the enumerate cap {enumerate_cap}")
    table = (data.solutions(particular[image]).reshape(-1, data.ncols, 2) if len(image)
             else np.zeros((0, data.ncols, 2), dtype=np.int64))
    return GroupSolveStack(solvable, particular, data.kernel_size, table,
                           np.repeat(image, data.kernel_size))


def solve_group_system(a, rhs, sigma: SigmaModel, enumerate_cap: int = 4096) -> GroupSolveStack:
    """Solve A x = rhs over the group, rhs one vector of group elements.

    The one-row stack of ``solve_group_stack``: same cached data, overflow
    guard and cap, which refuses with ``BudgetExceededError`` past
    ``enumerate_cap`` rather than return part of the solutions.
    """
    if len(rhs) != len(a):
        raise ValueError("rhs length does not match the matrix")
    return solve_group_stack(a, np.array(rhs, dtype=np.int64).reshape(1, len(a), 2), sigma,
                             enumerate_cap)
