"""Finite abelian stand-ins for the elliptic curve, and exact solvers.

A SigmaModel is Z/m1 x Z/m2 with m1 | m2; every finite abelian group of
rank <= 2 arises this way, which covers all torsion arguments needed for
the configuration checks.  Group elements are canonical residue pairs
(a, b), and points are int64 arrays of them: a set of npoints points is
(npoints, 2), a stack of n sets (n, npoints, 2), and every sum of points
is one integer matmul reduced mod (m1, m2) on the last axis.  The model
has no per-element arithmetic.  The Weierstrass adapter grounds the group
law on an actual curve over a small prime field by brute-force point
enumeration.

Every exhaustive check over point tuples walks Sigma^k in bounded chunks
through one generator, ``SigmaModel.form_chunks``, which yields the point
codes a m2 + b of a block of integer forms: each chunk is one gather from
a table of the forms' trailing values, translated by every element.  The
walk's size, |Sigma|^k, is checked against a cap first
(``SigmaModel.tuple_count``).

Integer linear systems A x = b over a SigmaModel are solved through the
Smith normal form, both cyclic factors at once, for a whole (n, nrows, 2)
stack of right-hand sides b (``solve_group_stack``); a single b is the
one-row case (``solve_group_system``).  Every solution is a particular
one plus a row of the sorted homogeneous table.
"""

from __future__ import annotations

from math import gcd, prod
from typing import NamedTuple

import numpy as np

from ._linalg import smith_normal_form as _snf_raw
from .rootsys import BudgetExceededError

GroupElement = tuple[int, int]

_CHUNK_ROWS = 1 << 15  # the most tuples in a chunk of SigmaModel.form_chunks


class SingularCurveError(ValueError):
    pass


class SigmaModel:
    """Z/m1 x Z/m2 with m1 | m2; its elements are the residue pairs (a, b), a < m1 and b < m2."""

    __slots__ = ("m1", "m2")

    def __init__(self, m1: int, m2: int):
        if m1 < 1 or m2 < 1 or m2 % m1 != 0:
            raise ValueError("need m1 | m2 with both positive")
        self.m1, self.m2 = m1, m2

    @property
    def order(self) -> int:
        return self.m1 * self.m2

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

    def tuple_count(self, k: int, cap: int) -> int:
        """|Sigma|^k, the tuples a walk of Sigma^k visits; ``BudgetExceededError`` past ``cap``."""
        n = self.order**k
        if n > cap:
            raise BudgetExceededError(f"{n} tuples of Sigma^{k} exceed the action cap {cap}")
        return n

    def form_chunks(self, forms):
        """Yield (cols, codes) for integer forms (K, k) at every t in Sigma^k, chunk by chunk.

        Tuples come in the order of ``itertools.product(self.elements(),
        repeat=k)``; ``cols`` is the chunk's slice of tuple numbers, at most
        ``_CHUNK_ROWS`` long, and ``codes`` is (K, len) holding the point code
        a m2 + b of forms @ t = (a, b), in the smallest unsigned dtype that
        holds |Sigma| - 1.  The code of an element is its index in
        ``elements()``.

        A tuple is a head, its leading k - w coordinates, and a tail, the
        last w, with w < k the largest such that |Sigma|^(w+1) <=
        ``_CHUNK_ROWS`` (w = 0 past that).  Once per walk, each form's value
        on every tail is translated by every g in Sigma, componentwise: the
        table T[f, g] = code(g + tail_f), K |Sigma| rows of |Sigma|^w codes,
        no larger than a chunk nor than the whole walk.  A chunk is a run of
        heads with all their tails: each form's head value g picks its row
        T[f, g], one ``np.take`` for the chunk.

        Every chunk is gathered into one contiguous buffer allocated once per
        walk, and ``codes`` is a view into it: a chunk is valid until the
        next one is requested.  A caller that keeps one must copy it.
        """
        nforms, k, order = *forms.shape, self.order
        w = max([j for j in range(k) if order ** (j + 1) <= _CHUNK_ROWS], default=0)
        width, nhead = order**w, order ** (k - w)
        step = _CHUNK_ROWS // width
        m1, m2, code = self.m1, self.m2, np.min_scalar_type(order - 1)

        el, wide = np.arange(order), np.min_scalar_type(max(2 * m2, order))

        def wrapped(x, m):  # x mod m for 0 <= x < 2m: below m, x - m wraps past x
            return np.minimum(x, x - wide.type(m), out=x)

        # the tails' residues mod m1 and mod m2, each coordinate broadcast onto the ones before
        ta, tb = (np.zeros((nforms, 1), wide) for _ in range(2))
        for c in forms[:, k - w:].T:
            ta, tb = (wrapped(v[:, :, None] + (c[:, None] * e % m).astype(wide)[:, None], m)
                      .reshape(nforms, -1) for v, e, m in ((ta, el // m2, m1), (tb, el % m2, m2)))
        # T[f, (a, b)] = code(tail_f + (a, b)): each factor translated by each of its residues
        ga = wrapped(ta[:, None] + np.arange(m1, dtype=wide)[:, None], m1) * wide.type(m2)
        gb = wrapped(tb[:, None] + np.arange(m2, dtype=wide)[:, None], m2)
        table = np.empty((nforms, m1, m2, width), code)
        np.add(ga[:, :, None], gb[:, None], out=table)
        table = table.reshape(nforms * order, width)

        rows, head = np.arange(nforms)[:, None] * order, forms[:, :k - w]
        # one buffer for the walk: allocating each chunk raised the peak RSS of
        # `verify repbundles` 34.90 -> 35.63 MiB (10 of 10 pairs)
        buf = np.empty(nforms * min(step, nhead) * width, code)
        for h0 in range(0, nhead, step):
            idx = np.arange(h0, min(h0 + step, nhead))
            e = idx // order ** np.arange(k - w)[::-1, None] % order  # the heads' elements
            g = head @ (e // m2) % m1 * m2 + head @ (e % m2) % m2
            codes = buf[:g.size * width].reshape(nforms, len(idx), width)  # contiguous
            # in range by construction; mode "raise" would gather into a copy of out
            np.take(table, rows + g, axis=0, out=codes, mode="clip")
            yield slice(h0 * width, (h0 + len(idx)) * width), codes.reshape(nforms, -1)


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

    def order_of(pt):  # the order divides n: strip each prime q of n while (o / q) pt = O
        o = n
        for q in primes:
            while o % q == 0 and mul(o // q, pt) is None:
                o //= q
        return o

    primes = [q for q in range(2, n + 1) if n % q == 0 and all(q % d for d in range(2, q))]
    orders = {}
    for pt in points:  # -(x, y) = (x, -y) has the order of (x, y)
        orders[pt] = orders.get(pt and (pt[0], -pt[1] % p)) or order_of(pt)
    m2 = 1
    for o in orders.values():
        m2 = m2 * o // gcd(m2, o)
    # groups of rank <= 2 always contain an element of maximal order (O when the group is trivial)
    g2 = max(orders, key=orders.get)
    if orders[g2] != m2:
        raise AssertionError("no element of maximal order")
    m1 = n // m2
    multiples = [None]  # j g2 for j < m2, one addition each
    while len(multiples) < m2:
        multiples.append(add(multiples[-1], g2))
    sub2 = set(multiples)
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
        for j, q in enumerate(multiples):
            table[_key(add(base, q))] = (i, j)
    if len(table) != n:
        raise AssertionError(f"the generators reach {len(table)} of {n} points")

    def encode(pt) -> GroupElement:
        return table[_key(pt)]

    encode.add = add  # expose the raw chord-tangent law for tests
    encode.points, encode.orders = points, orders
    return model, encode


def _key(pt):
    return pt if pt is not None else "O"


class GroupSolveStack(NamedTuple):
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


def _homogeneous(vinv: np.ndarray, steps: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The (kernel_size, ncols, 2) table of solutions of A x = 0, sorted.

    Per factor m: V^-1 mod m applied to every combination of the multiples
    k_i m / g_i, k_i < g_i, both factors in one int64 matmul; the rows are
    sorted and checked distinct.
    """
    ncols = vinv.shape[1]
    ticks = np.indices(tuple((m // steps).ravel().tolist())).reshape(2, ncols, -1)
    flat = (vinv @ (steps * ticks) % m).T.reshape(-1, 2 * ncols)
    flat = flat[np.lexsort(flat.T[::-1])]
    distinct = 1 + int(np.count_nonzero((flat[1:] != flat[:-1]).any(axis=1)))
    if distinct != len(flat):
        raise AssertionError(f"{distinct} distinct solutions, kernel size {len(flat)}")
    return flat.reshape(-1, ncols, 2)


def solve_group_stack(a, rhs, sigma: SigmaModel, enumerate_cap: int = 4096) -> GroupSolveStack:
    """Solve A x = b over the group for each b of rhs, an (n, nrows, 2) stack.

    Through the Smith form A = U S V, both factors m at once: with
    c = U^-1 b mod m, coordinate i solves d_i y_i = c_i mod m, which has
    g_i = gcd(d_i, m) solutions m / g_i apart when g_i divides c_i (c_i = 0
    on the rows past the column count), and x = V^-1 y mod m.  U^-1 and V^-1
    are reduced mod m in Python ints before they enter int64, and
    ``OverflowError`` is raised when max(nrows, ncols) * m^2 could reach
    2^62.  Every solution is a particular one plus a row of the sorted
    homogeneous table.  When some b is solvable and the kernel is larger
    than ``enumerate_cap``, ``BudgetExceededError`` is raised before the
    table is built: the cap refuses, it never truncates.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    mods = (sigma.m1, sigma.m2)
    if sigma.m2 * sigma.m2 * max(nrows, ncols) >= 1 << 62:
        raise OverflowError(f"solutions mod {sigma.m2} of {nrows} x {ncols} systems could exceed 2^62")
    b = np.asarray(rhs, dtype=np.int64)
    if b.ndim != 3 or b.shape[1:] != (nrows, 2):
        raise ValueError(f"need an (n, {nrows}, 2) stack of right-hand sides, not {b.shape}")
    dec = _snf_raw([list(row) for row in a])
    d = list(dec.diag) + [0] * (ncols - len(dec.diag))
    # g_i per factor, and m on the rows past the column count, where c_i = 0 is needed
    orders = [[gcd(di, m) for di in d] + [m] * (nrows - ncols) for m in mods]
    kernel_size = prod(orders[0][:ncols]) * prod(orders[1][:ncols])
    uinv = np.zeros((2, len(orders[0]), nrows), dtype=np.int64)  # zero rows past nrows
    uinv[:, :nrows] = [[[u % m for u in row] for row in dec.uinv] for m in mods]
    vinv = np.array([[[v % m for v in row] for row in dec.vinv] for m in mods], dtype=np.int64)
    g = np.array(orders, dtype=np.int64).reshape(2, -1, 1)
    m = np.array(mods, dtype=np.int64).reshape(2, 1, 1)
    steps = m // g[:, :ncols]
    # the inverse of d_i / g_i mod m / g_i (0 where m / g_i = 1)
    units = np.array([[pow(di // gi, -1, mi // gi) if gi < mi else 0 for di, gi in zip(d, gs)]
                      for gs, mi in zip(orders, mods)], dtype=np.int64).reshape(2, ncols, 1)

    c = uinv @ (b.transpose(2, 1, 0) % m) % m  # (2, rows, n)
    solvable = ~(c % g).any(axis=(0, 1))
    y = c[:, :ncols] // g[:, :ncols] * units % steps
    particular = (vinv @ y % m).transpose(2, 1, 0)
    image = np.flatnonzero(solvable)
    table = np.zeros((0, ncols, 2), dtype=np.int64)
    if len(image):
        if kernel_size > enumerate_cap:
            raise BudgetExceededError(
                f"{kernel_size} solutions per image exceed the enumerate cap {enumerate_cap}")
        table = (particular[image, None] + _homogeneous(vinv, steps, m)) % m.ravel()
    return GroupSolveStack(solvable, particular, kernel_size, table.reshape(-1, ncols, 2),
                           np.repeat(image, kernel_size))


def solve_group_system(a, rhs, sigma: SigmaModel, enumerate_cap: int = 4096) -> GroupSolveStack:
    """Solve A x = rhs over the group, rhs one vector of group elements.

    The one-row stack of ``solve_group_stack``: same overflow guard and
    cap, which refuses with ``BudgetExceededError`` past ``enumerate_cap``
    rather than return part of the solutions.
    """
    if len(rhs) != len(a):
        raise ValueError("rhs length does not match the matrix")
    return solve_group_stack(a, np.array(rhs, dtype=np.int64).reshape(1, len(a), 2), sigma,
                             enumerate_cap)
