"""Finite abelian stand-ins for the elliptic curve, and exact solvers.

A SigmaModel is Z/m1 x Z/m2 with m1 | m2; every finite abelian group of
rank <= 2 arises this way, which covers all torsion arguments needed for
the configuration checks.  Group elements are canonical residue pairs.
The Weierstrass adapter grounds the group law on an actual curve over a
small prime field by brute-force point enumeration.

Every exhaustive check over point tuples walks Sigma^k in bounded chunks
through one generator, ``SigmaModel.form_chunks``.

Integer linear systems over a SigmaModel are solved through the Smith
normal form, one cyclic factor at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, prod

import numpy as np

from ._linalg import SNFDecomposition, mat_vec
from ._linalg import smith_normal_form as _snf_raw

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

    def element(self, a: int, b: int) -> GroupElement:
        return (a % self.m1, b % self.m2)

    def add(self, x: GroupElement, y: GroupElement) -> GroupElement:
        return ((x[0] + y[0]) % self.m1, (x[1] + y[1]) % self.m2)

    def sub(self, x: GroupElement, y: GroupElement) -> GroupElement:
        return ((x[0] - y[0]) % self.m1, (x[1] - y[1]) % self.m2)

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
        """
        k, order = forms.shape[1], self.order
        t = max(j for j in range(k + 1) if order**j <= min(_CHUNK_ROWS, _TABLE_ROWS))
        width, nlead, step = order**t, order ** (k - t), _CHUNK_ROWS // order**t
        mods = np.array([[[self.m1]], [[self.m2]]], np.min_scalar_type(max(2 * self.m2, order)))

        def values(idx, f):  # f on the tuples numbered idx, read as base-|Sigma| digits
            e = idx // order ** np.arange(f.shape[1])[::-1, None] % order
            return (np.stack([f @ (e // self.m2), f @ (e % self.m2)]) % mods).astype(mods.dtype)

        tail = values(np.arange(width), forms[:, k - t:])[:, :, None, :]
        for g0 in range(0, nlead, step):  # step leading tuples, each with every tail
            head = values(np.arange(g0, min(g0 + step, nlead)), forms[:, :k - t])
            total = (tail + head[..., None]).reshape(2, len(forms), -1)  # wrap, then min
            yield (slice(g0 * width, g0 * width + total.shape[2]),
                   np.minimum(total, total - mods, out=total))
            del total  # once the caller drops it too, the next chunk reuses its memory


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

    def sub(self, x, y):
        return tuple(a - b for a, b in zip(x, y))

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


@dataclass(frozen=True)
class GroupSolveResult:
    solvable: bool
    solution: tuple[GroupElement, ...] | None
    kernel_size: int
    solutions: tuple[tuple[GroupElement, ...], ...] | None

    def __iter__(self):
        return iter(self.solutions or ())


def _cyclic_kernel(dec: SNFDecomposition, m: int, ncols: int, nrows: int):
    """Kernel structure of A acting on (Z/m)^ncols, from the SNF of A.

    Each entry (i, step, order) says coordinate i of y = V x moves in
    increments of ``step`` with ``order`` choices; kernel size is the
    product of the orders.
    """
    kernel = []
    for i in range(ncols):
        d = dec.s[i][i] if i < min(nrows, ncols) else 0
        dm = d % m
        if dm == 0:
            if m > 1:
                kernel.append((i, 1, m))
        else:
            g = gcd(dm, m)
            if g > 1:
                kernel.append((i, m // g, g))
    return kernel


def _cyclic_particular(dec: SNFDecomposition, rhs, m: int, ncols: int, nrows: int):
    """One solution of A x = rhs over Z/m in y-coordinates, or None."""
    c = mat_vec(dec.uinv, rhs)
    for i in range(ncols, nrows):
        if c[i] % m != 0:
            return None
    y = [0] * ncols
    for i in range(ncols):
        d = dec.s[i][i] if i < min(nrows, ncols) else 0
        ci = c[i] % m if i < nrows else 0
        dm = d % m
        if dm == 0:
            if ci != 0:
                return None
        else:
            g = gcd(dm, m)
            if ci % g != 0:
                return None
            step = m // g
            if step > 1:
                y[i] = (ci // g) * pow(dm // g, -1, step) % step
    return y


def solve_group_system(a, rhs, sigma: SigmaModel, enumerate_cap: int = 4096) -> GroupSolveResult:
    """Solve A x = rhs over the group, where A is an integer matrix.

    rhs is a vector of group elements.  Solvability, one particular
    solution, and the kernel size come from the Smith normal form; all
    solutions are materialized when the kernel is at most the cap.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if len(rhs) != nrows:
        raise ValueError("rhs length does not match the matrix")
    dec = _snf_raw([list(row) for row in a])

    comps = []
    kern_total = 1
    for ci, m in enumerate((sigma.m1, sigma.m2)):
        r = [pt[ci] for pt in rhs]
        kernel = _cyclic_kernel(dec, m, ncols, nrows)
        y = _cyclic_particular(dec, r, m, ncols, nrows)
        ksize = prod(order for _, _, order in kernel) if kernel else 1
        comps.append((y, kernel, m))
        kern_total *= ksize
    if any(y is None for y, _, _ in comps):
        return GroupSolveResult(False, None, kern_total, None)

    def to_x(yvec, m):
        x = mat_vec(dec.vinv, yvec)
        return [v % m for v in x]

    sol_parts = [to_x(y, m) for y, _, m in comps]
    particular = tuple(
        sigma.element(sol_parts[0][j], sol_parts[1][j]) for j in range(ncols)
    )

    all_solutions = None
    if kern_total <= enumerate_cap:
        per_comp = []
        for y, kernel, m in comps:
            combos = []
            ranges = [range(order) for _, _, order in kernel]
            for ticks in itertools.product(*ranges):
                yy = list(y)
                for (i, step, _), t in zip(kernel, ticks):
                    yy[i] = (yy[i] + t * step) % m
                combos.append(to_x(yy, m))
            per_comp.append(combos)
        sols = set()
        for c1 in per_comp[0]:
            for c2 in per_comp[1]:
                sols.add(tuple(sigma.element(c1[j], c2[j]) for j in range(ncols)))
        if len(sols) != kern_total:
            raise AssertionError(f"{len(sols)} distinct solutions, kernel size {kern_total}")
        all_solutions = tuple(sorted(sols))

    return GroupSolveResult(True, particular, kern_total, all_solutions)
