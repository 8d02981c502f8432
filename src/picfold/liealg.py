"""Chevalley structure constants for the divisor-level root systems.

Brackets follow the four classical relations on a Chevalley basis
{h_1..h_n, x_a}: [h_i h_j] = 0, [h_i x_a] = <a, a_i> x_a,
[x_a x_-a] = h_a, and [x_a x_b] = N(a, b) x_{a+b} with |N| = r + 1,
r the length of the a-string below b.

``structure_constants(lat, roots, simple)`` takes the roots in any order
and the simple roots as a tuple in diagram order; the table keeps that
tuple as ``simple``, and its rank is its length.  A table is a set of
int64 arrays over the roots in sorted order, so every root is an index:
``codes[a]`` is the code of root a (below), ``N[a, b]`` is N(a, b) (0
where a + b is not a root), ``cartan[a, i]`` is <a, a_i^v> and
``coroots[a]`` holds the coordinates of a^v in the simple coroots.

Sign determination: positive roots are ordered by height (ties broken
lexicographically); for each non-simple positive root the extraspecial
pair gets N = +(r+1), and every other positive pair with that sum follows
from the four-root identity

    a + b + c + d = 0   =>  sum of N(a,b)N(c,d)/(a+b, a+b) over the
                            three pairings vanishes.

Each positive pair (a, b) with a + b a root then fixes the 12 constants
of its zero-sum triple {a, b, c = -(a+b)} and of the negated triple, by

    a + b + c = 0       =>  N(a,b)/(c,c) = N(b,c)/(a,a) = N(c,a)/(b,b)

together with N(a,b) = -N(b,a) = -N(-a,-b).  Every pair of roots with a
root sum lies in exactly one such triple, so this fills the table, and
the recursion at height k reads only constants of triples filled at
lower heights.  Any consistent convention yields an isomorphic algebra;
the Jacobi check is the arbiter.

The recursion runs in Python ints (Carter, ch. 4: root coordinates,
coroots and constants of a Chevalley basis are integers).  The root
coordinates come from one integer change of basis,
``rootsys.basis_coordinates``, the root norms and Cartan pairings from
one Gram product, and the coroot coordinates c_i (a_i, a_i) / (a, a) for
a = sum c_i a_i from one elementwise product.  The four-root identity is
summed over the lcm of the root norms, where each of its terms is an
integer.  Every division is checked, and a remainder raises
``StructureConstantError``.

Roots are integer codes (``root_codes``): coordinates c_t become
sum c_t B^t in base B = 6m + 1, m the largest |c_t| of a root.  The code
is linear and injective on vectors with coordinates in [-3m, 3m], so a
sum or difference of two or three roots is a root exactly when its code
is a root's code (``root_index``).  Codes are refused with
``OverflowError`` unless three of them sum below 2^62, so no sum of
codes the checks form wraps in int64.

The Jacobi check uses the root grading (Carter, *Simple Groups of Lie
Type*, ch. 4): give h_i weight 0 and x_a weight a.  Every bracket of two
basis vectors lies in the span of the basis vectors of the summed
weight, so the Jacobi sum of a triple lies in weight w = w_1 + w_2 + w_3.
When w is neither a root nor zero no basis vector has it, and the sum is
zero.  When w is a root the sum is a scalar on x_w; when w = 0 it is a
vector in h, of length the rank.

``verify_jacobi`` spreads the table over the basis (the h_i, then the
roots in order): [e_p, e_q] = c[p, q] e_t[p, q].  For opposite roots p, q
the target t[p, q] is a row past the basis that stands for h_p, whose c
row holds <r, p^v>, the action of h_p on x_r.  V holds the coroot rows
of the basis roots, and zero rows for the h_i and for the h_p rows.  A
cyclic term [[e_p, e_q], e_r] of a root-weight triple is
c[p, q] c[t[p, q], r].  A term of a weight-0 triple is c[p, q] V[t[p, q]]:
by the grading, t[p, q] is opposite to r whenever c[p, q] is not zero and
p, q are not opposite, and when they are, r is some h_i, which commutes
with h_p.  Only the triples i <= j <= k of
root or zero weight are formed: the pairs j <= k are sorted by weight and
then by j, descending, so for each i and each wanted pair weight
(a root or 0, minus the weight of e_i) the pairs with j >= i are one
range of that order.  The ranges are expanded for blocks of whole i
values, each of at most ``_CHUNK`` triples unless one i alone has more,
so memory stays bounded.  Each triple carries its index in the full scan
of all i <= j <= k, which ``triples_checked`` counts up to the first
failure, the failing triple of least scan index: the skipped triples are
certified zero, not left out.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

import numpy as np

from .lattice import DivisorClass, IntersectionLattice, gram_matrix
from .rootsys import _INT64_SAFE, basis_coordinates

_CHUNK = 1 << 13  # evaluated triples per block of the Jacobi check


class StructureConstantError(ValueError):
    """A root system or simple system admits no Chevalley table as given."""


def root_codes(roots) -> np.ndarray:
    """The int64 codes in base 6m + 1 (module docstring) of the roots, in the given order.

    Raises ``OverflowError``, before any code is stored in int64, when a
    sum of three codes could reach 2^62.
    """
    m = max((abs(c) for rt in roots for c in rt.coords), default=0)
    base = 6 * m + 1
    codes = [sum(c * base**t for t, c in enumerate(rt.coords)) for rt in roots]
    if 3 * max(map(abs, codes), default=0) >= _INT64_SAFE:
        raise OverflowError("root codes of this system could overflow int64")
    return np.array(codes, dtype=np.int64)


def root_index(codes: np.ndarray, values) -> np.ndarray:
    """The index in ``codes`` of each value, or -1 where no root has that code."""
    order = np.argsort(codes)
    ranked = codes[order]
    loc = np.minimum(np.searchsorted(ranked, values), len(ranked) - 1)
    return np.where(ranked[loc] == values, order[loc], -1)


def root_string(alpha, beta, roots):
    """(r, q): beta - r alpha ... beta + q alpha is the alpha-string through beta.

    alpha and beta are classes with ``roots`` a set of classes, or root codes
    with ``roots`` a set of codes.
    """
    r = 0
    cur = beta - alpha
    while cur in roots:
        r += 1
        cur = cur - alpha
    q = 0
    cur = beta + alpha
    while cur in roots:
        q += 1
        cur = cur + alpha
    if r + q > 3:
        raise StructureConstantError("root strings have length at most 4")
    return r, q


class StructureConstantTable(NamedTuple):
    """A Chevalley table on the sorted roots, as int64 arrays indexed by root (module docstring)."""

    lattice: IntersectionLattice
    simple: tuple[DivisorClass, ...]
    roots: tuple[DivisorClass, ...]
    positive: tuple[DivisorClass, ...]
    extraspecial: frozenset
    codes: np.ndarray  # (|R|,)
    N: np.ndarray  # (|R|, |R|)
    cartan: np.ndarray  # (|R|, rank)
    coroots: np.ndarray  # (|R|, rank)

    @property
    def rank(self) -> int:
        return len(self.simple)


def _exact(num, den, message):
    q, r = divmod(num, den)
    if r:
        raise StructureConstantError(message)
    return q


def _exact_rows(num: np.ndarray, den: np.ndarray, message: str, roots) -> np.ndarray:
    """num // den, raising ``message`` with the first root whose row has a remainder."""
    q, r = np.divmod(num, den)
    bad = np.flatnonzero(r.any(axis=1))
    if bad.size:
        raise StructureConstantError(message.format(roots[bad[0]]))
    return q


def structure_constants(lat: IntersectionLattice, roots, simple) -> StructureConstantTable:
    srl = tuple(simple)
    listed = sorted(roots)
    codes = root_codes(listed)
    code = codes.tolist()
    at = {v: a for a, v in enumerate(code)}  # root code -> root index
    rows = np.array([rt.coords for rt in listed], dtype=np.int64).reshape(-1, lat.rank)

    coords = basis_coordinates(np.array([rt.coords for rt in srl], dtype=np.int64).T, rows.T).T
    if not ((coords >= 0).all(axis=1) | (coords <= 0).all(axis=1)).all():
        raise StructureConstantError(
            "root is neither positive nor negative for the given simple system")
    gram = gram_matrix(lat, [*listed, *srl])
    norms = np.diagonal(gram)[:len(listed)]
    simple_norms = np.diagonal(gram)[len(listed):]

    coord_of = dict(zip(code, map(tuple, coords.tolist())))
    positive = sorted((v for v, c in coord_of.items() if sum(c) > 0),
                      key=lambda v: (sum(coord_of[v]), coord_of[v]))
    index = {v: i for i, v in enumerate(positive)}
    roots = set(code)
    norm = dict(zip(code, norms.tolist()))
    scale = lcm(*norm.values())  # each term of the four-root identity is an integer over it
    n = [[0] * len(code) for _ in code]

    def fill(a, b, value):
        """N(a, b) = value, and the 11 constants its triple {a, b, c = -(a+b)} fixes."""
        c = -(a + b)
        bc, ca = (_exact(value * norm[x], norm[c], "a structure constant is not an integer")
                  for x in (a, b))
        for x, y, v in ((a, b, value), (b, c, bc), (c, a, ca)):
            i, j, ni, nj = at[x], at[y], at[-x], at[-y]
            n[i][j], n[j][i], n[ni][nj], n[nj][ni] = v, -v, -v, v

    def n_of(a, b):
        return n[at[a]][at[b]]

    extraspecial = set()
    for gamma in positive:
        if sum(coord_of[gamma]) == 1:
            continue
        decomps = [(alpha, gamma - alpha) for alpha in positive[:index[gamma]]
                   if gamma - alpha in index]
        a0, b0 = decomps[0]  # minimal first member: the extraspecial pair
        n0 = root_string(a0, b0, roots)[0] + 1
        fill(a0, b0, n0)
        extraspecial.add((listed[at[a0]], listed[at[b0]]))
        for alpha, beta in decomps[1:]:
            if index[alpha] >= index[beta]:
                continue  # one fill per unordered pair
            terms = 0  # scale times the sum over the two other pairings
            if b0 - alpha in roots:
                terms += n_of(b0, -alpha) * n_of(a0, -beta) * (scale // norm[b0 - alpha])
            if a0 - alpha in roots:
                terms += n_of(-alpha, a0) * n_of(b0, -beta) * (scale // norm[a0 - alpha])
            val = _exact(norm[gamma] * terms, scale * n0, "sign propagation produced a non-integer")
            r, _ = root_string(alpha, beta, roots)
            if abs(val) != r + 1:
                raise StructureConstantError(
                    f"sign-propagation conflict at {listed[at[alpha]]}, {listed[at[beta]]}")
            fill(alpha, beta, val)

    cartan = _exact_rows(2 * gram[:len(listed), len(listed):], simple_norms,
                         "non-integral Cartan pairing of {}", listed)
    # a = sum c_i a_i gives a^v = 2a/(a,a) = sum c_i (a_i,a_i)/(a,a) a_i^v
    coroots = _exact_rows(coords * simple_norms, norms[:, None],
                          "coroot of {} is not integral", listed)
    return StructureConstantTable(
        lattice=lat,
        simple=srl,
        roots=tuple(listed),
        positive=tuple(listed[at[v]] for v in positive),
        extraspecial=frozenset(extraspecial),
        codes=codes,
        N=np.array(n, dtype=np.int64).reshape(len(code), len(code)),
        cartan=cartan,
        coroots=coroots,
    )


class JacobiReport(NamedTuple):
    ok: bool
    triples_checked: int
    first_failure: tuple | None


def _ranges(lo: np.ndarray, count: np.ndarray) -> np.ndarray:
    """lo[e], ..., lo[e] + count[e] - 1 for every e, concatenated."""
    return np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())


def verify_jacobi(table: StructureConstantTable) -> JacobiReport:
    """Jacobi identity over every basis triple (h's and root vectors).

    Triples whose weight is neither a root nor zero vanish by the grading
    (module docstring): they are counted in ``triples_checked`` but not
    evaluated.  The grading needs a, b and a + b to be roots wherever
    N[a, b] is not zero; a table that breaks this fails at once, with the
    first such pair as ``first_failure`` and no triple checked.  A table
    whose codes or constants could overflow an int64 Jacobi sum raises
    ``OverflowError`` before any sum or product is taken.
    """
    rank, codes, N = table.rank, table.codes, table.N

    def largest(a):  # max |entry| in Python ints: np.abs wraps at -2^63
        return max(int(a.max(initial=0)), -int(a.min(initial=0)))

    big = max(map(largest, (N, table.cartan, table.coroots)))
    # a Jacobi sum has three terms, each at most rank * big^2; a weight is three codes
    if max(3 * max(rank, 1) * big * big, 3 * largest(codes)) >= _INT64_SAFE:
        raise OverflowError("Jacobi sums of this table could overflow int64")
    total = root_index(codes, codes[:, None] + codes[None, :])  # index of a + b, or -1
    off = np.argwhere((N != 0) & (total < 0))
    if off.size:
        a, b = off[0]
        return JacobiReport(False, 0, (("x", table.roots[a]), ("x", table.roots[b])))

    nb, nr = rank + len(codes), len(codes)
    xs = np.arange(rank, nb)
    neg = root_index(codes, -codes)
    paired = np.flatnonzero(neg >= 0)  # roots a with -a a root: (rank + a, opposite) is x_a, x_-a
    opposite = rank + neg[paired]
    # [e_p, e_q] = c[p, q] e_t[p, q]; row nb + a of c is h_a = [x_a, x_-a] acting on x_r
    c = np.zeros((nb + nr, nb), dtype=np.int64)
    t = np.zeros((nb, nb), dtype=np.int64)
    c[:rank, rank:] = table.cartan.T  # [h_i, x_a] = <a, a_i> x_a
    c[rank:nb, :rank] = -table.cartan
    c[rank:nb, rank:] = N
    c[rank + paired, opposite] = 1
    c[nb:, rank:] = table.coroots @ table.cartan.T  # <r, a^v>
    t[:rank, rank:] = xs
    t[rank:, :rank] = xs[:, None]
    t[rank:, rank:] = rank + np.maximum(total, 0)  # c is 0 where no root sum
    t[rank + paired, opposite] = nb + paired
    V = np.zeros((nb + nr, rank), dtype=np.int64)  # the h-part of e_t: h_a for a root a
    V[rank:nb] = table.coroots
    c, t = c.ravel(), t.ravel()

    def term(p, q, r):
        """[[e_p, e_q], e_r] on x_w, as a column, for root-weight triples."""
        pq = p * nb + q
        return (c[pq] * c[t[pq] * nb + r])[:, None]

    def h_term(p, q, r):
        """[[e_p, e_q], e_r] in h, for weight-0 triples."""
        pq = p * nb + q
        return c[pq][:, None] * V[t[pq]]

    w = np.zeros(nb, dtype=np.int64)
    w[rank:] = codes
    tj, tk = np.triu_indices(nb)  # the pairs j <= k in scan order
    weights, wid = np.unique(w[tj] + w[tk], return_inverse=True)
    key = wid * nb + (nb - 1 - tj)  # by weight, then j descending
    order = np.argsort(key, kind="stable")
    key = key[order]
    # (i, weight) -> the pair weight needed; column 0 is weight 0, and the root weights
    # ascend, so that the searches below step through each row in order
    want = np.append(0, np.sort(codes))[None, :] - w[:, None]
    loc = np.minimum(np.searchsorted(weights, want), len(weights) - 1)
    lo = np.searchsorted(key, loc * nb)
    hi = np.searchsorted(key, loc * nb + (nb - 1 - np.arange(nb))[:, None], side="right")
    count = np.where(weights[loc] == want, hi - lo, 0)
    first = np.searchsorted(tj, np.arange(nb))  # i's triples are the pairs from first[i]
    before = np.concatenate(([0], np.cumsum(len(tj) - first)))  # triples with a smaller i
    done = np.concatenate(([0], np.cumsum(count.sum(axis=1))))  # evaluated, i below
    i0 = 0
    while i0 < nb:
        i1 = max(i0 + 1, int(np.searchsorted(done, done[i0] + _CHUNK, side="right")) - 1)
        bad = []  # per weight class, the failing triple of least scan index
        for cols, evaluate in ((slice(1, None), term), (slice(0, 1), h_term)):
            n = count[i0:i1, cols]
            pair = order[_ranges(lo[i0:i1, cols].ravel(), n.ravel())]
            I = np.repeat(np.arange(i0, i1), n.sum(axis=1))
            J, K = tj[pair], tk[pair]
            sums = evaluate(I, J, K) + evaluate(J, K, I) + evaluate(K, I, J)
            at = np.flatnonzero(sums.any(axis=1))
            if at.size:
                scan = before[I[at]] + pair[at] - first[I[at]]
                e = at[np.argmin(scan)]
                bad.append((int(scan.min()), int(I[e]), int(J[e]), int(K[e])))
        if bad:
            scan, *triple = min(bad)
            labels = [("h", e) if e < rank else ("x", table.roots[e - rank]) for e in triple]
            return JacobiReport(False, scan + 1, tuple(labels))
        i0 = i1
    return JacobiReport(True, int(before[nb]), None)