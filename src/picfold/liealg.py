"""Chevalley structure constants for the divisor-level root systems.

Brackets follow the four classical relations on a Chevalley basis
{h_1..h_n, x_a}: [h_i h_j] = 0, [h_i x_a] = <a, a_i> x_a,
[x_a x_-a] = h_a, and [x_a x_b] = N(a, b) x_{a+b} with |N| = r + 1,
r the length of the a-string below b.

Sign determination: positive roots are ordered by height (ties broken
lexicographically); for each non-simple positive root the extraspecial
pair gets N = +(r+1); every other constant follows from the two
invariant-form identities

    a + b + c = 0       =>  N(a,b)/(c,c) = N(b,c)/(a,a) = N(c,a)/(b,b)
    a + b + c + d = 0   =>  sum of N(a,b)N(c,d)/(a+b, a+b) over the
                            three pairings vanishes

together with N(a,b) = -N(b,a) = -N(-a,-b).  Any consistent convention
yields an isomorphic algebra; the Jacobi check is the arbiter.

Everything is computed in Python ints (Carter, ch. 4: root coordinates,
coroots and constants of a Chevalley basis are integers).  The root
coordinates come from one integer change of basis,
``rootsys.basis_coordinates``.  The four-root identity is summed over
the lcm of the root norms, where each of its terms is an integer; each
coroot coordinate is c_i (a_i, a_i) / (a, a) for a = sum c_i a_i.  Every
division is checked, and a remainder raises ``StructureConstantError``.

Roots are integer codes (``root_codes``): coordinates c_t become
sum c_t B^t in base B = 6m + 1, m the largest |c_t| of a root.  The code
is linear and injective on vectors with coordinates in [-3m, 3m], so a
sum or difference of two or three roots is a root exactly when its code
is a root's code.  The height recursion, the ``n_map`` sweep and the
root strings run on codes in int-keyed dicts and sets.

The Jacobi check uses the root grading (Carter, *Simple Groups of Lie
Type*, ch. 4): give h_i weight 0 and x_a weight a.  Every bracket of two
basis vectors lies in the span of the basis vectors of the summed
weight, so the Jacobi sum of a triple lies in weight w = w_1 + w_2 + w_3.
When w is neither a root nor zero no basis vector has it, and the sum is
zero.  When w is a root the sum is a scalar on x_w; when w = 0 it is a
vector in h, of length the rank.

``verify_jacobi`` reads the table into (nb, nb) int64 arrays over the
basis (the h_i, then the roots in order): [e_p, e_q] = c[p, q] e_t[p, q]
unless p, q are opposite roots, H[p, r] = <r, p^v> is h_p acting on x_r,
and V holds the coroot rows.  A cyclic term [[e_p, e_q], e_r] of a
root-weight triple is c[p, q] c[t[p, q], r], or H[p, r] when p and q are
opposite.  A term of a weight-0 triple is c[p, q] V[t[p, q]]: by the
grading, t[p, q] is opposite to r whenever c[p, q] is not zero, and when
p, q are opposite r is some h_i, which commutes with h_p.  The triples
i <= j <= k are generated in slabs of whole i values, each of at most
``_SLAB`` triples unless one i alone has more, so memory stays bounded
and no full triple grid is built.  Slabs keep the order of the full
scan, and ``triples_checked`` counts every basis triple of that scan up
to the result: the skipped ones are certified zero, not left out.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from .lattice import DivisorClass, IntersectionLattice
from .rootsys import _INT64_SAFE, RootSystemData, SimpleSystem, basis_coordinates

_SLAB = 1 << 14  # triples per slab of the Jacobi scan


class StructureConstantError(ValueError):
    """A root system or simple system admits no Chevalley table as given."""


def root_codes(roots) -> dict:
    """Root -> its integer code in base 6m + 1 (module docstring), in the given order."""
    m = max((abs(c) for rt in roots for c in rt.coords), default=0)
    base = 6 * m + 1
    return {rt: sum(c * base**t for t, c in enumerate(rt.coords)) for rt in roots}


def root_string(lat_or_rs, alpha, beta, roots=None):
    """(r, q): beta - r alpha ... beta + q alpha is the alpha-string through beta.

    alpha and beta are classes, or root codes with ``roots`` a set of codes.
    """
    if roots is None:
        roots = set(lat_or_rs.roots)
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


@dataclass
class StructureConstantTable:
    lattice: IntersectionLattice
    simple: SimpleSystem
    roots: tuple[DivisorClass, ...]
    positive: tuple[DivisorClass, ...]
    n_map: dict
    cartan: dict
    coroot_coords: dict
    extraspecial: frozenset

    @property
    def rank(self) -> int:
        return len(self.simple.roots)

    def n(self, a: DivisorClass, b: DivisorClass) -> int:
        return self.n_map.get((a, b), 0)


def structure_constants(rs: RootSystemData, simple: SimpleSystem) -> StructureConstantTable:
    lat = rs.ambient
    srl = list(simple.roots)
    listed = sorted(rs.roots)
    code = root_codes(listed)
    cls = {v: rt for rt, v in code.items()}
    roots = set(cls)

    cols = basis_coordinates(np.array([rt.coords for rt in srl], dtype=np.int64).T,
                             np.array([rt.coords for rt in listed], dtype=np.int64).T)
    coords = dict(zip(cls, map(tuple, cols.T.tolist())))
    for c in coords.values():
        if not (all(v >= 0 for v in c) or all(v <= 0 for v in c)):
            raise StructureConstantError(
                "root is neither positive nor negative for the given simple system")
    positive = sorted(
        (a for a in roots if all(v >= 0 for v in coords[a])),
        key=lambda a: (sum(coords[a]), coords[a]),
    )
    index = {a: i for i, a in enumerate(positive)}
    norm = {code[rt]: lat.pair(rt, rt) for rt in listed}
    scale = lcm(*norm.values())  # each term of the four-root identity is an integer over it

    def exact(num, den, message, *args):
        q, r = divmod(num, den)
        if r:
            raise StructureConstantError(message.format(*args))
        return q

    pos_n: dict[tuple, int] = {}
    extraspecial = set()

    def n_pos(a, b):
        """N for a positive pair, via the table and antisymmetry."""
        if index[a] < index[b]:
            return pos_n[(a, b)]
        return -pos_n[(b, a)]

    def n_any(a, b):
        s = a + b
        if s not in roots:
            return 0
        a_pos, b_pos = a in index, b in index
        if a_pos and b_pos:
            return n_pos(a, b)
        if not a_pos and not b_pos:
            return -n_any(-a, -b)
        if a_pos and not b_pos:
            if s in index:
                num, den = -n_any(-b, s) * norm[s], norm[a]
            else:
                num, den = n_any(-s, a) * norm[s], norm[b]
            return exact(num, den, "a structure constant is not an integer")
        return -n_any(b, a)

    for gamma in positive:
        if sum(coords[gamma]) == 1:
            continue
        decomps = [(alpha, gamma - alpha) for alpha in positive[:index[gamma]]
                   if gamma - alpha in index]
        a0, b0 = decomps[0]  # minimal first member: the extraspecial pair
        r0, _ = root_string(None, a0, b0, roots=roots)
        pos_n[(a0, b0)] = r0 + 1
        extraspecial.add((cls[a0], cls[b0]))
        for alpha, beta in decomps[1:]:
            if index[alpha] >= index[beta]:
                continue  # stored once per unordered pair
            terms = 0  # scale times the sum over the two other pairings
            if b0 - alpha in roots:
                terms += n_any(b0, -alpha) * n_any(a0, -beta) * (scale // norm[b0 - alpha])
            if a0 - alpha in roots:
                terms += n_any(-alpha, a0) * n_any(b0, -beta) * (scale // norm[a0 - alpha])
            val = exact(norm[gamma] * terms, scale * pos_n[(a0, b0)],
                        "sign propagation produced a non-integer")
            r, _ = root_string(None, alpha, beta, roots=roots)
            if abs(val) != r + 1:
                raise StructureConstantError(
                    f"sign-propagation conflict at {cls[alpha]}, {cls[beta]}")
            pos_n[(alpha, beta)] = val

    n_map = {(cls[a], cls[b]): n_any(a, b) for a in cls for b in cls if a + b in roots}

    cartan = {(rt, i): exact(2 * lat.pair(rt, si), norm[code[si]],
                             "non-integral Cartan pairing of {}", rt)
              for rt in listed for i, si in enumerate(srl)}

    # a = sum c_i a_i gives a^v = 2a/(a,a) = sum c_i (a_i,a_i)/(a,a) a_i^v
    coroot_coords = {
        rt: tuple(exact(c * norm[code[si]], norm[a], "coroot of {} is not integral", rt)
                  for c, si in zip(coords[a], srl))
        for rt, a in code.items()
    }

    return StructureConstantTable(
        lattice=lat,
        simple=simple,
        roots=tuple(listed),
        positive=tuple(cls[a] for a in positive),
        n_map=n_map,
        cartan=cartan,
        coroot_coords=coroot_coords,
        extraspecial=frozenset(extraspecial),
    )


@dataclass(frozen=True)
class JacobiReport:
    ok: bool
    triples_checked: int
    first_failure: tuple | None


def verify_jacobi(table: StructureConstantTable) -> JacobiReport:
    """Jacobi identity over every basis triple (h's and root vectors).

    Triples whose weight is neither a root nor zero vanish by the grading
    (module docstring): they are counted in ``triples_checked`` but not
    evaluated.  The grading needs every key (a, b) of ``n_map`` to have a,
    b and a + b in the root set; a table that breaks this fails at once,
    with that pair as ``first_failure`` and no triple checked.  A table
    whose constants or root codes could overflow an int64 Jacobi sum
    raises ``OverflowError`` before any product is taken.
    """
    rank = table.rank
    code = root_codes(table.roots)
    values = list(code.values())
    pos = {v: rank + s for s, v in enumerate(values)}  # root code -> basis index
    keys = [(code.get(a), code.get(b)) for a, b in table.n_map]
    for (a, b), (u, v) in zip(table.n_map, keys):
        if u is None or v is None or u + v not in pos:
            return JacobiReport(False, 0, (("x", a), ("x", b)))
    consts = [*table.n_map.values(), *table.cartan.values(),
              *(c for cs in table.coroot_coords.values() for c in cs)]
    big = max(map(abs, consts), default=0)
    # a Jacobi sum has three terms, each at most rank * big^2; a weight is three codes
    if max(3 * max(rank, 1) * big * big, 3 * max(map(abs, values), default=0)) >= _INT64_SAFE:
        raise OverflowError("Jacobi sums of this table could overflow int64")

    nb = rank + len(values)
    c = np.zeros((nb, nb), dtype=np.int64)
    t = np.zeros((nb, nb), dtype=np.int64)
    p, q, s = np.array([(pos[u], pos[v], pos[u + v]) for u, v in keys],
                       dtype=np.int64).reshape(-1, 3).T
    c[p, q] = list(table.n_map.values())
    t[p, q] = s
    cart = np.zeros((nb, rank), dtype=np.int64)
    cart[rank:] = [[table.cartan[(rt, i)] for i in range(rank)] for rt in table.roots]
    V = np.zeros((nb, rank), dtype=np.int64)
    V[rank:] = [table.coroot_coords[rt] for rt in table.roots]
    xs = np.arange(rank, nb)
    c[:rank, rank:] = cart[rank:].T  # [h_i, x_a] = <a, a_i> x_a
    c[rank:, :rank] = -cart[rank:]
    t[:rank, rank:] = xs
    t[rank:, :rank] = xs[:, None]
    neg = np.full(nb, -1)
    neg[rank:] = [pos.get(-v, -1) for v in values]
    H = V @ cart.T
    w = np.zeros(nb, dtype=np.int64)
    w[rank:] = values
    allowed = np.sort(np.append(w[rank:], 0))

    def term(p, q, r):
        """[[e_p, e_q], e_r] on x_w, for root-weight triples."""
        return c[p, q] * c[t[p, q], r] + np.where(neg[p] == q, H[p, r], 0)

    def h_term(p, q, r):
        """[[e_p, e_q], e_r] in h, for weight-0 triples."""
        return c[p, q][:, None] * V[t[p, q]]

    tj, tk = np.triu_indices(nb)  # the pairs j <= k in scan order
    first = np.searchsorted(tj, np.arange(nb))  # i's triples are the pairs from first[i]
    before = np.concatenate(([0], np.cumsum(len(tj) - first)))  # triples with a smaller i
    i0 = 0
    while i0 < nb:
        i1 = max(i0 + 1, int(np.searchsorted(before, before[i0] + _SLAB, side="right")) - 1)
        sel = np.concatenate([np.arange(first[i], len(tj)) for i in range(i0, i1)])
        I, J, K = np.repeat(np.arange(i0, i1), len(tj) - first[i0:i1]), tj[sel], tk[sel]
        wt = w[I] + w[J] + w[K]
        hit = allowed[np.minimum(np.searchsorted(allowed, wt), len(allowed) - 1)] == wt
        at_root = np.flatnonzero(hit & (wt != 0))
        at_zero = np.flatnonzero(wt == 0)
        a, b, d = I[at_root], J[at_root], K[at_root]
        bad_root = at_root[(term(a, b, d) + term(b, d, a) + term(d, a, b)) != 0]
        a, b, d = I[at_zero], J[at_zero], K[at_zero]
        bad_zero = at_zero[(h_term(a, b, d) + h_term(b, d, a) + h_term(d, a, b)).any(axis=1)]
        bad = np.concatenate((bad_root, bad_zero))
        if bad.size:
            n = int(bad.min())
            labels = [("h", int(e)) if e < rank else ("x", table.roots[e - rank])
                      for e in (I[n], J[n], K[n])]
            return JacobiReport(False, int(before[i0]) + n + 1, tuple(labels))
        i0 = i1
    return JacobiReport(True, int(before[nb]), None)

