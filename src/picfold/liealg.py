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

The Jacobi check uses the root grading (Carter, *Simple Groups of Lie
Type*, ch. 4): give h_i weight 0 and x_a weight a.  Every bracket of two
basis vectors lies in the span of the basis vectors of the summed
weight, so every term of the Jacobi sum of a triple lies in weight
w_1 + w_2 + w_3.  When that weight is neither a root nor zero no basis
vector has it, and the sum is zero.  ``verify_jacobi`` evaluates only
the other triples, in the order of the full i <= j <= k scan, and its
``triples_checked`` counts every basis triple of that scan up to the
result: the skipped ones are certified zero, not left out.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from .cases import case_lattice, case_rank, case_spec
from .folding import folded_root_system
from .lattice import DivisorClass, IntersectionLattice
from .rootsys import RootSystemData, SimpleSystem, basis_coordinates


class StructureConstantError(ValueError):
    """A root system or simple system admits no Chevalley table as given."""


def root_string(lat_or_rs, alpha: DivisorClass, beta: DivisorClass, roots=None):
    """(r, q): beta - r alpha ... beta + q alpha is the alpha-string through beta."""
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
    roots = set(rs.roots)
    srl = list(simple.roots)

    listed = sorted(roots)
    cols = basis_coordinates(np.array([rt.coords for rt in srl], dtype=np.int64).T,
                             np.array([rt.coords for rt in listed], dtype=np.int64).T)
    coords = dict(zip(listed, map(tuple, cols.T.tolist())))
    for c in coords.values():
        if not (all(v >= 0 for v in c) or all(v <= 0 for v in c)):
            raise StructureConstantError(
                "root is neither positive nor negative for the given simple system")
    positive = sorted(
        (rt for rt in roots if all(v >= 0 for v in coords[rt])),
        key=lambda rt: (sum(coords[rt]), coords[rt]),
    )
    index = {rt: i for i, rt in enumerate(positive)}
    norm = {rt: lat.pair(rt, rt) for rt in roots}
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
        height = sum(coords[gamma])
        if height == 1:
            continue
        decomps = []
        for alpha in positive:
            if index[alpha] >= index[gamma]:
                break
            beta = gamma - alpha
            if beta in roots and beta in index:
                decomps.append((alpha, beta))
        a0, b0 = decomps[0]  # minimal first member: the extraspecial pair
        r0, _ = root_string(None, a0, b0, roots=roots)
        pos_n[(a0, b0)] = r0 + 1
        extraspecial.add((a0, b0))
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
                    f"sign-propagation conflict at {alpha}, {beta}")
            pos_n[(alpha, beta)] = val

    n_map = {}
    for a in roots:
        for b in roots:
            if a + b in roots:
                n_map[(a, b)] = n_any(a, b)

    cartan = {(rt, i): exact(2 * lat.pair(rt, si), lat.pair(si, si),
                             "non-integral Cartan pairing of {}", rt)
              for rt in roots for i, si in enumerate(srl)}

    # a = sum c_i a_i gives a^v = 2a/(a,a) = sum c_i (a_i,a_i)/(a,a) a_i^v
    coroot_coords = {
        rt: tuple(exact(c * norm[si], norm[rt], "coroot of {} is not integral", rt)
                  for c, si in zip(coords[rt], srl))
        for rt in listed
    }

    return StructureConstantTable(
        lattice=lat,
        simple=simple,
        roots=tuple(listed),
        positive=tuple(positive),
        n_map=n_map,
        cartan=cartan,
        coroot_coords=coroot_coords,
        extraspecial=frozenset(extraspecial),
    )


def _bracket_basis(table: StructureConstantTable, e1, e2):
    k1, v1 = e1
    k2, v2 = e2
    if k1 == "h" and k2 == "h":
        return {}
    if k1 == "h" and k2 == "x":
        return {("x", v2): table.cartan[(v2, v1)]}
    if k1 == "x" and k2 == "h":
        return {("x", v1): -table.cartan[(v1, v2)]}
    s = v1 + v2
    if all(c == 0 for c in s.coords):
        return {("h", i): c for i, c in enumerate(table.coroot_coords[v1]) if c}
    n = table.n_map.get((v1, v2), 0)
    return {("x", s): n} if n else {}


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
    with that pair as ``first_failure`` and no triple checked.
    """
    roots = set(table.roots)
    for a, b in table.n_map:
        if a not in roots or b not in roots or a + b not in roots:
            return JacobiReport(False, 0, (("x", a), ("x", b)))
    basis = [("h", i) for i in range(table.rank)]
    basis += [("x", rt) for rt in table.roots]
    index = {b: n for n, b in enumerate(basis)}
    # weights as integers in base 6m + 1: a linear code, injective on the
    # sums of three weights, whose coordinates lie in [-3m, 3m]
    m = max((abs(c) for rt in table.roots for c in rt.coords), default=0)
    base = 6 * m + 1

    def code(v):
        return sum(c * base**t for t, c in enumerate(v.coords))

    weight = [0] * table.rank + [code(rt) for rt in table.roots]
    allowed = {0} | {code(rt) for rt in table.roots}

    brackets: dict = {}

    def bracket(p, q):
        """[e_p, e_q] as (basis index, coefficient) pairs, memoized."""
        out = brackets.get((p, q))
        if out is None:
            out = [(index[key], c)
                   for key, c in _bracket_basis(table, basis[p], basis[q]).items()]
            brackets[(p, q)] = out
        return out

    def double(acc, p, q, r):
        """Add [[e_p, e_q], e_r] into acc."""
        for n, c1 in bracket(p, q):
            for key, c2 in bracket(n, r):
                acc[key] = acc.get(key, 0) + c1 * c2

    checked = 0
    nb = len(basis)
    for i in range(nb):
        for j in range(i, nb):
            wij = weight[i] + weight[j]
            for k in range(j, nb):
                checked += 1
                if wij + weight[k] not in allowed:
                    continue
                acc: dict = {}
                double(acc, i, j, k)
                double(acc, j, k, i)
                double(acc, k, i, j)
                if any(v != 0 for v in acc.values()):
                    return JacobiReport(False, checked, (basis[i], basis[j], basis[k]))
    return JacobiReport(True, checked, None)


@dataclass(frozen=True)
class GradedBundleDecomposition:
    trivial_rank: int
    summands: tuple[DivisorClass, ...]


def build_lie_bundle(case: str, lat: IntersectionLattice | None = None) -> GradedBundleDecomposition:
    """Trivial part of rank = folded rank, one line summand per root."""
    lat = lat or case_lattice(case)
    rs = folded_root_system(case, lat)
    return GradedBundleDecomposition(case_rank(case), tuple(sorted(rs.roots)))


def folded_simple_and_roots(case: str, lat: IntersectionLattice | None = None):
    """Convenience: (RootSystemData, SimpleSystem) for a folded case."""
    from .rootsys import standard_simple_system

    lat = lat or case_lattice(case)
    rs = folded_root_system(case, lat)
    delta = standard_simple_system(case_spec(case).family, lat)
    return rs, delta
