"""Weight multisets of representation bundles and their curve restrictions.

A restricted line bundle is encoded as (degree, point): degree is the
pairing with the anticanonical class, the point is the image under the
normalized restriction map (identity section and fiber classes restrict
to the group identity).  Tensoring adds both entries, duals negate.

The spinor identifications are degree-sensitive: both sides of a claimed
isomorphism must carry the same summand degrees, which pins down the
twisting class.  The published vector/spinor comparisons for the
triality case only balance with the twists O(-l4), resp. O(s - l4); the
exhaustive searches below confirm those twisted identities hold exactly
on the constrained point locus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from ._linalg import rational_solve
from .abelian import SigmaModel
from .cases import case_spec, holds
from .folding import f4_short_roots, fixed_sublattice, outer_automorphism
from .lattice import SELF, DivisorClass, IntersectionLattice, enumerate_classes
from .moduli import PointAssignment, u_point


class ConstraintViolatedError(ValueError):
    pass


@dataclass(frozen=True)
class WeightBundle:
    name: str
    summands: tuple[DivisorClass, ...]

    @property
    def rank(self) -> int:
        return len(self.summands)


_F1_KINDS = {
    "vector": ((SELF, -1), ("K", -1), ("f", 0)),
    "spinor_plus": ((SELF, -1), ("K", -1), ("f", 1)),
    "spinor_minus": ((SELF, -2), ("K", 0), ("f", 1)),
    "standard": ((SELF, -1), ("K", -1), ("f", 0), ("s", 0)),
}


def weight_bundle(kind: str, lat: IntersectionLattice) -> WeightBundle:
    """The weight-class multiset of a named representation bundle."""
    if kind == "lines":
        summands = enumerate_classes(lat, [(SELF, -1), (lat.K, -1)])
        if len(summands) != 27:
            raise ValueError(f"{len(summands)} lines, not 27: not the cubic surface")
        return WeightBundle(kind, summands)
    if kind not in _F1_KINDS:
        raise ValueError(f"unknown bundle kind {kind!r}")
    named = {"K": lat.K, "f": lat.f, "s": lat.s}
    constraints = [
        (c if c == SELF else named[c], v) for c, v in _F1_KINDS[kind]
    ]
    summands = enumerate_classes(lat, constraints)
    m = lat.npoints
    expected = {"vector": 2 * m, "spinor_plus": 2 ** (m - 1),
                "spinor_minus": 2 ** (m - 1), "standard": m}[kind]
    if len(summands) != expected:
        raise ValueError(f"{kind}: {len(summands)} summands, not {expected}")
    return WeightBundle(kind, summands)


def restrict_bundle(bundle: WeightBundle, lat: IntersectionLattice,
                    pa: PointAssignment) -> tuple:
    """Sorted multiset of (degree, point) pairs of the restricted summands."""
    return tuple(sorted((lat.deg(d), u_point(lat, pa, d)) for d in bundle.summands))


def tensor_line(restricted, twist, sigma) -> tuple:
    d0, p0 = twist
    return tuple(sorted((d + d0, sigma.add(p, p0)) for d, p in restricted))


def dual(restricted, sigma) -> tuple:
    return tuple(sorted((-d, sigma.neg(p)) for d, p in restricted))


def line_class_of(lat: IntersectionLattice, pa: PointAssignment, d: DivisorClass):
    return (lat.deg(d), u_point(lat, pa, d))


def check_identification(lhs, rhs) -> bool:
    """Multiset equality of restricted summand data."""
    return tuple(sorted(lhs)) == tuple(sorted(rhs))


def twisted_identity(lat, pa, lhs_kind: str, twist: DivisorClass | None,
                     rhs_kind: str) -> bool:
    """Whether lhs ⊗ O(twist) and rhs restrict to the same multiset."""
    lhs = restrict_bundle(weight_bundle(lhs_kind, lat), lat, pa)
    if twist is not None:
        lhs = tensor_line(lhs, line_class_of(lat, pa, twist), pa.sigma)
    rhs = restrict_bundle(weight_bundle(rhs_kind, lat), lat, pa)
    return check_identification(lhs, rhs)


def wedge_power(bundle: WeightBundle, i: int) -> WeightBundle:
    """Summands are all i-fold sums of distinct summands."""
    if not 1 <= i <= bundle.rank:
        raise ValueError("wedge power out of range")
    sums = []
    for combo in combinations(range(bundle.rank), i):
        acc = bundle.summands[combo[0]]
        for t in combo[1:]:
            acc = acc + bundle.summands[t]
        sums.append(acc)
    return WeightBundle(f"wedge{i}({bundle.name})", tuple(sorted(sums)))


# ---------------------------------------------------------------------------
# exhaustive loci over finite groups (vectorized)


def _encoded_points(x1, x2, coeffs, sigma):
    """(N, k) array of encoded points 'sum_j coeffs[k][j] x_j'."""
    c = np.asarray(coeffs, dtype=np.int64)
    return (x1 @ c.T % sigma.m1) * sigma.m2 + (x2 @ c.T % sigma.m2)


def _side_matrix(lat, bundle_summands, twist=None):
    rows = []
    for d in bundle_summands:
        if twist is not None:
            d = d + twist
        rows.append(lat.l_coeffs(d))
    return rows


def _sorted_eq(a, b):
    return np.all(np.sort(a, axis=1) == np.sort(b, axis=1), axis=1)


def spinor_locus(lat: IntersectionLattice, sigma: SigmaModel):
    """Masks over Sigma^m: twisted spinor identity per index, and x_i = 0.

    Returns (per_index_identity, per_index_zero): two boolean arrays of
    shape (m, N) where row i states 'spinor_plus ⊗ O(-l_{i+1}) matches
    spinor_minus', resp. 'x_{i+1} = 0', for every point tuple.
    """
    m = lat.npoints
    x1, x2 = sigma.point_grids(m)
    n = x1.shape[0]
    sp = weight_bundle("spinor_plus", lat)
    sm = weight_bundle("spinor_minus", lat)
    rhs = _encoded_points(x1, x2, _side_matrix(lat, sm.summands), sigma)
    ident = np.zeros((m, n), dtype=bool)
    zero = np.zeros((m, n), dtype=bool)
    for i in range(m):
        coeffs = _side_matrix(lat, sp.summands, twist=-lat.l(i + 1))
        lhs = _encoded_points(x1, x2, coeffs, sigma)
        ident[i] = _sorted_eq(lhs, rhs)
        zero[i] = (x1[:, i] == 0) & (x2[:, i] == 0)
    return ident, zero


def g2_triple_locus(lat: IntersectionLattice, sigma: SigmaModel):
    """Masks over Sigma^4 for the three twisted triality identities.

    Returns a dict of boolean arrays: 'sp_sm' (spinor identity with
    twist -l1), 'w_sp' (vector identity: spinor_plus = vector ⊗
    O(s - l4)), 'w_sm' (vector ⊗ O(-l4) = spinor_minus), 'x1_zero',
    'x4_sum' (x4 = x2 + x3).
    """
    m = lat.npoints
    x1, x2 = sigma.point_grids(m)
    sp = weight_bundle("spinor_plus", lat)
    sm = weight_bundle("spinor_minus", lat)
    w = weight_bundle("vector", lat)
    enc = lambda summands, twist=None: _encoded_points(
        x1, x2, _side_matrix(lat, summands, twist), sigma
    )
    out = {
        "sp_sm": _sorted_eq(enc(sp.summands, -lat.l(1)), enc(sm.summands)),
        "w_sp": _sorted_eq(enc(w.summands, lat.s - lat.l(4)), enc(sp.summands)),
        "w_sm": _sorted_eq(enc(w.summands, -lat.l(4)), enc(sm.summands)),
        "x1_zero": (x1[:, 0] == 0) & (x2[:, 0] == 0),
        "x4_sum": ((x1[:, 3] - x1[:, 1] - x1[:, 2]) % sigma.m1 == 0)
        & ((x2[:, 3] - x2[:, 1] - x2[:, 2]) % sigma.m2 == 0),
    }
    return out


def wedge_locus(lat: IntersectionLattice, sigma: SigmaModel):
    """Masks over zero-sum tuples in Sigma^{2n} for the wedge identity.

    Returns (identity, paired): 'standard ⊗ O((n-i) f) matches
    wedge^{2n-i}(standard)' for i = 1, and 'the point multiset is
    symmetric under negation' (the pairing condition up to renumbering).
    """
    m = lat.npoints
    x1, x2 = sigma.point_grids(m - 1)
    x1 = np.hstack([x1, (-x1.sum(axis=1, keepdims=True)) % sigma.m1])
    x2 = np.hstack([x2, (-x2.sum(axis=1, keepdims=True)) % sigma.m2])
    v = weight_bundle("standard", lat)
    n = m // 2
    i = 1
    lhs_rows = _side_matrix(lat, v.summands)  # f adds no l-coefficients
    top = wedge_power(v, 2 * n - i)
    rhs_rows = _side_matrix(lat, top.summands)
    lhs = _encoded_points(x1, x2, lhs_rows, sigma)
    rhs = _encoded_points(x1, x2, rhs_rows, sigma)
    identity = _sorted_eq(lhs, rhs)
    negated = ((-x1) % sigma.m1) * sigma.m2 + ((-x2) % sigma.m2)
    plain = x1 * sigma.m2 + x2
    paired = _sorted_eq(plain, negated)
    return identity, paired, (x1, x2)


# ---------------------------------------------------------------------------
# the 27-line decomposition under the folding constraint


@dataclass(frozen=True)
class F4RepDecomposition:
    zero_lines: tuple[DivisorClass, ...]
    common_class: tuple
    short_root_map: dict
    trace_kernel_rank: int
    kernel_det: tuple


def _fixed_part_projection(lat: IntersectionLattice):
    rho = outer_automorphism("E6", lat)
    basis = fixed_sublattice(rho)
    bmat = [[b.coords[i] for b in basis] for i in range(lat.rank)]
    gram = [[lat.pair(a, b) for b in basis] for a in basis]

    def project_doubled(x: DivisorClass) -> DivisorClass:
        rhs = [lat.pair(x, b) for b in basis]
        sol = rational_solve(gram, rhs)
        out = [Fraction(0)] * lat.rank
        for c, b in zip(sol, basis):
            for t in range(lat.rank):
                out[t] += 2 * c * b.coords[t]
        if any(v.denominator != 1 for v in out):
            raise ValueError("doubled projection is not integral")
        return DivisorClass(tuple(int(v) for v in out))

    return project_doubled


def f4_rep_decomposition(lat: IntersectionLattice, pa: PointAssignment) -> F4RepDecomposition:
    """Split the 27 lines as 3 + 24 under the three-way sum constraint.

    The three lines through the triple point restrict to one common
    degree-1 class whose classes sum to the anticanonical class; the
    remaining 24 project (doubled, onto the fixed sublattice) to the 24
    short roots, and their restrictions are compatible: the image root
    restricts to twice the line's class relative to the common one.
    """
    s = pa.sigma
    x = pa.points
    if len(x) != 6 or not holds(case_spec("F4").relations, s, x):
        raise ConstraintViolatedError("points do not satisfy the three-way sum")
    p = s.add(x[0], x[5])
    h, l = lat.h, lat.l
    zero_lines = (h - l(1) - l(6), h - l(2) - l(5), h - l(3) - l(4))
    common = (1, s.neg(p))
    total = lat.zero
    for e in zero_lines:
        if line_class_of(lat, pa, e) != common:
            raise AssertionError(f"{e} does not restrict to the common class {common}")
        total = total + e
    if total != -lat.K:
        raise AssertionError("the three zero lines do not sum to -K")

    project = _fixed_part_projection(lat)
    shorts = set(f4_short_roots(lat))
    lines = weight_bundle("lines", lat).summands
    short_map = {}
    for e in lines:
        img = project(e)
        if e in zero_lines:
            if img != lat.zero:
                raise AssertionError(f"projection of the zero line {e} is {img}")
            continue
        if img not in shorts:
            raise AssertionError(f"projection of {e} is not a short root")
        short_map[e] = img
        # compatibility between the two levels of restriction data
        rel = s.add(u_point(lat, pa, e), p)
        if u_point(lat, pa, img) != s.scale(2, rel):
            raise AssertionError(f"restriction of {img} is not twice that of {e}")
    if len(short_map) != 24 or set(short_map.values()) != shorts:
        raise AssertionError("the 24 lines do not project onto the 24 short roots")
    det = (2, s.scale(-2, p))
    return F4RepDecomposition(zero_lines, common, short_map, 2, det)
