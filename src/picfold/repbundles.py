"""Weight multisets of representation bundles and their curve restrictions.

A weight bundle is the sorted tuple of its summand classes
(``weight_bundle``, ``wedge_power``), and its rank is its length.

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

The searches share one integer kernel, ``_locus_masks``.  A summand's
point is a linear form in the blow-up points, and a twisted summand's
form is the sum of the two (-x_i for -l_i; s and f restrict to 0).
The degree multisets of two compared sides are checked once (a mismatch
raises), and the (degree, form) summands the sides share are cancelled.
Sigma^k is walked chunk by chunk through ``SigmaModel.form_chunks``,
which yields each distinct form as one row of point codes a m2 + b; the
rest of each side is compared per degree after Batcher's odd-even merge
network (*Sorting networks and their applications*, 1968), whose
comparators write into buffers kept for the walk.  A relation side
R x = 0 is a block of forms whose codes must vanish.  Every walk is
checked against its cap before anything is allocated
(``SigmaModel.tuple_count``).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from ._linalg import integer_left_inverse
from .abelian import SigmaModel
from .cases import holds
from .folding import case_points, f4_short_roots, fixed_sublattice, outer_automorphism
from .lattice import SELF, DivisorClass, IntersectionLattice, enumerate_classes, gram_matrix
from .moduli import PointAssignment, u_point


class ConstraintViolatedError(ValueError):
    pass


_F1_KINDS = {
    "vector": ((SELF, -1), ("K", -1), ("f", 0)),
    "spinor_plus": ((SELF, -1), ("K", -1), ("f", 1)),
    "spinor_minus": ((SELF, -2), ("K", 0), ("f", 1)),
    "standard": ((SELF, -1), ("K", -1), ("f", 0), ("s", 0)),
}


def weight_bundle(kind: str, lat: IntersectionLattice) -> tuple[DivisorClass, ...]:
    """The weight-class multiset of a named representation bundle."""
    if kind == "lines":
        summands = enumerate_classes(lat, [(SELF, -1), (lat.K, -1)])
        if len(summands) != 27:
            raise ValueError(f"{len(summands)} lines, not 27: not the cubic surface")
        return summands
    if kind not in _F1_KINDS:
        raise ValueError(f"unknown bundle kind {kind!r}")
    named = {"K": lat.K, "f": lat.f, "s": lat.s, SELF: SELF}
    summands = enumerate_classes(lat, [(named[c], v) for c, v in _F1_KINDS[kind]])
    m = lat.npoints
    expected = {"vector": 2 * m, "spinor_plus": 2 ** (m - 1),
                "spinor_minus": 2 ** (m - 1), "standard": m}[kind]
    if len(summands) != expected:
        raise ValueError(f"{kind}: {len(summands)} summands, not {expected}")
    return summands


def restrict_bundle(bundle, lat: IntersectionLattice, pa: PointAssignment) -> tuple:
    """Sorted multiset of (degree, point) pairs of the restricted summands."""
    return tuple(sorted((lat.deg(d), u_point(lat, pa, d)) for d in bundle))


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


def twisted_identity(lat, pa, lhs_kind: str, twist: DivisorClass | None, rhs_kind: str) -> bool:
    """Whether lhs ⊗ O(twist) and rhs restrict to the same multiset."""
    lhs = restrict_bundle(weight_bundle(lhs_kind, lat), lat, pa)
    if twist is not None:
        lhs = tensor_line(lhs, line_class_of(lat, pa, twist), pa.sigma)
    rhs = restrict_bundle(weight_bundle(rhs_kind, lat), lat, pa)
    return check_identification(lhs, rhs)


def wedge_power(bundle, i: int) -> tuple[DivisorClass, ...]:
    """Summands are all i-fold sums of distinct summands."""
    if not 1 <= i <= len(bundle):
        raise ValueError("wedge power out of range")
    return tuple(sorted(sum(combo[1:], combo[0]) for combo in combinations(bundle, i)))


# ---------------------------------------------------------------------------
# exhaustive loci over finite groups (one chunked integer kernel)

@lru_cache(maxsize=None)
def _merge_network(k: int) -> tuple[tuple[int, int], ...]:
    """Batcher's odd-even merge sorting network on k wires, as (low, high) comparators.

    Built for the next power of two and restricted to the comparators on
    wires below k: the padded wires act as +inf, so the others never move
    anything (Batcher, *Sorting networks and their applications*, 1968).
    """
    n, net, p = 1 << (k - 1).bit_length(), [], 1
    while p < n:
        q = p
        while q:
            for j in range(q % p, n - q, 2 * q):
                for i in range(j, j + q):
                    if i // (2 * p) == (i + q) // (2 * p) and i + q < k:
                        net.append((i, i + q))
            q //= 2
        p *= 2
    return tuple(net)


def _sorted_rows(rows, work=None):
    """Sort every column of k rows through ``_merge_network(k)``; the rows are only read.

    Each comparator writes its min and max with ``out=`` into rows of
    ``work``, k + 1 buffers shaped like a row (allocated when None), so none
    allocates: a row whose buffer the network has already taken is
    overwritten in place, and a buffer is released when its row is
    replaced.  Returns the k sorted rows, as views of ``work`` or of the
    input rows the network never touched.
    """
    rows = list(rows)
    net = _merge_network(len(rows))
    if not net:
        return rows
    free = list(np.empty((len(rows) + 1, *rows[0].shape), rows[0].dtype) if work is None else work)
    owned = [False] * len(rows)
    for i, j in net:
        a, b = rows[i], rows[j]
        lo, hi = free.pop(), b if owned[j] else free.pop()
        np.minimum(a, b, out=lo)
        np.maximum(a, b, out=hi)
        if owned[i]:
            free.append(a)
        rows[i], rows[j] = lo, hi
        owned[i] = owned[j] = True
    return rows


def _locus_masks(lat, sigma, params, pairs, relations=(), cap=10**8):
    """Masks over t in Sigma^k, in ``SigmaModel.form_chunks`` order, with the points x = params t.

    One row per pair ((summands, twist), (summands, twist)) of sides that
    restrict alike, then one per relation block R: R x = 0.  A side is the
    multiset of its summands' (degree, form in t); the degree multisets of
    the full sides must agree (else ``ValueError``).  The summands the two
    sides share are cancelled first, which is exact: A ⊎ C = B ⊎ C as
    multisets at a point iff A = B there.  What is left is compared per
    degree, the forms' point codes sorted by a merge network into buffers
    kept for the walk; a degree with nothing left holds everywhere.  Each
    distinct form is one row of the walk's codes, read as they come.  The
    |Sigma|^k tuples are checked against ``cap`` before the masks are
    allocated (``SigmaModel.tuple_count``).
    """
    where = {}  # form in t -> its row

    def place(rows):
        forms = np.array(rows, dtype=np.int64).reshape(-1, len(params)) @ params
        return [where.setdefault(form, len(where)) for form in map(tuple, forms.tolist())]

    plan = []
    for pair in pairs:
        sides = [Counter(zip([lat.deg(d + tw) for d in summands],
                             place([lat.l_coeffs(d + tw) for d in summands]))) for summands, tw in pair]
        lhs, rhs = (sorted(deg for deg, _ in side.elements()) for side in sides)
        if lhs != rhs:
            raise ValueError(f"summand degrees {lhs} and {rhs} differ: no identification")
        left, right = sides[0] - sides[1], sides[1] - sides[0]
        plan.append([tuple(tuple(sorted(r for d, r in side.elements() if d == deg))
                           for side in (left, right))
                     for deg in sorted({d for d, _ in left})])
    vanish = [place(rows) for rows in relations]

    out = np.empty((len(plan) + len(vanish), sigma.tuple_count(params.shape[1], cap)), dtype=bool)
    forms = np.array(list(where), dtype=np.int64).reshape(len(where), -1)
    # rows of forms -> the merge network's buffers, kept for the walk: a network that
    # allocated on each comparator made the cold G2 locus 18.1 -> 21.8 ms (slower in 29
    # of 30 pinned pairs, 2 vCPU Xeon) for a peak RSS 33.72 -> 33.41 MiB
    work = {}
    for cols, codes in sigma.form_chunks(forms):
        n, done = codes.shape[1], {}

        def sorted_codes(rows):
            if rows not in done:
                if rows not in work:  # the first chunk is the longest
                    work[rows] = np.empty((len(rows) + 1, n), codes.dtype)
                done[rows] = _sorted_rows((codes[r] for r in rows), work[rows][:, :n])
            return done[rows]

        for row, groups in enumerate(plan):
            mask = out[row, cols]
            mask[...] = True
            for lhs, rhs in groups:
                for u, v in zip(sorted_codes(lhs), sorted_codes(rhs)):
                    mask &= u == v
        for row, rows in enumerate(vanish, len(plan)):
            mask = out[row, cols]
            mask[...] = True
            for r in rows:
                mask &= codes[r] == 0
    return out


def spinor_locus(lat: IntersectionLattice, sigma: SigmaModel, cap: int = 10**8):
    """Masks over Sigma^m: twisted spinor identity per index, and x_i = 0.

    Returns (per_index_identity, per_index_zero): two boolean arrays of
    shape (m, N) where row i states 'spinor_plus ⊗ O(-l_{i+1}) matches
    spinor_minus', resp. the B_{m-1} relation x_1 = 0 with index
    i + 1 moved first, for every point tuple.  The |Sigma|^m walk is
    refused past ``cap`` tuples (``BudgetExceededError``).
    """
    m, rel = lat.npoints, case_points(f"B{lat.npoints - 1}").relations
    sp, sm = (weight_bundle(kind, lat) for kind in ("spinor_plus", "spinor_minus"))
    masks = _locus_masks(lat, sigma, np.eye(m, dtype=np.int64),
                         [((sp, -lat.l(i + 1)), (sm, lat.zero)) for i in range(m)],
                         [tuple(r[1:i + 1] + r[:1] + r[i + 1:] for r in rel) for i in range(m)],
                         cap=cap)
    return masks[:m], masks[m:]


def g2_triple_locus(lat: IntersectionLattice, sigma: SigmaModel, cap: int = 10**8):
    """Masks over Sigma^4 for the three twisted triality identities.

    Returns a dict of boolean arrays: 'sp_sm' (spinor identity with
    twist -l1), 'w_sp' (vector identity: spinor_plus = vector ⊗
    O(s - l4)), 'w_sm' (vector ⊗ O(-l4) = spinor_minus) and 'relations'
    (the G2 point relations R x = 0 of ``folding.case_points``).  The
    walk is refused past ``cap`` tuples (``BudgetExceededError``).
    """
    sp, sm, w = (weight_bundle(k, lat) for k in ("spinor_plus", "spinor_minus", "vector"))
    pairs = [((sp, -lat.l(1)), (sm, lat.zero)), ((w, lat.s - lat.l(4)), (sp, lat.zero)),
             ((w, -lat.l(4)), (sm, lat.zero))]
    masks = _locus_masks(lat, sigma, np.eye(4, dtype=np.int64), pairs,
                         [case_points("G2").relations], cap=cap)
    return dict(zip(("sp_sm", "w_sp", "w_sm", "relations"), masks))


def wedge_locus(lat: IntersectionLattice, sigma: SigmaModel, cap: int = 10**8):
    """Masks over zero-sum tuples x = (t, -sum t), t in Sigma^{2n-1}, for the wedge identity.

    Returns (identity, paired): 'standard ⊗ O((n-i) f) matches
    wedge^{2n-i}(standard)' for i = 1, and 'the point multiset is
    symmetric under negation' (the pairing condition up to renumbering),
    compared as standard against its dual twisted by f, which has degree
    2 and restricts to the identity.  The walk is refused past ``cap``
    tuples (``BudgetExceededError``).
    """
    m, v = lat.npoints, weight_bundle("standard", lat)
    n, i = m // 2, 1
    zero_sum = np.vstack([np.eye(m - 1, dtype=np.int64), -np.ones((1, m - 1), dtype=np.int64)])
    return tuple(_locus_masks(lat, sigma, zero_sum, [
        ((v, (n - i) * lat.f), (wedge_power(v, 2 * n - i), lat.zero)),
        ((v, lat.zero), (tuple(-d for d in v), lat.f))], cap=cap))


# ---------------------------------------------------------------------------
# the 27-line decomposition under the folding constraint


class F4RepDecomposition(NamedTuple):
    zero_lines: tuple[DivisorClass, ...]
    common_class: tuple
    short_root_map: dict
    trace_kernel_rank: int
    kernel_det: tuple


def _fixed_part_projection(lat: IntersectionLattice, classes) -> list[DivisorClass]:
    """Twice the orthogonal projection of each class onto the E6 folding's fixed sublattice.

    With B the basis columns and G the lattice's Gram matrix,
    ``integer_left_inverse`` gives L (B^T G B) = den I, and the doubled
    projection of x is M x / den for M = 2 B L B^T G: one integer product
    for all classes.  A remainder raises ``ValueError``.
    """
    basis = fixed_sublattice(outer_automorphism("E6", lat))
    b = np.array([d.coords for d in basis], dtype=np.int64).T
    left, den = integer_left_inverse(gram_matrix(lat, basis).tolist())
    m = 2 * b @ np.array(left, dtype=np.int64) @ b.T @ np.array(lat.gram, dtype=np.int64)
    num = m @ np.array([d.coords for d in classes], dtype=np.int64).T
    if (num % den).any():
        raise ValueError("doubled projection is not integral")
    return [DivisorClass(tuple(col)) for col in (num // den).T.tolist()]


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
    if len(x) != 6 or not holds(case_points("F4").relations, s, x):
        raise ConstraintViolatedError("points do not satisfy the three-way sum")
    p = s.add(x[0], x[5])
    h, l = lat.h, lat.l
    zero_lines = (h - l(1) - l(6), h - l(2) - l(5), h - l(3) - l(4))
    common = (1, s.neg(p))
    for e in zero_lines:
        if line_class_of(lat, pa, e) != common:
            raise AssertionError(f"{e} does not restrict to the common class {common}")
    if sum(zero_lines, lat.zero) != -lat.K:
        raise AssertionError("the three zero lines do not sum to -K")

    shorts = set(f4_short_roots(lat))
    lines = weight_bundle("lines", lat)
    short_map = {}
    for e, img in zip(lines, _fixed_part_projection(lat, lines)):
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
