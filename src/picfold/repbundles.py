"""Weight multisets of representation bundles and their curve restrictions.

A weight bundle is the sorted tuple of its summand classes
(``weight_bundle``, ``wedge_power``), and its rank is its length.  A
summand restricts to the curve as its degree, the pairing with the
anticanonical class, and its point, the image under the normalized
restriction map (``moduli.restriction``: the section and fiber classes
restrict to the group identity).

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

The G2 locus decides each identity only where it can still change the
verdict: the spinor identity and the relations on every tuple, the first
vector identity on the columns where the spinor identity holds (their
conjunction is False elsewhere), and the second vector identity on the
columns of the relation locus, where it must hold.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from ._linalg import integer_left_inverse
from .abelian import SigmaModel
from .folding import case_points, fixed_sublattice, folded_root_system, outer_automorphism
from .lattice import SELF, DivisorClass, IntersectionLattice, enumerate_classes, gram_matrix
from .moduli import restriction


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


def _locus_plan(lat, params, pairs, relations=()):
    """(forms, tests): the distinct forms (K, k) in t of a walk with the points x = params t.

    One test per pair ((summands, twist), (summands, twist)) of sides that
    restrict alike, then one per relation block R: R x = 0.  A side is the
    multiset of its summands' (degree, form in t); the degree multisets of
    the full sides must agree (else ``ValueError``).  The summands the two
    sides share are cancelled first, which is exact: A ⊎ C = B ⊎ C as
    multisets at a point iff A = B there.  A pair's test is one group (lhs
    rows, rhs rows) of forms per degree left, whose sorted codes must agree;
    a degree with nothing left holds everywhere.  A relation block's test is
    the one group (rows, ()), whose codes must vanish.  Only the forms a test
    reads are placed: a summand that cancels has no row.
    """
    where = {}  # form in t -> its row

    def formed(forms):
        return map(tuple, forms.tolist())

    def place(forms):
        return tuple(sorted(where.setdefault(form, len(where)) for form in forms))

    tests = []
    for pair in pairs:
        sides = [Counter(zip([lat.deg(d + tw) for d in summands],
                             formed(restriction(lat, [d + tw for d in summands], params))))
                 for summands, tw in pair]
        lhs, rhs = (sorted(deg for deg, _ in side.elements()) for side in sides)
        if lhs != rhs:
            raise ValueError(f"summand degrees {lhs} and {rhs} differ: no identification")
        left, right = sides[0] - sides[1], sides[1] - sides[0]
        tests.append(tuple(tuple(place(f for d, f in side.elements() if d == deg)
                                 for side in (left, right))
                           for deg in sorted({d for d, _ in left})))
    for rows in relations:
        forms = np.array(rows, dtype=np.int64).reshape(-1, len(params)) @ params
        tests.append(((place(formed(forms)), ()),))
    return np.array(list(where), dtype=np.int64).reshape(len(where), params.shape[1]), tests


def _test_masks(tests, codes, out=None, work=None):
    """Each test of ``_locus_plan`` over the columns of codes (K, n), one boolean row each.

    The rows go into ``out`` (allocated when None), which is returned.  A
    group side's codes are sorted once per call by the merge network, into
    buffers of ``work`` kept across the calls of a walk (keyed by rows;
    allocated per call when ``work`` is None).
    """
    n, done = codes.shape[1], {}
    out = np.empty((len(tests), n), dtype=bool) if out is None else out

    def sorted_codes(rows):
        if rows not in done:
            buf = None
            if work is not None:
                if rows not in work:  # the first chunk is the longest
                    work[rows] = np.empty((len(rows) + 1, n), codes.dtype)
                buf = work[rows][:, :n]
            done[rows] = _sorted_rows((codes[r] for r in rows), buf)
        return done[rows]

    for mask, test in zip(out, tests):
        mask[...] = True
        for lhs, rhs in test:
            if not rhs:
                for r in lhs:
                    mask &= codes[r] == 0
                continue
            for u, v in zip(sorted_codes(lhs), sorted_codes(rhs)):
                mask &= u == v
    return out


def _locus_masks(lat, sigma, params, pairs, relations=(), cap=10**8):
    """Masks over t in Sigma^k, in ``SigmaModel.form_chunks`` order, with the points x = params t.

    One row per test of ``_locus_plan``: per pair of sides, then per
    relation block.  Each distinct form is one row of the walk's codes, read
    as they come.  The |Sigma|^k tuples are checked against ``cap`` before
    the masks are allocated (``SigmaModel.tuple_count``).
    """
    forms, tests = _locus_plan(lat, params, pairs, relations)
    out = np.empty((len(tests), sigma.tuple_count(params.shape[1], cap)), dtype=bool)
    # rows of forms -> the merge network's buffers, kept for the walk: a network that
    # allocated on each comparator made the cold G2 locus 18.1 -> 21.8 ms (slower in 29
    # of 30 pinned pairs, 2 vCPU Xeon) for a peak RSS 33.72 -> 33.41 MiB
    work = {}
    for cols, codes in sigma.form_chunks(forms):
        _test_masks(tests, codes, out[:, cols], work)
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


class G2TripleLocus(NamedTuple):
    """The triality identities over Sigma^4, tuples in ``SigmaModel.form_chunks`` order."""

    identity: np.ndarray  # sp_sm and w_sp, on every tuple
    relations: np.ndarray  # the G2 point relations R x = 0, on every tuple
    w_sm: np.ndarray  # the third identity on the tuples where relations holds, in order


def _triality_identities(lat: IntersectionLattice):
    """The pairs sp_sm, w_sp and w_sm of sides the G2 locus identifies, on the four-point F1.

    sp_sm is the spinor identity spinor_plus ⊗ O(-l1) = spinor_minus, w_sp
    and w_sm the vector identities vector ⊗ O(s - l4) = spinor_plus and
    vector ⊗ O(-l4) = spinor_minus.
    """
    sp, sm, w = (weight_bundle(k, lat) for k in ("spinor_plus", "spinor_minus", "vector"))
    return (((sp, -lat.l(1)), (sm, lat.zero)), ((w, lat.s - lat.l(4)), (sp, lat.zero)),
            ((w, -lat.l(4)), (sm, lat.zero)))


def g2_triple_locus(lat: IntersectionLattice, sigma: SigmaModel, cap: int = 10**8
                    ) -> G2TripleLocus:
    """The triality identities of ``_triality_identities`` over Sigma^4, each decided once.

    One ``SigmaModel.form_chunks`` walk yields the codes of all their forms
    and of the G2 point relations R x = 0 of ``folding.case_points``.  sp_sm
    and the relations are decided on every tuple.  w_sp is compared only on
    the tuples where sp_sm holds, since their conjunction is False wherever
    sp_sm is False, and w_sm only on the tuples where the relations hold,
    the locus on which it must hold.  So ``identity`` is exactly sp_sm and w_sp
    on every tuple, and ``w_sm`` is the third identity on the locus.  The
    walk is refused past ``cap`` tuples (``BudgetExceededError``).

    ``identity`` equals ``relations`` only when |Sigma| has no 2-torsion
    (|Sigma| odd); at even |Sigma| it holds off the locus too, on 8 tuples
    against 4 at Z/2 and 64 against 16 at 2 x 2.  ``w_sm`` holds on the locus
    at every Sigma.
    """
    walked, (sp_sm, w_sp, w_sm, rel) = _locus_plan(lat, np.eye(4, dtype=np.int64),
                                                  _triality_identities(lat),
                                                  [case_points("G2").relations])
    n = sigma.tuple_count(4, cap)
    identity, relations, on_locus, work = np.empty(n, bool), np.empty(n, bool), [], {}
    for cols, codes in sigma.form_chunks(walked):
        ident, held = identity[cols], relations[cols]
        _test_masks((sp_sm, rel), codes, (ident, held), work)
        at = np.flatnonzero(ident)
        ident[at] = _test_masks((w_sp,), codes[:, at])[0]
        on_locus.append(_test_masks((w_sm,), codes[:, held])[0])
    return G2TripleLocus(identity, relations, np.concatenate(on_locus))


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
    """The 3 + 24 split; a point is a row over the free parameters, or a residue pair."""

    zero_lines: tuple[DivisorClass, ...]
    common_class: tuple  # (degree, point) of each zero line
    short_root_map: dict
    trace_kernel_rank: int
    kernel_det: tuple  # (degree, point)


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


def f4_rep_decomposition(lat: IntersectionLattice, x, sigma: SigmaModel | None = None
                         ) -> F4RepDecomposition:
    """Split the 27 lines as 3 + 24 at points x with x1 + x6 = x2 + x5 = x3 + x4.

    x is (6, k) coefficient rows over free parameters, computed exactly, or
    with ``sigma`` (6, 2) residue pairs, computed mod (m1, m2); other points
    raise ``ConstraintViolatedError``.  The zero lines, whose doubled
    projection onto the fixed sublattice vanishes, must be the three
    h - l_i - l_{7-i}; they sum to -K and restrict to one common class
    (1, -(x1 + x6)).  The other 24 project onto the 24 short roots, and each
    image restricts to twice its line's point plus x1 + x6.  The kernel of
    the trace onto the common class has rank one less than the zero lines,
    and determinant their sum minus the common class.
    """
    x = np.asarray(x, dtype=np.int64)

    def reduced(a):
        return a if sigma is None else a % np.array([sigma.m1, sigma.m2])

    rel = np.array(case_points("F4").relations, dtype=np.int64)
    if len(x) != 6 or reduced(rel @ x).any():
        raise ConstraintViolatedError("points do not satisfy the three-way sum")
    lines = weight_bundle("lines", lat)
    images = _fixed_part_projection(lat, lines)
    zero_lines = tuple(e for e, img in zip(lines, images) if img == lat.zero)
    if set(zero_lines) != {lat.h - lat.l(i) - lat.l(7 - i) for i in (1, 2, 3)}:
        raise AssertionError(f"the lines of zero doubled projection are {zero_lines}, "
                             f"not the three h - l_i - l_(7-i)")
    if sum(zero_lines, lat.zero) != -lat.K:
        raise AssertionError("the zero lines do not sum to -K")
    p = x[0] + x[5]
    common = (1, reduced(-p))
    u = restriction(lat, zero_lines, x, sigma)
    for e, pt in zip(zero_lines, u):
        if lat.deg(e) != 1 or not np.array_equal(pt, common[1]):
            raise AssertionError(f"{e} does not restrict to the common class {common}")
    short_map = {e: img for e, img in zip(lines, images) if e not in zero_lines}
    short = {r for r in folded_root_system("F4") if lat.pair(r, r) == -4}  # the 2-orbit sums
    if set(short_map.values()) != short:
        raise AssertionError("the 24 lines do not project onto the 24 short roots")
    # compatibility between the two levels of restriction data
    rest = tuple(short_map)
    twice = reduced(restriction(lat, short_map.values(), x) - 2 * (restriction(lat, rest, x) + p))
    for e, bad in zip(rest, twice.any(axis=1)):
        if bad:
            raise AssertionError(f"restriction of {short_map[e]} is not twice that of {e}")
    det = (sum(map(lat.deg, zero_lines)) - common[0], reduced(u.sum(axis=0) - common[1]))
    return F4RepDecomposition(zero_lines, common, short_map, len(zero_lines) - 1, det)
