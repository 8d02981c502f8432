"""Exceptional systems, their Weyl actions, and cubic-surface combinatorics.

Point constraints are checked symbolically: the blow-up points are taken
in a free abelian group subject only to the case's defining relations,
so a tuple qualifies exactly when its constraints hold for every group.
Blow-down validity is decided lattice-theoretically: a tuple is valid
when some automorphism preserving the intersection form, K (and f on
the Hirzebruch model) carries it to the standard exceptional classes.
On the Hirzebruch model this amounts to a sign-pattern with an even
number of l -> f - l flips; the odd patterns are exactly the ones the
ambient Weyl group cannot reach.

Systems are enumerated by one search for every case, as sorted int64 rows
of indices into a class table derived from the fold: the (-1)-classes
orthogonal to what the ambient roots are orthogonal to (l_i and f - l_i
for B and G2, l_i for C, the 27 sorted lines for F4).  Incidences are
read off the table's Gram matrix.  Each class's symbolic point is one
int64 code in a balanced base wide enough that a relation holds iff its
sum of codes is zero, and the integrality test carries only residues mod
|K_0|, in the smallest integer dtype that holds their sums (int8 for every
case).  The transitivity check codes the systems on the same table, builds
a successor table (generators x systems) with one ``searchsorted``, and
walks the orbit on indices into it.

The cubic surface is kept the same way: its triangles and double sixes are
index rows into the 27 sorted lines, read off their Gram matrix, and the
double-six roots and the plane blow-down test read these rows.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .lattice import (
    F1,
    SELF,
    DivisorClass,
    IntersectionLattice,
    enumerate_classes,
    exceptional_classes,
    gram_matrix,
)
from .abelian import SigmaModel
from .folding import case_fold, case_points, folded_weyl_group
from .moduli import restriction
from .rootsys import (
    BudgetExceededError,
    WeylGroup,
    basis_coordinates,
    row_keys,
)


class ConfigurationError(ValueError):
    """A configuration, triangle or double six breaks one of its defining conditions."""


class GConfiguration(NamedTuple):
    case: str
    classes: tuple  # in the slot order of the case's points
    sigma: SigmaModel | None = None
    points: np.ndarray | None = None  # (npoints, 2) residue pairs in sigma

    def check_invariants(self, lat: IntersectionLattice):
        """Raise ConfigurationError unless every defining condition holds.

        With points this includes the case's point relations R x = 0, both
        on the classes' symbolic points (their restrictions to the rows P
        of ``case_points``, exactly) and on the given points, mod (m1, m2).
        """
        classes = self.classes
        for e in classes:
            if lat.pair(e, e) != -1 or lat.pair(e, lat.K) != -1:
                raise ConfigurationError(f"{e} is not a (-1)-class")
        for a, b in combinations(classes, 2):
            if lat.pair(a, b) != 0:
                raise ConfigurationError(f"{a} and {b} meet")
        if lat.model == F1:
            for e in classes:
                if lat.pair(e, lat.f) != 0:
                    raise ConfigurationError(f"{e} meets the fiber")
        if self.points is not None:
            points = case_points(self.case)
            rel = np.array(points.relations, dtype=np.int64)
            if (rel @ restriction(lat, classes, np.array(points.points, dtype=np.int64))).any():
                raise ConfigurationError(f"the classes' points break the {self.case} relations")
            x = np.asarray(self.points, dtype=np.int64)
            if x.shape != (lat.npoints, 2) or (rel @ x % [self.sigma.m1, self.sigma.m2]).any():
                raise ConfigurationError(
                    f"the assigned points {x.tolist()} break the {self.case} relations")
        return True


@lru_cache(maxsize=None)
def _hirzebruch_table(lat: IntersectionLattice) -> tuple[DivisorClass, ...]:
    """l_i (flip 0) and f - l_i (flip 1) of the Hirzebruch model, at index 2 (i - 1) + flip."""
    return tuple(e for i in range(1, lat.npoints + 1) for e in (lat.l(i), lat.f - lat.l(i)))


class ExceptionalSystems:
    """Systems as int64 rows of indices into a sorted class table, one slot per point.

    The rows are read-only and sorted, so the systems come in sorted class
    order.  ``systems[k]`` and iteration give class tuples; ``in`` is False
    for a tuple of the wrong length or with a class off the table.
    """

    def __init__(self, table, rows):
        rows = np.asarray(rows, dtype=np.int64)
        self.table = tuple(table)
        self.rows = rows[np.lexsort(rows.T[::-1])]
        self.rows.flags.writeable = False

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, k):
        return tuple(map(self.table.__getitem__, self.rows[k].tolist()))

    def __iter__(self):
        return (tuple(map(self.table.__getitem__, row)) for row in self.rows.tolist())

    def __contains__(self, system):
        index = {e: i for i, e in enumerate(self.table)}
        row = [index.get(e, -1) for e in system]
        return (len(row) == self.rows.shape[1] and -1 not in row
                and bool((self.rows == row).all(axis=1).any()))


def enumerate_exceptional_systems(case: str, cap: int = 10**6) -> ExceptionalSystems:
    """Every exceptional system of the case, as ``ExceptionalSystems``.

    The table is the orbit of l_1 under the ambient Weyl group: the classes
    e with e.e = e.K = -1 orthogonal to what the fold's ambient roots are
    orthogonal to (l_i and f - l_i for D and triality, l_i for A, the 27
    lines for E6).  A system picks pairwise-disjoint table classes e_i whose
    symbolic points satisfy R x = 0 and for which b_0 + (sum e - sum l) / |K_0|
    is integral (b_0 is s on F1 and h on P2, K_0 is K's coefficient on b_0).
    That class is the image of b_0 under the isometry fixing K (and f) that
    carries (l_1, ..., l_m) to the system, so the test is blow-down validity:
    on F1 an even number of l -> f - l flips; on the A and E6 tables it
    always holds.  Computed once per case, on the case's lattice, and shared
    between callers.  The systems are a W(G)-torsor, so ``folded_weyl_group(case,
    cap)`` is built first: an order above cap refuses before the search.
    """
    folded_weyl_group(case, cap)
    return _enumerate_systems(case)


@lru_cache(maxsize=None)
def _enumerate_systems(case: str) -> ExceptionalSystems:
    rho, points = case_fold(case), case_points(case)
    lat = rho.lattice
    table = enumerate_classes(lat, [(SELF, -1), (lat.K, -1)] + [(c, 0) for c in rho.orthogonal_to])
    return ExceptionalSystems(table, _relation_search(
        lat, table, np.array(points.points, dtype=np.int64), points.relations))


def _point_codes(pts: np.ndarray, relations) -> np.ndarray:
    """Each symbolic point (a row of ``pts``) as one int64 in balanced base B.

    B = 2 reach max|pts| + 1, for reach the largest sum of |c| over the
    relations, so every coordinate of a relation's sum lies within
    +-(B - 1) / 2 and the sum is zero iff its code is.  Raises
    ``OverflowError`` when B^k >= 2^62 (k coordinates), before any product.
    """
    reach = max((sum(map(abs, rel)) for rel in relations), default=0)
    base = 2 * reach * int(np.abs(pts).max(initial=0)) + 1
    if base ** pts.shape[1] >= 2**62:
        raise OverflowError(f"point codes in base {base} over {pts.shape[1]} coordinates "
                            f"do not fit in int64")
    return pts @ base ** np.arange(pts.shape[1], dtype=np.int64)


def _residue_dtype(bound: int):
    """The smallest signed integer dtype that holds 0..bound."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)


def _relation_search(lat: IntersectionLattice, table, rows: np.ndarray, relations):
    """The (S, m) index rows into ``table`` of the systems (as above), in search order.

    The slots are filled relation by relation, a level at a time, each
    partial row with a mask of the classes that miss all of its own and
    the residues of its sum e - sum l mod |K_0|; a relation whose last slot
    is next narrows the mask to its solutions.  A relation compares point
    codes (``_point_codes``): one (rows x table) test per relation.  The
    residues are carried in ``_residue_dtype`` of (m + 1)(|K_0| - 1), the
    most that m classes and the -l_i add up to.
    """
    coords = np.array([e.coords for e in table], dtype=np.int64)
    codes = _point_codes(restriction(lat, table, rows), relations)
    k0 = abs(lat.K.coords[0])
    dtype = _residue_dtype((lat.npoints + 1) * (k0 - 1))
    residues = (coords % k0).astype(dtype)
    order = []
    for rel in relations:
        order += [j for j, c in enumerate(rel) if c and j not in order]
    order += [j for j in range(lat.npoints) if j not in order]
    pos = {slot: depth for depth, slot in enumerate(order)}
    due = [[] for _ in order]  # per depth, the relations whose last slot it fills, in depth order
    for rel in relations:
        due[max(pos[j] for j, c in enumerate(rel) if c)].append([rel[j] for j in order])
    disjoint = gram_matrix(lat, table) == 0
    picked = []  # one column of table indices per depth
    allowed = np.ones((1, len(table)), dtype=bool)
    total = np.zeros((1, lat.rank), dtype=dtype)  # sum e - sum l mod |K_0|, unreduced, per row
    total[0, lat.l_offset:] = -1 % k0
    for depth, rels in enumerate(due):
        choice = allowed
        for rel in rels:  # rel fixes c x_slot = -(the sum over its other slots)
            rest = sum((c * np.take(codes, picked[j]) for j, c in enumerate(rel[:depth]) if c),
                       np.zeros(len(choice), dtype=np.int64))
            choice = choice & (rest[:, None] == -rel[depth] * codes)
        f, c = np.nonzero(choice)
        picked = [np.take(col, f) for col in picked] + [c]
        total = np.take(total, f, axis=0) + np.take(residues, c, axis=0)
        if depth < len(due) - 1:
            allowed = np.take(allowed, f, axis=0) & np.take(disjoint, c, axis=0)
    integral = ~(total % k0).any(axis=1)
    return np.stack([picked[pos[j]][integral] for j in range(lat.npoints)], axis=1)


def is_blowdown_sequence(lat: IntersectionLattice, classes) -> bool:
    """Whether the tuple is simultaneously contractible to the base surface.

    True iff the classes are pairwise-orthogonal (-1)-classes and some
    lattice automorphism preserving the form, K (and f on the Hirzebruch
    model) carries them, in order, to (l_1, ..., l_k).  The plane is decided
    on the cubic (other point counts raise ``ValueError``): W(E6) is simply
    transitive on the 72 * 6! ordered sixes, so valid means in one six.
    """
    if lat.model != F1 and lat.npoints != 6:
        raise ValueError(f"plane blow-downs are decided on the cubic, not on {lat.npoints} points")
    classes = list(classes)
    for e in classes:
        if lat.pair(e, e) != -1 or lat.pair(e, lat.K) != -1:
            return False
    for a, b in combinations(classes, 2):
        if lat.pair(a, b) != 0:
            return False
    if lat.model == F1:
        index = {e: divmod(k, 2) for k, e in enumerate(_hirzebruch_table(lat))}
        pat = [index.get(e) for e in classes]
        if any(p is None for p in pat):
            return False
        idx = [i for i, _ in pat]
        if len(set(idx)) != len(idx):
            return False
        if len(classes) == lat.npoints and sum(fl for _, fl in pat) % 2 != 0:
            return False  # an odd flip pattern is not in the Weyl orbit
        return True
    data = cubic_combinatorics(lat)  # the classes are distinct skew lines
    row = [data.lines.index(e) for e in classes]
    return bool((np.isin(data.double_sixes.reshape(-1, 6), row).sum(axis=1) == len(row)).any())


class TransitivityReport(NamedTuple):
    simply_transitive: bool
    orbit_size: int
    offending: tuple | None


def simple_transitivity_check(systems: ExceptionalSystems, weyl: WeylGroup) -> TransitivityReport:
    """Verify the Weyl group permutes the systems simply transitively.

    The orbit of the first system under the generators must be the whole
    set of systems, with as many elements as the group has.  A system is
    coded as the mixed-radix int64 of its row of indices into the systems'
    table, and each generator as a partial permutation of that table (-1
    off it).  One successor table (generators x systems, in code order)
    holds the index of each image among the sorted codes, or -1: a slot
    adds perm[c] n^j to the image's code, or -n^m off the table, and one
    ``searchsorted`` finds the sums.  The walk then steps on indices.  It
    stays on the systems; the first image that is not one is reported as
    outside, ahead of unreached systems.  Raises ``OverflowError`` unless
    m n^m fits in int64.
    """
    rows = systems.rows
    n, m = len(systems.table), rows.shape[1]
    if m * n**m >= 2**63:
        raise OverflowError(f"codes of {m} slots over {n} classes do not fit in int64")
    radix = n ** np.arange(m, dtype=np.int64)
    coords = np.array([e.coords for e in systems.table], dtype=np.int64)
    where = {key: i for i, key in enumerate(row_keys(coords))}
    perms = np.array([[where.get(key, -1) for key in row_keys(coords @ g.T)] for g in weyl.mats],
                     dtype=np.int64).reshape(-1, n)
    codes = rows @ radix
    order = np.argsort(codes)
    targets, cols = codes[order], np.ascontiguousarray(rows[order].T)  # cols: (slots, systems)
    parts = np.where(perms < 0, -(n**m), perms * radix[:, None, None])  # (slots, generators, table)
    out = sum(np.take(parts[j], cols[j], axis=1) for j in range(m))  # (generators, systems)
    pos = np.searchsorted(targets, out)
    succ = np.where(targets[np.minimum(pos, targets.size - 1)] == out, pos, -1)  # first occurrence
    start = np.searchsorted(targets, codes[0])
    seen = np.arange(targets.size + 1) == start  # per first occurrence; the last slot, which
    seen[-1] = True  # a step of -1 marks, stands for every image off the systems
    frontier = np.array([start])  # indices into targets, in code order
    reached = 1
    witness = None  # (index, generator) of the first image that is not a system
    while frontier.size:
        step = succ[:, frontier]
        fresh = np.zeros_like(seen)
        fresh[step] = True
        if witness is None and fresh[-1]:
            g, f = divmod(int(np.argmin(step)), frontier.size)
            witness = (int(frontier[f]), g)
        fresh &= ~seen
        seen |= fresh
        frontier = np.flatnonzero(fresh)
        reached += frontier.size
        if reached > len(weyl):
            raise BudgetExceededError(f"orbit exceeded cap {len(weyl)}")
    missing = order[~seen[np.searchsorted(targets, targets)]]  # row indices of unreached systems
    offending = None
    if witness is not None:
        images = coords[cols[:, witness[0]]] @ weyl.mats[witness[1]].T
        offending = ("outside", tuple(DivisorClass(tuple(v)) for v in images.tolist()))
    elif missing.size:
        offending = ("unreached", systems[int(missing.min())])
    elif not reached == len(weyl) == len(systems):
        offending = ("stabilizer", len(weyl) // max(reached, 1))
    return TransitivityReport(offending is None, reached, offending)


class CubicData(NamedTuple):
    """The sorted lines, and the triangles and double sixes as int64 index rows into them."""

    lines: tuple[DivisorClass, ...]
    triangles: np.ndarray  # (45, 3), increasing rows
    double_sixes: np.ndarray  # (36, 2, 6): (smaller six, partner), in the order of the first


def cubic_combinatorics(lat: IntersectionLattice) -> CubicData:
    """Lines, triangles and double-sixes of the six-point plane blow-up, built once per lattice."""
    return _cubic_combinatorics(lat)


@lru_cache(maxsize=None)
def _cubic_combinatorics(lat: IntersectionLattice) -> CubicData:
    lines = exceptional_classes(lat)
    gram = gram_matrix(lat, lines)
    meets = np.triu(gram == 1, 1)  # meets[i, j]: i < j and the lines meet
    triangles = np.argwhere(meets[:, :, None] & meets[None] & meets[:, None])
    coords = np.array([e.coords for e in lines], dtype=np.int64).reshape(-1, lat.rank)
    for row in triangles[(coords[triangles].sum(axis=1) != -np.array(lat.K.coords)).any(axis=1)]:
        raise ConfigurationError(f"triangle {[lines[i] for i in row]} does not sum to -K")
    # sixes level by level, as increasing index rows (so in lexicographic order)
    later = np.triu(gram == 0, 1)
    sixes = np.zeros((1, 0), dtype=np.int64)
    allowed = np.ones((1, len(lines)), dtype=bool)
    for _ in range(6):
        f, c = np.nonzero(allowed)
        sixes, allowed = np.column_stack([sixes[f], c]), allowed[f] & later[c]
    # a six's partner: the lines that meet exactly five of its lines, as a bit set
    bits = 1 << np.arange(len(lines), dtype=np.int64)
    where = {code: n for n, code in enumerate(bits[sixes].sum(axis=1).tolist())}
    partner_bits = ((gram == 1)[:, sixes].sum(axis=2) == 5).T @ bits
    partner = np.array([where.get(code, -1) for code in partner_bits.tolist()], dtype=np.int64)
    for n in np.flatnonzero((partner < 0) | (partner[partner] != np.arange(len(sixes)))):
        raise ConfigurationError(f"the lines meeting five of {[lines[i] for i in sixes[n]]} "
                                 f"are not a six paired back with it")
    first = np.flatnonzero(np.arange(len(sixes)) < partner)
    double_sixes = np.stack([sixes[first], sixes[partner[first]]], axis=1)
    triangles.flags.writeable = double_sixes.flags.writeable = False  # shared through the cache
    return CubicData(lines, triangles, double_sixes)


def double_six_roots(data: CubicData, lat: IntersectionLattice, simple) -> np.ndarray:
    """The positive root exchanging the halves of each double six, as (N, rank) int64 rows.

    alpha = b - a, for a the first line of the first half and b the one line
    of the second half disjoint from it, must be a root whose reflection
    x + (x.alpha) alpha carries the first half onto the second; its sign
    comes from one solve in the simple roots.  Else ``ConfigurationError``.
    """
    coords = np.array([e.coords for e in data.lines], dtype=np.int64).reshape(-1, lat.rank)
    form = np.array(lat.gram, dtype=np.int64)
    first, second = data.double_sixes[:, 0], data.double_sixes[:, 1]
    disjoint = gram_matrix(lat, data.lines)[first[:, :1], second] == 0
    for n in np.flatnonzero(disjoint.sum(axis=1) != 1):
        raise ConfigurationError(f"double six {n}: no unique disjoint partner")
    alpha = coords[second[np.arange(len(second)), disjoint.argmax(axis=1)]] - coords[first[:, 0]]
    for n in np.flatnonzero(np.einsum("ni,ij,nj->n", alpha, form, alpha) != -2):
        raise ConfigurationError(f"double six {n}: partner difference is not a root")
    x = coords[first]
    images = x + np.einsum("nki,ij,nj->nk", x, form, alpha)[:, :, None] * alpha[:, None]
    index = {key: i for i, key in enumerate(row_keys(coords))}
    mapped = np.array([index.get(key, -1) for key in row_keys(images.reshape(-1, lat.rank))],
                      dtype=np.int64).reshape(second.shape)
    for n in np.flatnonzero((np.sort(mapped, axis=1) != second).any(axis=1)):
        raise ConfigurationError(f"double six {n}: reflection does not exchange the sixes")
    signs = basis_coordinates(np.array([b.coords for b in simple], dtype=np.int64).T, alpha.T)
    positive, negative = (signs >= 0).all(axis=0), (signs <= 0).all(axis=0)
    for n in np.flatnonzero(~positive & ~negative):
        raise ConfigurationError(f"double six {n}: exchanged root is neither positive nor negative")
    return np.where(positive[:, None], alpha, -alpha)


def triangle_stabilizer(data: CubicData, triangle, weyl: WeylGroup) -> tuple[tuple[int, int], ...]:
    """(stabilizer order, orbit size) of a triangle, unordered then ordered, from one orbit walk.

    The orbit of the ordered triangle, as one int64 row of its three lines,
    is walked by the generators.  Each row's lines are mapped to their
    indices in ``data.lines`` and sorted; every sorted row must be a row of
    ``data.triangles``, else ``ConfigurationError``.  The unordered orbit is
    the set of distinct sorted rows.  A stabilizer's order is |W| / |orbit|.
    """
    n, rank = len(data.lines), len(triangle[0].coords)
    rows = weyl.orbit_rows(np.array([c for line in triangle for c in line.coords], dtype=np.int64))
    index = {key: i for i, key in enumerate(row_keys(np.array([e.coords for e in data.lines],
                                                              dtype=np.int64)))}
    # a class off the table sorts first with -n^3, so its row's code is below every triangle's
    idx = [index.get(key, -n**3) for key in row_keys(np.reshape(rows, (-1, rank)))]
    codes = (np.sort(np.reshape(idx, (-1, 3)), axis=1) @ [n * n, n, 1]).tolist()
    known = set((data.triangles @ [n * n, n, 1]).tolist())
    for k in (k for k, code in enumerate(codes) if code not in known):
        raise ConfigurationError(f"orbit row {k} of {triangle} is not a triangle")
    return tuple((len(weyl) // size, size) for size in (len(set(codes)), len(rows)))
