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
read off the table's Gram matrix and relations off its symbolic points;
the transitivity check codes the systems on the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

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
from .abelian import SymbolicSigma
from .cases import holds
from .folding import case_fold, case_points, folded_weyl_group
from .moduli import PointAssignment
from .rootsys import (
    BudgetExceededError,
    SimpleSystem,
    WeylGroup,
    decompose_in_basis,
    row_keys,
    standard_simple_system,
)


class NoRootFoundError(LookupError):
    """No reflection exchanges the two halves (malformed double-six)."""


class ConfigurationError(ValueError):
    """A configuration or double-six breaks one of its defining conditions."""


def symbolic_point(lat: IntersectionLattice, rows: np.ndarray, d: DivisorClass):
    coeffs = np.array(lat.l_coeffs(d), dtype=np.int64)
    return tuple(int(v) for v in coeffs @ rows)


@dataclass(frozen=True)
class GConfiguration:
    case: str
    classes: tuple  # in the slot order of the case's points
    pa: PointAssignment | None = None

    def check_invariants(self, lat: IntersectionLattice):
        """Raise ConfigurationError unless every defining condition holds.

        With a point assignment this includes the case's point relations,
        both on the classes' symbolic points and on the assigned points.
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
        if self.pa is not None:
            points = case_points(self.case)
            rows = np.array(points.points, dtype=np.int64)
            if not holds(points.relations, SymbolicSigma(rows.shape[1]),
                         [symbolic_point(lat, rows, e) for e in classes]):
                raise ConfigurationError(f"the classes' points break the {self.case} relations")
            x = self.pa.points
            if len(x) != lat.npoints or not holds(points.relations, self.pa.sigma, x):
                raise ConfigurationError(
                    f"the assigned points {x} break the {self.case} relations")
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


def _relation_search(lat: IntersectionLattice, table, rows: np.ndarray, relations):
    """The (S, m) index rows into ``table`` of the systems (as above), in search order.

    The slots are filled relation by relation, a level at a time, each
    partial row with a mask of the classes that miss all of its own and
    its sum e - sum l; a relation whose last slot is next narrows the mask
    to its solutions.
    """
    coords = np.array([e.coords for e in table], dtype=np.int64)
    pts = coords[:, lat.l_offset:] @ rows  # symbolic points
    order = []
    for rel in relations:
        order += [j for j, c in enumerate(rel) if c and j not in order]
    order += [j for j in range(lat.npoints) if j not in order]
    pos = {slot: depth for depth, slot in enumerate(order)}
    due = [[] for _ in order]  # per depth, the relations whose last slot it fills, in depth order
    for rel in relations:
        due[max(pos[j] for j, c in enumerate(rel) if c)].append([rel[j] for j in order])
    disjoint = gram_matrix(lat, table) == 0
    picked = np.zeros((1, 0), dtype=np.int64)  # one column per depth
    allowed = np.ones((1, len(table)), dtype=bool)
    total = np.zeros((1, lat.rank), dtype=np.int64)  # sum e - sum l, per row
    total[0, lat.l_offset:] = -1
    for depth, rels in enumerate(due):
        choice = allowed
        for rel in rels:  # rel fixes c x_slot = -(the sum over its other slots)
            rest = sum((c * pts[picked[:, j]] for j, c in enumerate(rel[:depth]) if c),
                       np.zeros((len(picked), pts.shape[1]), dtype=np.int64))
            for k in range(pts.shape[1]):
                choice = choice & (rest[:, k, None] + rel[depth] * pts[:, k] == 0)
        f, c = np.nonzero(choice)
        picked, allowed, total = (np.column_stack([picked[f], c]), allowed[f] & disjoint[c],
                                  total[f] + coords[c])
    integral = ~(total % abs(lat.K.coords[0])).any(axis=1)
    return picked[integral][:, [pos[j] for j in range(lat.npoints)]]


def is_blowdown_sequence(lat: IntersectionLattice, classes) -> bool:
    """Whether the tuple is simultaneously contractible to the base surface.

    True iff the classes are pairwise-orthogonal (-1)-classes and some
    lattice automorphism preserving the form, K (and f on the Hirzebruch
    model) carries them, in order, to (l_1, ..., l_k).
    """
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
    # plane model: pairwise-disjoint lines always extend to a full
    # six-point blow-down; confirm by explicit extension
    if len(classes) > lat.npoints:
        return False
    pool = [e for e in exceptional_classes(lat) if e not in classes]

    def extend(current, depth):
        if depth == lat.npoints:
            return True
        for cand in pool:
            if cand in current:
                continue
            if all(lat.pair(cand, e) == 0 for e in current):
                if extend(current + [cand], depth + 1):
                    return True
        return False

    return extend(classes, len(classes))


@dataclass(frozen=True)
class TransitivityReport:
    simply_transitive: bool
    group_order: int
    system_count: int
    orbit_size: int
    offending: tuple | None


def simple_transitivity_check(systems: ExceptionalSystems, weyl: WeylGroup) -> TransitivityReport:
    """Verify the Weyl group permutes the systems simply transitively.

    The orbit of the first system under the generators must be the whole
    set of systems, with as many elements as the group has.  A system is
    coded as the mixed-radix int64 of its row of indices into the systems'
    table, and each generator as a partial permutation of that table (-1
    off it).  The walk stays on the systems; the first image that is not
    one is reported as outside, ahead of unreached systems.  Raises
    ``OverflowError`` unless the codes fit in int64.
    """
    rows = systems.rows
    n, m = len(systems.table), rows.shape[1]
    if n**m >= 2**63:
        raise OverflowError(f"codes of {m} slots over {n} classes do not fit in int64")
    radix = n ** np.arange(m, dtype=np.int64)
    coords = np.array([e.coords for e in systems.table], dtype=np.int64)
    where = {key: i for i, key in enumerate(row_keys(coords))}
    perms = np.array([[where.get(key, -1) for key in row_keys(coords @ g.T)] for g in weyl.mats],
                     dtype=np.int64).reshape(-1, n)
    codes = rows @ radix
    targets = np.sort(codes)
    seen = np.arange(targets.size) == np.searchsorted(targets, codes[0])  # per first occurrence
    frontier = codes[:1]
    witness = None  # (code, generator) of the first image that is not a system
    while frontier.size:
        imgs = perms[:, frontier[:, None] // radix % n]  # (generators, frontier, slots)
        out = np.where((imgs < 0).any(axis=2), -1, imgs @ radix)
        pos = np.minimum(np.searchsorted(targets, out), targets.size - 1)
        hit = targets[pos] == out
        if witness is None and not hit.all():
            g, f = divmod(int(np.argmin(hit)), frontier.size)
            witness = (int(frontier[f]), g)
        fresh = np.bincount(pos[hit], minlength=seen.size).astype(bool) & ~seen
        seen |= fresh
        frontier = targets[fresh]
        if seen.sum() > len(weyl):
            raise BudgetExceededError(f"orbit exceeded cap {len(weyl)}")
    reached = int(seen.sum())
    missing = np.flatnonzero(~seen[np.searchsorted(targets, codes)])
    offending = None
    if witness is not None:
        images = coords[witness[0] // radix % n] @ weyl.mats[witness[1]].T
        offending = ("outside", tuple(DivisorClass(tuple(v)) for v in images.tolist()))
    elif missing.size:
        offending = ("unreached", systems[int(missing[0])])
    elif not reached == len(weyl) == len(systems):
        offending = ("stabilizer", len(weyl) // max(reached, 1))
    return TransitivityReport(offending is None, len(weyl), len(systems), reached, offending)


@dataclass(frozen=True)
class DoubleSix:
    first: frozenset
    second: frozenset

    def validate(self, lat: IntersectionLattice):
        lines = sorted(self.first) + sorted(self.second)
        if len(self.first) != 6 or len(self.second) != 6:
            raise ConfigurationError(f"halves of {len(self.first)} and {len(self.second)} lines")
        gram = gram_matrix(lat, lines)
        for h in (0, 6):
            for i, j in h + np.argwhere(np.triu(gram[h:h + 6, h:h + 6], 1))[:1]:
                raise ConfigurationError(f"{lines[i]} and {lines[j]} in one half meet")
        short = np.flatnonzero((gram[:6, 6:] == 1).sum(axis=1) != 5)
        if short.size:
            raise ConfigurationError(f"{lines[short[0]]} does not meet 5 lines of the other half")
        return True


@dataclass(frozen=True)
class CubicData:
    lines: tuple[DivisorClass, ...]
    triangles: tuple[frozenset, ...]
    double_sixes: tuple[DoubleSix, ...]


def cubic_combinatorics(lat: IntersectionLattice) -> CubicData:
    """Lines, triangles and double-sixes of the six-point plane blow-up, built once per lattice."""
    return _cubic_combinatorics(lat)


@lru_cache(maxsize=None)
def _cubic_combinatorics(lat: IntersectionLattice) -> CubicData:
    lines = exceptional_classes(lat)
    gram = gram_matrix(lat, lines)
    meets = np.triu(gram == 1, 1)  # meets[i, j]: i < j and the lines meet
    triangles = []
    for i, j, k in zip(*np.nonzero(meets[:, :, None] & meets[None] & meets[:, None])):
        a, b, c = lines[i], lines[j], lines[k]
        if a + b + c != -lat.K:
            raise ConfigurationError(f"triangle {a}, {b}, {c} does not sum to -K")
        triangles.append(frozenset((a, b, c)))

    # sixes level by level, as increasing index rows (so in lexicographic order)
    later = np.triu(gram == 0, 1)
    sixes = np.zeros((1, 0), dtype=np.int64)
    allowed = np.ones((1, len(lines)), dtype=bool)
    for _ in range(6):
        f, c = np.nonzero(allowed)
        sixes, allowed = np.column_stack([sixes[f], c]), allowed[f] & later[c]
    sixes = [tuple(six) for six in sixes.tolist()]
    # hits[l, s]: the lines of six s that line l meets (none, for a line of the six)
    hits = (gram == 1)[:, sixes].sum(axis=2)
    known, paired, double_sixes = set(sixes), set(), []
    for n, six in enumerate(sixes):
        partner = tuple(np.flatnonzero(hits[:, n] == 5).tolist())
        if six in paired or partner not in known:
            continue
        paired.update((six, partner))
        first, second = sorted((six, partner), key=lambda h: sorted(lines[i] for i in h))
        ds = DoubleSix(frozenset(lines[i] for i in first), frozenset(lines[i] for i in second))
        ds.validate(lat)
        double_sixes.append(ds)
    return CubicData(lines, tuple(triangles), tuple(double_sixes))


def double_six_to_root(ds: DoubleSix, lat: IntersectionLattice,
                       simple: SimpleSystem | None = None) -> DivisorClass:
    """The unique positive root whose reflection exchanges the two sixes."""
    simple = simple or standard_simple_system("E6", lat)
    a0 = next(iter(ds.first))
    partners = [b for b in ds.second if lat.pair(a0, b) == 0]
    if len(partners) != 1:
        raise NoRootFoundError("no unique disjoint partner")
    alpha = partners[0] - a0
    if lat.pair(alpha, alpha) != -2:
        raise NoRootFoundError("partner difference is not a root")
    from .rootsys import reflect

    image = {reflect(lat, alpha, e) for e in ds.first}
    if image != set(ds.second):
        raise NoRootFoundError("reflection does not exchange the sixes")
    coords = decompose_in_basis(alpha, list(simple.roots))
    if all(c >= 0 for c in coords):
        return alpha
    coords_neg = [-c for c in coords]
    if all(c >= 0 for c in coords_neg):
        return -alpha
    raise NoRootFoundError("exchanged root is neither positive nor negative")


@dataclass(frozen=True)
class StabilizerResult:
    order: int
    orbit_size: int


def triangle_stabilizer(triangle, ordered: bool, weyl: WeylGroup) -> StabilizerResult:
    """Order of the stabilizer of a (possibly ordered) triangle in the group.

    The orbit of the ordered triangle, as one int64 row of its three lines,
    is walked by the generators; the unordered orbit is its set of
    underlying triangles.  The stabilizer order is |W| / |orbit|.
    """
    rows = weyl.orbit_rows(np.array([c for line in triangle for c in line.coords], dtype=np.int64))
    if not ordered:
        rows = {frozenset(row_keys(r.reshape(len(triangle), -1))) for r in rows}
    return StabilizerResult(len(weyl) // len(rows), len(rows))
