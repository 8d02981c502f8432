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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from types import MappingProxyType

import numpy as np

from .lattice import (
    F1,
    P2,
    DivisorClass,
    IntersectionLattice,
    exceptional_classes,
)
from .abelian import SymbolicSigma
from .cases import case_lattice, case_spec, holds
from .moduli import PointAssignment
from .rootsys import (
    SimpleSystem,
    WeylGroup,
    decompose_in_basis,
    orbit,
    standard_simple_system,
)


class NoRootFoundError(LookupError):
    """No reflection exchanges the two halves (malformed double-six)."""


class ConfigurationError(ValueError):
    """A configuration or double-six breaks one of its defining conditions."""


def symbolic_point_rows(case: str) -> np.ndarray:
    """The case's P: row i expresses the blow-up point x_{i+1} in the free parameters."""
    return np.array(case_spec(case).points, dtype=np.int64)


def symbolic_point(lat: IntersectionLattice, rows: np.ndarray, d: DivisorClass):
    coeffs = np.array(lat.l_coeffs(d), dtype=np.int64)
    return tuple(int(v) for v in coeffs @ rows)


@dataclass(frozen=True)
class GConfiguration:
    case: str
    classes: tuple
    pa: PointAssignment | None = None

    def flat_classes(self) -> tuple[DivisorClass, ...]:
        """The classes in the slot order of the case's points.

        C pairs (a_i, b_i) flatten to (a_1, ..., a_n, b_n, ..., b_1).
        """
        if case_spec(self.case).family == "C":
            return (tuple(a for a, _ in self.classes)
                    + tuple(b for _, b in reversed(self.classes)))
        return self.classes

    def check_invariants(self, lat: IntersectionLattice):
        """Raise ConfigurationError unless every defining condition holds.

        With a point assignment this includes the case's point relations,
        both on the classes' symbolic points and on the assigned points.
        """
        flat = self.flat_classes()
        for e in flat:
            if lat.pair(e, e) != -1 or lat.pair(e, lat.K) != -1:
                raise ConfigurationError(f"{e} is not a (-1)-class")
        for a, b in combinations(flat, 2):
            if lat.pair(a, b) != 0:
                raise ConfigurationError(f"{a} and {b} meet")
        if lat.model == F1:
            for e in flat:
                if lat.pair(e, lat.f) != 0:
                    raise ConfigurationError(f"{e} meets the fiber")
        if self.pa is not None:
            rows = symbolic_point_rows(self.case)
            if not _check_case_points(self.case, [
                symbolic_point(lat, rows, e) for e in flat
            ]):
                raise ConfigurationError(
                    f"the classes' points break the {self.case} relations")
            relations = case_spec(self.case).relations
            x = self.pa.points
            if len(x) != lat.npoints or not holds(relations, self.pa.sigma, x):
                raise ConfigurationError(
                    f"the assigned points {x} break the {self.case} relations")
        return True


def _check_case_points(case: str, pts) -> bool:
    """R x = 0 on symbolic points (integer vectors over the free parameters)."""
    spec = case_spec(case)
    return holds(spec.relations, SymbolicSigma(spec.rank), pts)


@lru_cache(maxsize=None)
def _hirzebruch_table(lat: IntersectionLattice):
    """The classes l_i (flip 0) and f - l_i (flip 1) of the Hirzebruch model.

    Returns the read-only maps {(i, flip): class} and {class: (i, flip)}.
    """
    classes = {}
    for i in range(1, lat.npoints + 1):
        classes[i, 0] = lat.l(i)
        classes[i, 1] = lat.f - classes[i, 0]
    index = {e: key for key, e in classes.items()}
    return MappingProxyType(classes), MappingProxyType(index)


def enumerate_exceptional_systems(case: str, lat: IntersectionLattice | None = None):
    """The complete list of class tuples forming exceptional systems.

    B/G2: tuples (e_1, ..., e_m) of pairwise-disjoint fiber-degree-zero
    exceptional classes meeting the symbolic point constraints, with an
    even number of flips (blow-down validity).  C: the definitional
    pairs (l_i, l_i^-) up to permutation and per-pair swaps.  F4:
    ordered 6-tuples of pairwise-disjoint lines whose points satisfy the
    three-way sum condition.  The tuple is computed once per (case, lat)
    and shared between callers.
    """
    return _enumerate_systems(case, lat or case_lattice(case))


@lru_cache(maxsize=None)
def _enumerate_systems(case: str, lat: IntersectionLattice):
    spec = case_spec(case)
    if spec.family == "C":
        n = spec.rank
        out = []
        for sigma in permutations(range(1, n + 1)):
            for flips in product((0, 1), repeat=n):
                pairs = []
                for idx, fl in zip(sigma, flips):
                    a, b = lat.l(idx), lat.l(2 * n + 1 - idx)
                    pairs.append((b, a) if fl else (a, b))
                out.append(tuple(pairs))
        return tuple(out)
    rows = symbolic_point_rows(case)
    if spec.family == "F4":
        return _f4_systems(lat, rows, spec.relations)
    # B and G2: every (permutation, even flip pattern) on the Hirzebruch
    # model, in that order, with R x = 0 evaluated for all of them at once
    classes = _hirzebruch_table(lat)[0]
    keys = list(classes)  # (i, flip) at position 2 (i - 1) + flip
    pts = np.array([symbolic_point(lat, rows, classes[k]) for k in keys], dtype=np.int64)
    m = lat.npoints
    perms = np.array(list(permutations(range(m))), dtype=np.int64)
    flips = np.array([f for f in product((0, 1), repeat=m) if sum(f) % 2 == 0], dtype=np.int64)
    cand = (2 * perms[:, None] + flips[None]).reshape(-1, m)
    ok = np.ones(cand.shape[0], dtype=bool)
    for rel in spec.relations:
        ok &= ~np.any(sum(c * pts[cand[:, j]] for j, c in enumerate(rel) if c), axis=1)
    return tuple(tuple(classes[keys[k]] for k in row) for row in cand[ok].tolist())


def _f4_systems(lat: IntersectionLattice, rows: np.ndarray, relations):
    """Ordered 6-tuples of pairwise-disjoint lines whose points satisfy R x = 0.

    The slots are filled relation by relation, and each relation is
    checked as soon as its last slot is filled.
    """
    lines = exceptional_classes(lat)
    pts = {e: symbolic_point(lat, rows, e) for e in lines}
    disjoint = {e: {o for o in lines if o != e and lat.pair(e, o) == 0} for e in lines}
    sym = SymbolicSigma(rows.shape[1])
    order = []
    for rel in relations:
        order += [j for j, c in enumerate(rel) if c and j not in order]
    order += [j for j in range(lat.npoints) if j not in order]
    pos = {slot: depth for depth, slot in enumerate(order)}
    due = [[] for _ in order]  # the relations whose last slot is filled at each depth
    for rel in relations:
        due[max(pos[j] for j, c in enumerate(rel) if c)].append(rel)
    by_point = {}
    for e in lines:
        by_point.setdefault(pts[e], set()).add(e)
    out = []
    chosen = [sym.zero] * lat.npoints
    picked = [None] * lat.npoints

    def rec(depth, allowed):
        if depth == len(order):
            out.append(tuple(picked))
            return
        slot = order[depth]
        cands = allowed
        # each relation due here fixes c x_slot = -(the sum over its other slots)
        for rel in due[depth]:
            c, need = rel[slot], sym.neg(sym.combine(rel, chosen))
            if any(v % c for v in need):
                return
            cands = cands & by_point.get(tuple(v // c for v in need), set())
        for cand in cands:
            chosen[slot], picked[slot] = pts[cand], cand
            rec(depth + 1, allowed & disjoint[cand])
        chosen[slot] = sym.zero

    rec(0, set(lines))
    return tuple(sorted(out))


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
        index = _hirzebruch_table(lat)[1]
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


def simple_transitivity_check(case: str, systems, weyl: WeylGroup) -> TransitivityReport:
    """Verify the Weyl group permutes the systems simply transitively.

    The orbit of the first system under the generators must be the whole
    set of systems, with as many elements as the group has.  Systems are
    compared as the raw bytes of their concatenated int64 coordinates.
    """
    systems = list(systems)
    flat = np.array([[c for e in GConfiguration(case, s).flat_classes() for c in e.coords]
                     for s in systems], dtype=np.int64)
    target = {row.tobytes(): n for n, row in enumerate(flat)}
    reached = {row.tobytes() for row in weyl.orbit_rows(flat[0])}
    ok = len(reached) == len(weyl) == len(systems) and reached == target.keys()
    offending = None
    if not ok:
        missing = [n for key, n in target.items() if key not in reached]
        extra = sorted(reached - target.keys())
        if missing:
            offending = ("unreached", systems[missing[0]])
        elif extra:
            coords = np.frombuffer(extra[0], dtype=np.int64).reshape(-1, weyl.rank)
            offending = ("outside", tuple(DivisorClass(tuple(v)) for v in coords.tolist()))
        else:
            offending = ("stabilizer", len(weyl) // max(len(reached), 1))
    return TransitivityReport(ok, len(weyl), len(systems), len(reached), offending)


@dataclass(frozen=True)
class DoubleSix:
    first: frozenset
    second: frozenset

    def validate(self, lat: IntersectionLattice):
        for half in (self.first, self.second):
            if len(half) != 6:
                raise ConfigurationError(f"a half has {len(half)} lines, not 6")
            for a, b in combinations(half, 2):
                if lat.pair(a, b) != 0:
                    raise ConfigurationError(f"{a} and {b} in one half meet")
        for a in self.first:
            if sum(1 for b in self.second if lat.pair(a, b) == 1) != 5:
                raise ConfigurationError(f"{a} does not meet 5 lines of the other half")
        return True


@dataclass(frozen=True)
class CubicData:
    lines: tuple[DivisorClass, ...]
    triangles: tuple[frozenset, ...]
    double_sixes: tuple[DoubleSix, ...]


def cubic_combinatorics(lat: IntersectionLattice) -> CubicData:
    """Lines, triangles and double-sixes of the six-point plane blow-up."""
    lines = exceptional_classes(lat)
    meets = {
        a: {b for b in lines if b != a and lat.pair(a, b) == 1} for a in lines
    }
    triangles = []
    for a, b, c in combinations(lines, 3):
        if b in meets[a] and c in meets[a] and c in meets[b]:
            if a + b + c != -lat.K:
                raise ConfigurationError(f"triangle {a}, {b}, {c} does not sum to -K")
            triangles.append(frozenset((a, b, c)))

    sixes = []

    def grow(current, start):
        if len(current) == 6:
            sixes.append(frozenset(current))
            return
        for i in range(start, len(lines)):
            cand = lines[i]
            if all(lat.pair(cand, e) == 0 for e in current):
                grow(current + [cand], i + 1)

    grow([], 0)
    paired = set()
    double_sixes = []
    for six in sixes:
        if six in paired:
            continue
        partner = frozenset(
            m for m in lines
            if m not in six and sum(1 for a in six if lat.pair(m, a) == 1) == 5
        )
        if len(partner) != 6 or partner not in set(sixes):
            continue
        paired.add(six)
        paired.add(partner)
        ds = DoubleSix(*sorted((six, partner), key=lambda s: sorted(s)))
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

    The orbit of the ordered triangle is walked by the generators; the
    unordered orbit is its set of underlying triangles.  The stabilizer
    order is |W| / |orbit|.
    """
    ordered_orbit = orbit(weyl.gens, tuple(triangle)).elements
    size = len(ordered_orbit) if ordered else len({frozenset(t) for t in ordered_orbit})
    return StabilizerResult(len(weyl) // size, size)


def in_general_position(case: str, pa: PointAssignment) -> bool:
    """Interior (non-boundary) test for a constraint-satisfying assignment.

    Distinctness plus the case conditions: nonzero unconstrained points
    for B and G2; x_i + x_j != 0 (all i, j) for C; distinct points for F4.
    """
    s = pa.sigma
    x = pa.points
    if len(set(x)) != len(x):
        return False
    family = case_spec(case).family
    if family == "B":
        return all(not s.is_zero(p) for p in x[1:])
    if family == "C":
        n = len(x) // 2
        half = x[:n]
        return all(
            not s.is_zero(s.add(half[i], half[j]))
            for i in range(n) for j in range(i, n)
        )
    if family == "G2":
        vals = []
        for p in x[1:]:
            vals += [p, s.neg(p)]
        return len(set(vals + [x[0]])) == len(vals) + 1
    return True  # F4
