"""The folded cases B_n, C_n, G2 and F4: one record per case name.

A case is fixed by a few facts: the blow-up lattice its configurations
live on, the simply-laced type whose diagram automorphism folds to it,
the linear relations among its blow-up points x_1, ..., x_m on the
curve, and the closed form of the automorphism's fixed-point condition.
They are written here once.  Every other module reads them from
``case_spec(name)`` and parses no case name.  The folded roots and simple
roots are not case facts: ``folding`` derives them from the ambient type's
diagram automorphism.

The point relations are written as one integer matrix P, x = P t, over
one free parameter per rank.  The relation rows R (R x = 0) are derived
from it as an integer basis of its left kernel.  P has Smith normal form
all ones, so its image is saturated: R x = 0 holds exactly on the image
of P, over the integers and over every finite abelian group.

The invariance rows Q (the fixed-point condition is Q x = 0) are written
out by hand, because ``moduli.invariance_agreement_exhaustive`` checks
this closed form against the direct comparison with the automorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from ._linalg import integer_kernel
from .lattice import F1, P2, IntersectionLattice, make_blowup_lattice

# the simply-laced type folded to each family
FOLDED_TO_SIMPLY_LACED = {"B": "D", "C": "A", "F4": "E6", "G2": "D4-triality"}

Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CaseSpec:
    """Everything the other modules need to know about one case."""

    name: str
    family: str  # "B", "C", "G2" or "F4"
    rank: int
    model: str  # the lattice model, F1 or P2
    npoints: int
    ambient: str  # the folded simply-laced type: "D", "A", "D4-triality" or "E6"
    torsion: int  # order of the torsion points that label the fixed components
    points: Rows  # P: x = P t, one row per blow-up point
    invariance: Rows  # Q: the fixed-point condition is Q x = 0

    @cached_property
    def relations(self) -> Rows:
        """R: a basis of the integer vectors r with r P = 0."""
        return tuple(tuple(r) for r in integer_kernel([list(c) for c in zip(*self.points)]))

    @cached_property
    def lattice(self) -> IntersectionLattice:
        return make_blowup_lattice(self.model, self.npoints)


def _row(n: int, *terms: tuple[int, int]) -> tuple[int, ...]:
    """The row sum c e_i over the given (i, c), 1-based."""
    row = [0] * n
    for i, c in terms:
        row[i - 1] += c
    return tuple(row)


@lru_cache(maxsize=None)
def case_spec(name: str) -> CaseSpec:
    """The record of a case name: "Bn", "Cn" (n >= 1), "G2" or "F4"."""
    family = name if name in ("G2", "F4") else name[:1]
    if family not in FOLDED_TO_SIMPLY_LACED or not name[1:].isdigit() or int(name[1:]) < 1:
        raise ValueError(f"unknown case {name!r}")
    n = int(name[1:])
    ambient = FOLDED_TO_SIMPLY_LACED[family]
    if family == "B":
        # x1 = 0; x2, ..., x_{n+1} free
        return CaseSpec(name, family, n, F1, n + 1, ambient, 2,
                        ((0,) * n,) + tuple(_row(n, (i, 1)) for i in range(1, n + 1)),
                        (_row(n + 1, (1, 2)),))
    if family == "C":
        # x_{2n+1-i} = -x_i; slot order (a_1, ..., a_n, b_n, ..., b_1) of the pairs
        m = 2 * n
        return CaseSpec(name, family, n, F1, m, ambient, n,
                        tuple(_row(n, (i, 1)) for i in range(1, n + 1))
                        + tuple(_row(n, (i, -1)) for i in range(n, 0, -1)),
                        tuple(_row(m, (i, 1), (m + 1 - i, 1), (1, -1), (m, -1))
                              for i in range(2, n + 1)))
    if family == "G2":
        # x1 = 0, x4 = x2 + x3
        return CaseSpec(name, family, n, F1, 4, ambient, 2,
                        ((0, 0), (1, 0), (0, 1), (1, 1)),
                        (_row(4, (1, 2)), _row(4, (1, 1), (2, -1), (3, -1), (4, 1))))
    # F4: x1 + x6 = x2 + x5 = x3 + x4 = p, with t = (x1, x2, x3, p)
    return CaseSpec(name, family, n, P2, 6, ambient, 1,
                    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                     (0, 0, -1, 1), (0, -1, 0, 1), (-1, 0, 0, 1)),
                    (_row(6, (1, 1), (6, 1), (2, -1), (5, -1)),
                     _row(6, (1, 1), (6, 1), (3, -1), (4, -1))))


def point_relations(constraint: str, npoints: int) -> Rows:
    """The rows R of a point constraint on an npoints-tuple.

    ``constraint`` is a case name, a bare "B" or "C" (the rank taken from
    the number of points), or "A": the ambient zero-sum condition.
    """
    if constraint == "A":
        return ((1,) * npoints,)
    if constraint == "B":
        constraint = f"B{npoints - 1}"
    elif constraint == "C":
        constraint = f"C{npoints // 2}"
    spec = case_spec(constraint)
    if spec.npoints != npoints:
        raise ValueError(f"{constraint} expects {spec.npoints} points, got {npoints}")
    return spec.relations


def holds(rows: Rows, sigma, points) -> bool:
    """Whether sum_j r_j x_j = 0 in the group of ``sigma`` for every row r."""
    if any(len(r) != len(points) for r in rows):
        raise ValueError(f"relations on {len(rows[0])} points applied to {len(points)}")
    return all(sigma.is_zero(sigma.combine(r, points)) for r in rows)
