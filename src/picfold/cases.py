"""The folded cases B_n, C_n, G2 and F4: one record per case name.

A case name fixes the blow-up lattice its configurations live on, the
simply-laced type whose diagram automorphism folds to it, and the closed
form of the automorphism's fixed-point condition.  They are written here
once.  Every other module reads them from ``case_spec(name)`` and parses
no case name.  Everything else about a case follows from its diagram
automorphism and is derived in ``folding``: the folded roots and simple
roots, the Weyl groups, and the relations among the blow-up points
x_1, ..., x_m on the curve with the order of their torsion points
(``folding.case_points``).

The invariance rows Q (the fixed-point condition is Q x = 0) are written
out by hand, because ``moduli.invariance_agreement_exhaustive`` checks
this closed form against the direct comparison with the automorphism.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .lattice import F1, P2, IntersectionLattice, make_blowup_lattice

# the simply-laced type folded to each family
FOLDED_TO_SIMPLY_LACED = {"B": "D", "C": "A", "F4": "E6", "G2": "D4-triality"}

Rows = tuple[tuple[int, ...], ...]


class CaseSpec(NamedTuple):
    """The record of one case name: the facts that are not derived from its fold."""

    name: str
    family: str  # "B", "C", "G2" or "F4"
    rank: int
    model: str  # the lattice model, F1 or P2
    npoints: int
    ambient: str  # the folded simply-laced type: "D", "A", "D4-triality" or "E6"
    invariance: Rows  # Q: the fixed-point condition is Q x = 0
    lattice: IntersectionLattice  # make_blowup_lattice(model, npoints)


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
    if family == "B":  # 2 x1 = 0
        model, m, q = F1, n + 1, (_row(n + 1, (1, 2)),)
    elif family == "C":  # the pair sums x_i + x_{2n+1-i} are all equal
        model, m = F1, 2 * n
        q = tuple(_row(m, (i, 1), (m + 1 - i, 1), (1, -1), (m, -1)) for i in range(2, n + 1))
    elif family == "G2":  # 2 x1 = 0, x1 + x4 = x2 + x3
        model, m, q = F1, 4, (_row(4, (1, 2)), _row(4, (1, 1), (2, -1), (3, -1), (4, 1)))
    else:  # F4: x1 + x6 = x2 + x5 = x3 + x4
        model, m, q = P2, 6, (_row(6, (1, 1), (6, 1), (2, -1), (5, -1)),
                              _row(6, (1, 1), (6, 1), (3, -1), (4, -1)))
    return CaseSpec(name, family, n, model, m, FOLDED_TO_SIMPLY_LACED[family], q,
                    make_blowup_lattice(model, m))


def holds(rows: Rows, sigma, points) -> bool:
    """Whether sum_j r_j x_j = 0 in the group of ``sigma`` for every row r."""
    if any(len(r) != len(points) for r in rows):
        raise ValueError(f"relations on {len(rows[0])} points applied to {len(points)}")
    return all(sigma.is_zero(sigma.combine(r, points)) for r in rows)
