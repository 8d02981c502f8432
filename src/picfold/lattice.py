"""Picard lattices of blown-up rational surfaces.

Two families are supported: blow-ups of the Hirzebruch surface F1, with
basis (s, f, l1, ..., ln), and blow-ups of the projective plane, with
basis (h, l1, ..., ln).  Intersection numbers follow the standard rules

    F1:  s.s = -1, s.f = 1, f.f = 0, li.lj = -delta_ij, s.li = f.li = 0
    P2:  h.h = 1, li.lj = -delta_ij, h.li = 0

and the canonical class is K = -(2s + 3f - sum li), resp. -(3h - sum li).
All coordinates are plain Python integers, so arithmetic never overflows.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from operator import mul

import numpy as np

F1 = "F1"
P2 = "P2"


class UnboundedSearchError(ValueError):
    """The given constraints do not bound the set of solution classes."""


class DivisorClass:
    """An integer coordinate vector over the ambient lattice basis, compared by ``coords``."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[int, ...]):
        self.coords = coords

    def __eq__(self, other):
        return self.coords == other.coords if other.__class__ is DivisorClass else NotImplemented

    def __lt__(self, other):  # > falls back to the reflected <, >= to <=
        return self.coords < other.coords if other.__class__ is DivisorClass else NotImplemented

    def __le__(self, other):
        return self.coords <= other.coords if other.__class__ is DivisorClass else NotImplemented

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a - b for a, b in zip(self.coords, other.coords, strict=True)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coords))

    def __mul__(self, k: int) -> "DivisorClass":
        return DivisorClass(tuple(k * a for a in self.coords))

    __rmul__ = __mul__

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"DivisorClass{self.coords}"


class IntersectionLattice:
    """A unimodular lattice of signature (1, rank-1) with a fixed basis, equal by its fields."""

    def __init__(self, model: str, npoints: int, basis_labels: tuple[str, ...],
                 gram: tuple[tuple[int, ...], ...], K: DivisorClass):
        self.model, self.npoints, self.basis_labels, self.gram, self.K = (
            model, npoints, basis_labels, gram, K)
        self._key = (model, npoints, basis_labels, gram, K)
        self._hash = hash(self._key)

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is IntersectionLattice else NotImplemented

    def __hash__(self):
        return self._hash

    @property
    def rank(self) -> int:
        return len(self.basis_labels)

    def unit(self, i: int) -> DivisorClass:
        return DivisorClass(tuple(1 if j == i else 0 for j in range(self.rank)))

    @property
    def zero(self) -> DivisorClass:
        return DivisorClass((0,) * self.rank)

    @cached_property
    def s(self) -> DivisorClass:
        if self.model != F1:
            raise ValueError("s is only defined on the F1 model")
        return self.unit(0)

    @cached_property
    def f(self) -> DivisorClass:
        if self.model != F1:
            raise ValueError("f is only defined on the F1 model")
        return self.unit(1)

    @cached_property
    def h(self) -> DivisorClass:
        if self.model != P2:
            raise ValueError("h is only defined on the P2 model")
        return self.unit(0)

    def l(self, i: int) -> DivisorClass:
        """The i-th exceptional class, 1-based."""
        if not 1 <= i <= self.npoints:
            raise ValueError(f"no exceptional class l{i}")
        offset = 2 if self.model == F1 else 1
        return self.unit(offset + i - 1)

    @property
    def l_offset(self) -> int:
        return 2 if self.model == F1 else 1

    def l_coeffs(self, d: DivisorClass) -> tuple[int, ...]:
        return d.coords[self.l_offset:]

    def pair(self, a: DivisorClass, b: DivisorClass) -> int:
        """The symmetric bilinear intersection form."""
        u, v = a.coords, b.coords
        if len(u) != self.rank or len(v) != self.rank:
            raise ValueError("coordinate length does not match lattice rank")
        if self.model == F1:
            return -u[0] * v[0] + u[0] * v[1] + u[1] * v[0] - sum(map(mul, u[2:], v[2:]))
        return u[0] * v[0] - sum(map(mul, u[1:], v[1:]))

    def deg(self, d: DivisorClass) -> int:
        """Degree against the anticanonical class, d.(-K)."""
        return -self.pair(d, self.K)


def make_blowup_lattice(model: str, n: int) -> IntersectionLattice:
    """Blow-up lattice with n exceptional classes for the given model, built once."""
    return _blowup_lattice(model, n)


@lru_cache(maxsize=None)
def _blowup_lattice(model: str, n: int) -> IntersectionLattice:
    if n < 1:
        raise ValueError("need at least one blown-up point")
    if model == F1:
        labels = ("s", "f") + tuple(f"l{i}" for i in range(1, n + 1))
        rank = n + 2
        gram = [[0] * rank for _ in range(rank)]
        gram[0][0] = -1
        gram[0][1] = gram[1][0] = 1
        for i in range(2, rank):
            gram[i][i] = -1
        k = (-2, -3) + (1,) * n
    elif model == P2:
        labels = ("h",) + tuple(f"l{i}" for i in range(1, n + 1))
        rank = n + 1
        gram = [[0] * rank for _ in range(rank)]
        gram[0][0] = 1
        for i in range(1, rank):
            gram[i][i] = -1
        k = (-3,) + (1,) * n
    else:
        raise ValueError(f"unknown model {model!r}")
    return IntersectionLattice(model, n, labels, tuple(map(tuple, gram)), DivisorClass(k))


SELF = "self"


def _sum_sq_vectors(n, total, sq_total):
    """All integer n-vectors with the given sum and sum of squares.

    Pruned by Cauchy-Schwarz at every step: the remaining sum t over the
    remaining n entries needs t^2 <= n * (remaining sum of squares).
    """
    out = []
    cur = [0] * n

    def rec(i, t, q):
        if i == n:
            if t == 0 and q == 0:
                out.append(tuple(cur))
            return
        rem = n - i
        bound = math.isqrt(q)
        for c in range(-bound, bound + 1):
            q2 = q - c * c
            t2 = t - c
            if (rem - 1) * q2 < t2 * t2:
                continue
            cur[i] = c
            rec(i + 1, t2, q2)
        cur[i] = 0

    rec(0, total, sq_total)
    return out


def _quad_range(qa, qb, qc):
    """Integers x with qa*x^2 + qb*x + qc <= 0 (qa > 0); may be empty."""
    disc = qb * qb - 4 * qa * qc
    if disc < 0:
        return range(0)
    root = math.isqrt(disc)
    lo = -(qb + root) // (2 * qa) - 1
    hi = (-qb + root) // (2 * qa) + 1
    return range(lo, hi + 1)


def enumerate_classes(lat: IntersectionLattice, constraints) -> tuple[DivisorClass, ...]:
    """All divisor classes satisfying the given constraints, exhaustively.

    ``constraints`` is an iterable of pairs (against, value) where
    ``against`` is a DivisorClass or the string "self" (for the
    self-intersection).  The search is complete: the self-intersection
    and the pairing against K, both required, bound first the
    hyperbolic-part coefficients (a pairing against f or s on the F1 model
    pins its own) and then, via Cauchy-Schwarz on the negative-definite
    part, each exceptional coefficient.  Raises UnboundedSearchError when
    either is missing, or when no such bound can be derived.
    """
    self_val = None
    linear: list[tuple[DivisorClass, int]] = []
    for against, value in constraints:
        if isinstance(against, str):
            if against != SELF:
                raise ValueError(f"unknown constraint target {against!r}")
            self_val = value
        else:
            linear.append((against, value))
    if self_val is None:
        raise UnboundedSearchError("a self-intersection constraint is required")

    def pinned(target: DivisorClass):
        for cls, val in linear:
            if cls == target:
                return val
            if cls == -target:
                return -val
        return None

    k_val = pinned(lat.K)
    if k_val is None:
        raise UnboundedSearchError(f"the {lat.model} model needs a pairing against K")
    n = lat.npoints
    d = self_val
    results = []

    def emit(head, cs):
        cand = DivisorClass(head + cs)
        if lat.pair(cand, cand) != d:
            return
        for cls, val in linear:
            if lat.pair(cand, cls) != val:
                return
        results.append(cand)

    if lat.model == P2:
        if n >= 9:
            raise UnboundedSearchError("anticanonical square is not positive")
        # D = a h + sum ci li; D.K = -3a - sum ci, D.D = a^2 - sum ci^2.
        for a in _quad_range(9 - n, 6 * k_val, k_val * k_val + n * d):
            q = a * a - d
            if q < 0:
                continue
            for cs in _sum_sq_vectors(n, -k_val - 3 * a, q):
                emit((a,), cs)
    else:
        f_val, s_val = pinned(lat.f), pinned(lat.s)
        if f_val is not None:
            a_range = [f_val]
        else:
            # |-K|^2 > 0 slice: ellipsoid bound on a = D.f.
            p2 = 8 - n
            if p2 <= 0:
                raise UnboundedSearchError("anticanonical square is not positive")
            mu = -k_val
            rad2 = (mu * mu / p2 - d) * 4 / p2
            rad = math.sqrt(max(rad2, 0.0))
            center = 2 * mu / p2
            a_range = range(math.floor(center - rad) - 1, math.ceil(center + rad) + 2)
        for a in a_range:
            if s_val is not None:
                b_range = [s_val + a]
            else:
                qb = 4 * (k_val + a) - 2 * n * a
                qc = (k_val + a) ** 2 + n * (a * a + d)
                b_range = _quad_range(4, qb, qc)
            for b in b_range:
                q = 2 * a * b - a * a - d
                if q < 0:
                    continue
                for cs in _sum_sq_vectors(n, -k_val - a - 2 * b, q):
                    emit((a, b), cs)
    return tuple(sorted(results))


def exceptional_classes(lat: IntersectionLattice) -> tuple[DivisorClass, ...]:
    """All classes e with e.e = e.K = -1 (the lines, on a cubic)."""
    return enumerate_classes(lat, [(SELF, -1), (lat.K, -1)])


def gram_matrix(lat: IntersectionLattice, classes) -> np.ndarray:
    """The (k, k) int64 intersection numbers C G C^T; ``OverflowError`` before 2^62."""
    c = np.array([d.coords for d in classes], dtype=np.int64).reshape(-1, lat.rank)
    g = np.array(lat.gram, dtype=np.int64)
    if int(np.abs(c).max(initial=0)) ** 2 * int(np.abs(g).sum()) >= 2**62:
        raise OverflowError("intersection numbers could exceed 2^62")
    return c @ g @ c.T

