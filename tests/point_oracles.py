"""Per-tuple point oracles: the restriction of classes computed one point tuple at a time.

A point is a tuple of ints: a residue pair (a, b) of a ``SigmaModel``,
reduced mod (m1, m2), or, with ``sigma`` None, a coefficient row over free
parameters, kept exact.  The src kernels compute the same facts on integer
arrays (``moduli.restriction``, ``SigmaModel.form_chunks``,
``repbundles._locus_masks``); the functions here are the plain references
they are checked against: the point relations, the closed-form fixed-point
condition, and a restricted weight bundle as the sorted multiset of its
summands' (degree, point) pairs, twisted by a line and dualized.
"""

from picfold.cases import case_spec
from picfold.repbundles import weight_bundle


def combine(sigma, coeffs, points):
    """sum_j coeffs[j] points[j], reduced mod (m1, m2) unless sigma is None."""
    if len(coeffs) != len(points):
        raise ValueError(f"{len(coeffs)} coefficients applied to {len(points)} points")
    if sigma is None:
        return tuple(map(sum, zip(*([k * v for v in p] for k, p in zip(coeffs, points)))))
    a = b = 0
    for k, p in zip(coeffs, points):
        if k:
            a += k * p[0]
            b += k * p[1]
    return (a % sigma.m1, b % sigma.m2)


def add(sigma, *points):
    return combine(sigma, (1,) * len(points), points)


def neg(sigma, x):
    return combine(sigma, (-1,), (x,))


def scale(sigma, k, x):
    return combine(sigma, (k,), (x,))


def is_zero(sigma, x) -> bool:
    return not any(scale(sigma, 1, x))


def holds(rows, sigma, points) -> bool:
    """Whether sum_j r_j x_j = 0 for every row r; ``ValueError`` on a row of another length."""
    return all(is_zero(sigma, combine(sigma, r, points)) for r in rows)


def u_point(lat, sigma, x, d):
    """The point part of the restriction of O(d): sum of c_i x_i."""
    return combine(sigma, lat.l_coeffs(d), x)


def invariance_closed_form(case, sigma, x) -> bool:
    """The closed-form fixed-point condition on the blow-up points: Q x = 0.

    For C_n the n pair sums must share a single common value (an
    n-torsion point, automatically, since the points sum to zero); the
    weaker elementwise condition n (x_i + x_{2n+1-i}) = 0 is equivalent
    only for n = 2.
    """
    return holds(case_spec(case).invariance, sigma, x)


def invariance_literal_c(sigma, x) -> bool:
    """n (x_i + x_{2n+1-i}) = 0 for every i (necessary, not sufficient for n >= 3)."""
    n = len(x) // 2
    return all(is_zero(sigma, scale(sigma, n, add(sigma, x[i], x[2 * n - 1 - i])))
               for i in range(n))


def line_class_of(lat, sigma, x, d):
    return (lat.deg(d), u_point(lat, sigma, x, d))


def restrict_bundle(bundle, lat, sigma, x) -> tuple:
    """Sorted multiset of (degree, point) pairs of the restricted summands."""
    return tuple(sorted(line_class_of(lat, sigma, x, d) for d in bundle))


def tensor_line(restricted, twist, sigma) -> tuple:
    d0, p0 = twist
    return tuple(sorted((d + d0, add(sigma, p, p0)) for d, p in restricted))


def dual(restricted, sigma) -> tuple:
    return tuple(sorted((-d, neg(sigma, p)) for d, p in restricted))


def check_identification(lhs, rhs) -> bool:
    """Multiset equality of restricted summand data."""
    return tuple(sorted(lhs)) == tuple(sorted(rhs))


def twisted_identity(lat, sigma, x, lhs_kind: str, twist, rhs_kind: str) -> bool:
    """Whether lhs ⊗ O(twist) and rhs restrict to the same multiset at the points x."""
    lhs = restrict_bundle(weight_bundle(lhs_kind, lat), lat, sigma, x)
    if twist is not None:
        lhs = tensor_line(lhs, line_class_of(lat, sigma, x, twist), sigma)
    rhs = restrict_bundle(weight_bundle(rhs_kind, lat), lat, sigma, x)
    return check_identification(lhs, rhs)
