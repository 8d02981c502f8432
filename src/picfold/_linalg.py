"""Exact integer linear algebra used across the package.

Everything works on plain Python ints (arbitrary precision); ``Fraction``
enters only in ``rational_solve``, the one solver over Q.  numpy enters
only as a convenient container at call sites.  Matrices are lists of
lists (rows).
"""

from __future__ import annotations

from fractions import Fraction


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def mat_vec(a, v):
    return [sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a))]


def bareiss_det(a) -> int:
    """Fraction-free determinant of a square integer matrix."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def bareiss_solve(a, b) -> tuple[list[int], int]:
    """(x, d) with a x = d b, d = +-det(a), for a nonsingular square integer matrix a.

    Fraction-free elimination on [a | b]: each row step divides exactly by
    the previous pivot, and d, the last pivot, is the determinant of a with
    its rows permuted.  The solution d a^-1 b = +-adj(a) b is integral, so
    the back substitution divides exactly too.  Raises ValueError when a
    is singular.
    """
    n = len(a)
    m = [list(map(int, row)) + [int(v)] for row, v in zip(a, b)]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            raise ValueError("singular matrix")
        m[k], m[p] = m[p], m[k]
        for i in range(k + 1, n):
            m[i] = [(x * m[k][k] - m[i][k] * y) // prev for x, y in zip(m[i], m[k])]
        prev = m[k][k]
    x = [0] * n
    for i in reversed(range(n)):
        x[i] = (prev * m[i][n] - sum(m[i][j] * x[j] for j in range(i + 1, n))) // m[i][i]
    return x, prev


class SNFDecomposition:
    """A = U * S * V with U, V unimodular and S diagonal, d1 | d2 | ...

    ``uinv`` and ``vinv`` are the exact integer inverses, kept around so
    linear systems can be solved without re-inverting.
    """

    __slots__ = ("u", "s", "v", "uinv", "vinv", "diag")

    def __init__(self, u, s, v, uinv, vinv):
        self.u, self.s, self.v, self.uinv, self.vinv = u, s, v, uinv, vinv
        m, n = len(s), len(s[0]) if s else 0
        self.diag = [s[i][i] for i in range(min(m, n))]


def smith_normal_form(a) -> SNFDecomposition:
    """Diagonalize an integer matrix by elementary row/column operations.

    Each round pivots on the smallest nonzero entry of the remaining block
    and reduces the pivot's row and column by rounded division.  A nonzero
    remainder, at most half the pivot, makes the next round pick a smaller
    pivot; a block entry the pivot does not divide is first added into the
    pivot row.  So d_1 | d_2 | ... holds when the block is done.  A fresh
    pivot each round keeps the growth moderate, but U, V and their inverses
    are Python ints of no fixed size (past 2^62 on random 8 x 8 matrices
    with entries <= 4): a caller that moves them into int64 checks first.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    s = [list(map(int, row)) for row in a]
    u = identity_matrix(m)
    uinv = identity_matrix(m)
    v = identity_matrix(n)
    vinv = identity_matrix(n)

    # Row op L applied to S (S <- L S) keeps A = (U L^-1)(L S) V.
    def row_swap(i, k):
        s[i], s[k] = s[k], s[i]
        uinv[i], uinv[k] = uinv[k], uinv[i]
        for r in range(m):
            u[r][i], u[r][k] = u[r][k], u[r][i]

    def row_add(i, k, q):  # row i += q * row k
        s[i] = [x + q * y for x, y in zip(s[i], s[k])]
        uinv[i] = [x + q * y for x, y in zip(uinv[i], uinv[k])]
        for r in range(m):
            u[r][k] -= q * u[r][i]

    def row_neg(i):
        s[i] = [-x for x in s[i]]
        uinv[i] = [-x for x in uinv[i]]
        for r in range(m):
            u[r][i] = -u[r][i]

    def col_swap(j, k):
        for r in range(m):
            s[r][j], s[r][k] = s[r][k], s[r][j]
        v[j], v[k] = v[k], v[j]
        for r in range(n):
            vinv[r][j], vinv[r][k] = vinv[r][k], vinv[r][j]

    def col_add(j, k, q):  # col j += q * col k
        for r in range(m):
            s[r][j] += q * s[r][k]
        for r in range(n):
            vinv[r][j] += q * vinv[r][k]
        v[k] = [x - q * y for x, y in zip(v[k], v[j])]

    def pivot_from(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] != 0 and (best is None or abs(s[i][j]) < abs(s[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(m, n):
        pos = pivot_from(t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        if s[t][t] < 0:
            row_neg(t)
        p = s[t][t]
        for i in range(t + 1, m):
            if s[i][t]:
                row_add(i, t, -((2 * s[i][t] + p) // (2 * p)))
        for j in range(t + 1, n):
            if s[t][j]:
                col_add(j, t, -((2 * s[t][j] + p) // (2 * p)))
        if any(s[i][t] for i in range(t + 1, m)) or any(s[t][j] for j in range(t + 1, n)):
            continue
        bad = next((i for i in range(t + 1, m) for j in range(t + 1, n) if s[i][j] % p), None)
        if bad is not None:
            row_add(t, bad, 1)
            continue
        t += 1
    return SNFDecomposition(u, s, v, uinv, vinv)


def integer_kernel(a):
    """Basis of the integer kernel {x : a x = 0}, one vector per column.

    The basis spans a saturated (primitive) sublattice.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    if n == 0:
        return []
    snf = smith_normal_form(a)
    basis = []
    for j in range(n):
        d = snf.s[j][j] if j < min(m, n) else 0
        if j >= m or d == 0:
            basis.append([snf.vinv[i][j] for i in range(n)])
    return basis


def rational_solve(a, b):
    """Solve a x = b exactly over Q.

    ``a`` is m x n with independent columns; raises ValueError if the
    system is inconsistent or underdetermined.  Returns Fractions.
    """
    m, n = len(a), len(a[0])
    rows = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(m)]
    piv_cols = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pr = rows[r]
        inv = 1 / pr[c]
        rows[r] = [x * inv for x in pr]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    if len(piv_cols) < n:
        raise ValueError("columns are not independent")
    for i in range(r, m):
        if rows[i][n] != 0:
            raise ValueError("inconsistent system")
    sol = [Fraction(0)] * n
    for i, c in enumerate(piv_cols):
        sol[c] = rows[i][n]
    return sol


def integer_left_inverse(b):
    """(L, den) with L integer and L @ b = den * I, for b with independent columns.

    From the Smith form b = U S V with invariant factors d_1 | ... | d_k:
    (U^-1)[:k] b = diag(d) V, so L = V^-1 diag(d_k / d_i) (U^-1)[:k] and
    den = d_k.  Raises ValueError when the columns are dependent.
    """
    k = len(b[0])
    snf = smith_normal_form(b)
    if len(snf.diag) < k or snf.diag[-1] == 0:
        raise ValueError("columns are not independent")
    den = snf.diag[-1]
    scaled = [[den // d * x for x in row] for d, row in zip(snf.diag, snf.uinv)]
    return mat_mul(snf.vinv, scaled), den
