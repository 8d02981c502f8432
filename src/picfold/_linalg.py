"""Exact integer linear algebra used across the package.

Everything works on plain Python ints (arbitrary precision); ``Fraction``
enters only in ``reduced_echelon``, the one elimination over Q.  numpy
enters only as a convenient container at call sites.  Matrices are lists
of lists (rows).
"""

from __future__ import annotations

from fractions import Fraction


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


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
    """U^-1 A V^-1 = S with U^-1, V^-1 unimodular and S diagonal, d1 | d2 | ...

    Only the inverses are kept: linear systems are solved with them, and
    the kernel is read off V^-1.
    """

    __slots__ = ("s", "uinv", "vinv", "diag")

    def __init__(self, s, uinv, vinv):
        self.s, self.uinv, self.vinv = s, uinv, vinv
        m, n = len(s), len(s[0]) if s else 0
        self.diag = [s[i][i] for i in range(min(m, n))]

    def kernel(self) -> list[list[int]]:
        """A basis of the integer kernel of A: the columns of V^-1 past the nonzero diagonal."""
        rank = sum(1 for d in self.diag if d)
        return [[row[j] for row in self.vinv] for j in range(rank, len(self.vinv))]


def smith_normal_form(a) -> SNFDecomposition:
    """Diagonalize an integer matrix by elementary row/column operations.

    Each round pivots on the smallest nonzero entry of the remaining block
    and reduces the pivot's row and column by rounded division.  A nonzero
    remainder, at most half the pivot, makes the next round pick a smaller
    pivot; a block entry the pivot does not divide is first added into the
    pivot row.  So d_1 | d_2 | ... holds when the block is done.  A fresh
    pivot each round keeps the growth moderate, but U^-1 and V^-1
    are Python ints of no fixed size (past 2^62 on random 8 x 8 matrices
    with entries <= 4): a caller that moves them into int64 checks first.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    s = [list(map(int, row)) for row in a]
    uinv = identity_matrix(m)
    vinv = identity_matrix(n)

    # each row op on S is applied to U^-1 and each column op to V^-1: U^-1 A V^-1 = S
    def row_swap(i, k):
        s[i], s[k] = s[k], s[i]
        uinv[i], uinv[k] = uinv[k], uinv[i]

    def row_add(i, k, q):  # row i += q * row k
        s[i] = [x + q * y for x, y in zip(s[i], s[k])]
        uinv[i] = [x + q * y for x, y in zip(uinv[i], uinv[k])]

    def row_neg(i):
        s[i] = [-x for x in s[i]]
        uinv[i] = [-x for x in uinv[i]]

    def col_swap(j, k):
        for r in range(m):
            s[r][j], s[r][k] = s[r][k], s[r][j]
        for r in range(n):
            vinv[r][j], vinv[r][k] = vinv[r][k], vinv[r][j]

    def col_add(j, k, q):  # col j += q * col k
        for r in range(m):
            s[r][j] += q * s[r][k]
        for r in range(n):
            vinv[r][j] += q * vinv[r][k]

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
    return SNFDecomposition(s, uinv, vinv)


def integer_kernel(a):
    """Basis of the integer kernel {x : a x = 0}, one vector per column.

    The basis spans a saturated (primitive) sublattice.
    """
    if not a or not a[0]:
        return []
    return smith_normal_form(a).kernel()


def reduced_echelon(a) -> tuple[list[list[Fraction]], list[int]]:
    """(E, pivots): the reduced row echelon form E of a over Q without its zero rows.

    A column is a pivot when it is independent of the columns before it.
    Rows stay integral until each pivot row is divided by its pivot.
    """
    rows, pivots = [list(row) for row in a], []
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(len(pivots), len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        r = len(pivots)
        rows[r], rows[p] = rows[p], rows[r]
        for i, row in enumerate(rows):
            if i != r and row[c] != 0:
                rows[i] = [rows[r][c] * x - row[c] * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    return [[Fraction(x, row[c]) for x in row] for row, c in zip(rows, pivots)], pivots


def rational_solve(a, b):
    """Solve a x = b exactly over Q.

    ``a`` is m x n with independent columns; raises ValueError if the
    system is inconsistent or underdetermined.  Returns Fractions.
    """
    n = len(a[0])
    rows, pivots = reduced_echelon([list(row) + [v] for row, v in zip(a, b)])
    if pivots[:n] != list(range(n)):
        raise ValueError("columns are not independent")
    if len(pivots) > n:
        raise ValueError("inconsistent system")
    return [row[n] for row in rows]


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
