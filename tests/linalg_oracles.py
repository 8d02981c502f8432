"""Plain-int linear algebra shared by the solver tests as an oracle."""

from fractions import Fraction

from picfold._linalg import smith_normal_form


def mat_vec(a, v):
    """The product of the integer matrix a (a list of rows) and the vector v."""
    return [sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a))]


def integer_kernel(a):
    """Basis of the integer kernel {x : a x = 0}, one vector per column, from a's Smith form.

    The basis spans a saturated (primitive) sublattice.
    """
    if not a or not a[0]:
        return []
    return smith_normal_form(a).kernel()


def decompose_in_basis(x, basis):
    """Integer coordinates of the class x in the independent classes ``basis``.

    Gauss-Jordan elimination over the rationals on the columns of the
    basis; ``ValueError`` unless x is an integral combination of them.
    """
    rows = [[Fraction(b.coords[i]) for b in basis] + [Fraction(c)] for i, c in enumerate(x.coords)]
    k = len(basis)
    for col in range(k):
        pivot = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if pivot is None:
            raise ValueError("the basis classes are dependent")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for i, row in enumerate(rows):
            if i != col and row[col]:
                rows[i] = [a - row[col] * b for a, b in zip(row, rows[col])]
    coords = [row[-1] for row in rows[:k]]
    if any(row[-1] for row in rows[k:]) or any(c.denominator != 1 for c in coords):
        raise ValueError(f"{x} is not an integral combination of the basis")
    return [int(c) for c in coords]
