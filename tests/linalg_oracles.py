"""Plain-int linear algebra shared by the solver tests as an oracle."""


def mat_vec(a, v):
    """The product of the integer matrix a (a list of rows) and the vector v."""
    return [sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a))]
