"""Small helpers shared by the tests, for what the package stores only
in another form."""

from simpcat.sset import _operator_keys


def named_tables(X):
    """Every operator of the simplicial set X as a dict of names
    {cell: image}, keyed by (n, m, k) as in `X.positions`, rebuilt from
    its position lists with the cells in stored order."""
    cells = X.simplices
    return {(n, m, k): dict(zip(cells[n], map(cells[m].__getitem__,
                                              X.positions(n, m, k))))
            for n, m, k in _operator_keys(X.bound)}


def is_identity(C, m):
    """Whether the morphism m of the finite category C is an identity."""
    return C.ident.get(C.src[m]) == m and C.src[m] == C.tgt[m]
