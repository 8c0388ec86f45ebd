from itertools import combinations_with_replacement

from hypothesis import given, settings, strategies as st

from simpcat.bisset import (BidegreeShape, box_product, d_star, dec, diag,
                            wbar)
from simpcat.homology import homology_list
from simpcat.sset import boundary, delta, product_sset, sphere
from strategies import standard


def monotone_maps(k, n):
    """All order-preserving maps [k] -> [n] as value tuples."""
    return [tuple(v) for v in combinations_with_replacement(range(n + 1), k + 1)]


def brute_d_star_size(X, p, q):
    """Independent count of the coend cells at bidegree (p, q): triples
    (simplex, map to [p]-direction, map to [q]-direction) modulo the
    relation that slides structure maps across the simplex."""
    parent = {}

    def find(c):
        while parent.get(c, c) != c:
            c = parent[c]
        return c

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    cells = []
    for n in X.degrees():
        for x in X.simplices[n]:
            for alpha in monotone_maps(p, n):
                for beta in monotone_maps(q, n):
                    cells.append((n, x, alpha, beta))
    for c in cells:
        parent.setdefault(c, c)
    for n in X.degrees():
        for x in X.simplices[n]:
            # face relations: (d_i x, a, b) ~ (x, delta_i a, delta_i b)
            if n >= 1:
                for i in range(n + 1):
                    for a in monotone_maps(p, n - 1):
                        for b in monotone_maps(q, n - 1):
                            lift = lambda t: tuple(v if v < i else v + 1 for v in t)
                            union((n - 1, X.face(n, i, x), a, b),
                                  (n, x, lift(a), lift(b)))
            if n < X.bound:
                for j in range(n + 1):
                    for a in monotone_maps(p, n + 1):
                        for b in monotone_maps(q, n + 1):
                            drop = lambda t: tuple(v if v <= j else v - 1 for v in t)
                            union((n + 1, X.degen(n, j, x), a, b),
                                  (n, x, drop(a), drop(b)))
    return len({find(c) for c in cells})


def test_dec_shape_and_sizes():
    Y = delta(1, 3)
    B = dec(Y)
    for (p, q) in B.shape.sorted():
        assert len(B.simplices[(p, q)]) == Y.size(p + q + 1)
    assert B.audit() == []


def test_d_star_audit():
    assert d_star(delta(1, 4)).audit() == []
    assert d_star(boundary(2, 4)).audit() == []


def test_d_star_matches_brute_coend():
    for X in (delta(1, 3), sphere(1, 3)):
        B = d_star(X)
        for (p, q) in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]:
            assert len(B.simplices[(p, q)]) == brute_d_star_size(X, p, q)


def test_d_star_of_interval_is_a_square():
    ds = d_star(delta(1, 4))
    bx = box_product(delta(1, 3), delta(1, 3))
    common = sorted(set(ds.shape.sorted()) & set(bx.shape.sorted()))
    assert common
    for pq in common:
        assert len(ds.simplices[pq]) == len(bx.simplices[pq])


def test_box_product_audit_and_diag():
    X, Y = delta(1, 3), delta(1, 3)
    B = box_product(X, Y)
    assert B.audit() == []
    D = diag(B)
    P = product_sset(X, Y)
    assert [D.size(n) for n in D.degrees()] == [P.size(n) for n in P.degrees()]
    assert D.audit() == []


def test_wbar_of_dec_triangle():
    W = wbar(dec(delta(2, 4)))
    assert [W.size(n) for n in W.degrees()] == [6, 20, 50, 105]
    assert W.audit() == []


def test_diag_of_dec_is_certified_contractible_in_low_degrees():
    from simpcat.homology import homology_list
    D = diag(dec(delta(2, 7)))
    assert [str(h) for h in homology_list(D, 2)] == ["Z", "0", "0"]


def test_shapes():
    r = BidegreeShape.rectangle(2, 3)
    assert (2, 3) in r and (3, 3) not in r
    s = BidegreeShape.staircase(3)
    assert (1, 2) in s and (2, 2) not in s


def _bisimplicial_sets(Y):
    """dec Y (when its bound allows), d_star Y and Y box delta(1)."""
    return (([dec(Y)] if Y.bound >= 1 else [])
            + [d_star(Y), box_product(Y, delta(1, Y.bound))])


@settings(max_examples=50, deadline=None)
@given(standard(st.integers(min_value=0, max_value=5)))
def test_diag_and_wbar_have_the_same_homology(Y):
    """Cegarra & Remedios: diag B and wbar B are weakly equivalent, so
    their homologies agree in every degree that both certify."""
    for B in _bisimplicial_sets(Y):
        assert B.audit() == []
        D, W = diag(B), wbar(B)
        t = min(D.bound, W.bound) - 1
        assert homology_list(D, t) == homology_list(W, t)
