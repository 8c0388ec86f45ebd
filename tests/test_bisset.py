import gc
import weakref
from itertools import combinations_with_replacement

from hypothesis import given, settings, strategies as st

from simpcat import bisset
from simpcat.bisset import (BidegreeShape, box_product, d_star, d_star_map,
                            dec, diag, wbar)
from simpcat.homology import homology_list
from simpcat.scat import pi_functor, pi_levelwise
from simpcat.sset import (SimplicialMap, _operator_keys, boundary, delta, horn,
                          product_sset, sphere)
from strategies import standard


def monotone_maps(k, n):
    """All order-preserving maps [k] -> [n] as value tuples."""
    return [tuple(v) for v in combinations_with_replacement(range(n + 1), k + 1)]


def brute_d_star_classes(X, p, q):
    """Independent coend at bidegree (p, q): triples (simplex, map to
    [p]-direction, map to [q]-direction) modulo the relation that slides
    structure maps across the simplex.  Returns {triple: the least
    triple of its class}, over every triple with x a name of X."""
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
    return {c: find(c) for c in cells}


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
            classes = brute_d_star_classes(X, p, q)
            assert len(B.simplices[(p, q)]) == len(set(classes.values()))


def _moved(t, m, k):
    """The monotone map t: [r] -> [n] composed with the coface or
    codegeneracy of d_k or s_k into [m]: entry k dropped (m < r) or
    repeated (m > r)."""
    return t[:k] + t[k + 1:] if m < len(t) - 1 else t[:k + 1] + t[k:]


@settings(max_examples=30, deadline=None)
@given(standard())
def test_d_star_tables_match_brute_coend(X):
    """Each cell of d_star X is one whole coend class, and each face and
    degeneracy table sends a cell to the class of the operator applied
    to it as a triple."""
    B = d_star(X)
    classes = {pq: brute_d_star_classes(X, *pq) for pq in B.shape.support}
    for pq, cells in B.simplices.items():
        assert len({classes[pq][c] for c in cells}) == len(cells) \
            == len(set(classes[pq].values()))
    for lines, horizontal in ((B.rows, True), (B.columns, False)):
        for i, line in lines.items():
            for r, m, k in _operator_keys(line.bound):
                at = (m, i) if horizontal else (i, m)
                for (n, x, alpha, beta), j in zip(line.simplices[r],
                                                  line.positions(r, m, k)):
                    moved = ((n, x, _moved(alpha, m, k), beta) if horizontal
                             else (n, x, alpha, _moved(beta, m, k)))
                    assert classes[at][moved] == classes[at][line.simplices[m][j]]


def test_d_star_is_built_once_per_set(monkeypatch):
    """A horn probe builds d_star of the simplex once: `d_star_map`
    reuses the d_star that the caller built for its target."""
    built, build = [], bisset._build_d_star
    monkeypatch.setattr(bisset, "_build_d_star",
                        lambda X: built.append(X) or build(X))
    D, H = delta(2, 4), horn(2, 1, 4)
    incl = SimplicialMap(H, D, {k: {x: x for x in H.simplices[k]}
                                for k in H.degrees()})
    assert d_star(D) is d_star(D)
    target = pi_levelwise(d_star(D))
    f = d_star_map(incl)
    pi_functor(f, target_pi=target)
    assert f.source is d_star(H) and f.target is d_star(D)
    assert [X is D for X in built] == [True, False]


def test_d_star_memo_dies_with_its_set():
    X = delta(1, 3)
    d_star(X)
    alive = weakref.ref(X)
    del X
    gc.collect()
    assert alive() is None


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
