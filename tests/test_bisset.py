import gc
import weakref
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from simpcat import bisset
from simpcat.bisset import (BidegreeShape, TruncatedBisimplicialSet,
                            box_product, d_star, d_star_map, dec, diag, wbar)
from simpcat.homology import homology_list
from simpcat.scat import pi_functor, pi_levelwise
from simpcat.sset import (SimplicialMap, _monotone_maps, _operator_keys, _tuple_degen,
                          boundary, delta, enumerate_maps, horn, product_sset,
                          sphere)
from helpers import named_tables
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
    tables = named_tables(X)
    for n in X.degrees():
        for x in X.simplices[n]:
            # face relations: (d_i x, a, b) ~ (x, delta_i a, delta_i b)
            if n >= 1:
                for i in range(n + 1):
                    for a in monotone_maps(p, n - 1):
                        for b in monotone_maps(q, n - 1):
                            lift = lambda t: tuple(v if v < i else v + 1 for v in t)
                            union((n - 1, tables[n, n - 1, i][x], a, b),
                                  (n, x, lift(a), lift(b)))
            if n < X.bound:
                for j in range(n + 1):
                    for a in monotone_maps(p, n + 1):
                        for b in monotone_maps(q, n + 1):
                            drop = lambda t: tuple(v if v <= j else v - 1 for v in t)
                            union((n + 1, tables[n, n + 1, j][x], a, b),
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


# ---------------------------------------------------------------------
# the skeleton against the normalizing construction
# ---------------------------------------------------------------------

def reference_last_degeneracies(X):
    """{n: list}: for each degree-n position, the largest j whose s_j has
    that cell in its image, or -1 for a nondegenerate cell."""
    last = {n: [-1] * X.size(n) for n in X.degrees()}
    for n in range(1, X.bound + 1):
        for j in range(n):
            for q in X.positions(n - 1, n, j):
                last[n][q] = j
    return last


def reference_normalize(X, last, n, x, alpha, beta):
    """Canonical representative of the coend class of (x, alpha, beta),
    x a position in degree n of X: shrink to the joint image, strip
    degeneracies of x, repeat."""
    while True:
        img = set(alpha) | set(beta)
        if len(img) != n + 1:
            pos = {v: k for k, v in enumerate(sorted(img))}
            for i in reversed(range(n + 1)):
                if i not in img:
                    x = X.positions(n, n - 1, i)[x]
                    n -= 1
            alpha = tuple(pos[v] for v in alpha)
            beta = tuple(pos[v] for v in beta)
            continue
        j = last[n][x]
        if j >= 0:
            x = X.positions(n, n - 1, j)[x]
            n -= 1
            alpha = tuple(v - (v > j) for v in alpha)
            beta = tuple(v - (v > j) for v in beta)
            continue
        return (n, x, alpha, beta)


def reference_d_star(X):
    """d_star(X) by normalizing every face through the coend relation,
    with each bidegree's cells indexed by a dict."""
    shape = BidegreeShape.staircase(X.bound - 1) if X.bound >= 1 \
        else BidegreeShape.rectangle(0, 0)
    cells = {}
    degrees = [n for n in X.degrees() if X.nondegenerate_positions(n)]
    for (p, q) in shape.support:
        level = cells[(p, q)] = []
        for n in [n for n in degrees if n <= p + q + 1]:
            onto = [(a, b) for a in _monotone_maps(p, n)
                    for b in _monotone_maps(q, n) if len(set(a) | set(b)) == n + 1]
            level += [(n, x, a, b) for x in X.nondegenerate_positions(n)
                      for a, b in onto]
    index = {pq: {c: i for i, c in enumerate(level)} for pq, level in cells.items()}
    last = reference_last_degeneracies(X)

    def faces(at, triples):
        return [at[reference_normalize(X, last, *c)] for c in triples]

    def horizontal(p, q, m, k):
        if m < p:
            return faces(index[(m, q)], [(n, x, a[:k] + a[k + 1:], b)
                                         for n, x, a, b in cells[(p, q)]])
        return [index[(m, q)][n, x, _tuple_degen(a, k), b]
                for n, x, a, b in cells[(p, q)]]

    def vertical(p, q, m, k):
        if m < q:
            return faces(index[(p, m)], [(n, x, a, b[:k] + b[k + 1:])
                                         for n, x, a, b in cells[(p, q)]])
        return [index[(p, m)][n, x, a, _tuple_degen(b, k)]
                for n, x, a, b in cells[(p, q)]]
    simplices = {pq: tuple([(n, X.simplices[n][x], a, b) for n, x, a, b in level])
                 for pq, level in cells.items()}
    bp = (0, X.basepoint, (0,), (0,)) if X.is_pointed() else None
    return TruncatedBisimplicialSet.from_operators(shape, simplices, horizontal,
                                                   vertical, basepoint=bp)


def reference_d_star_map(f):
    """The image of each cell (n, x, alpha, beta) of d_star of f's
    source: the representative of (f(x), alpha, beta)."""
    Y = f.target
    last = reference_last_degeneracies(Y)
    index = {n: {x: i for i, x in enumerate(f.source.simplices[n])}
             for n in f.source.degrees()}

    def image(n, x, alpha, beta):
        m, y, a, b = reference_normalize(Y, last, n, f.positions(n)[index[n][x]],
                                         alpha, beta)
        return (m, Y.simplices[m][y], a, b)
    return {pq: {c: image(*c) for c in cells}
            for pq, cells in d_star(f.source).simplices.items()}


def assert_same_bisimplicial_set(mine, theirs):
    assert mine.shape.support == theirs.shape.support
    assert mine.simplices == theirs.simplices
    assert mine.basepoint == theirs.basepoint
    for lines, reference in ((mine.rows, theirs.rows),
                             (mine.columns, theirs.columns)):
        assert lines.keys() == reference.keys()
        for i, line in lines.items():
            assert line.bound == reference[i].bound
            for key in _operator_keys(line.bound):
                assert line.positions(*key) == reference[i].positions(*key)


def _inclusion(X, Y):
    return SimplicialMap(X, Y, {n: {x: x for x in X.simplices[n]}
                                for n in X.degrees()})


def _standard_up_to_3(b):
    """delta, horn, boundary and sphere with n <= 3 at bound b, each with
    the map whose d_star is checked: the inclusion into the simplex, or
    the identity."""
    simplices = [delta(n, b) for n in range(4)]
    return ([(D, SimplicialMap.identity(D)) for D in simplices]
            + [(X, _inclusion(X, simplices[n])) for n in range(1, 4)
               for X in [horn(n, i, b) for i in range(n + 1)] + [boundary(n, b)]]
            + [(X, SimplicialMap.identity(X))
               for X in (sphere(n, b) for n in range(1, 4))])


@pytest.mark.parametrize("b", range(8))
def test_d_star_skeleton_matches_the_normalizing_construction(b):
    """Equal cells, equal row and column position lists, and equal
    d_star_map images, on every standard set with n <= 3 at bound b."""
    for X, f in _standard_up_to_3(b):
        assert_same_bisimplicial_set(d_star(X), reference_d_star(X))
        assert d_star_map(f).assign == reference_d_star_map(f)


@pytest.mark.parametrize("n, m, b", [(1, 0, 5), (2, 1, 5), (3, 1, 4),
                                     (3, 2, 4)])
def test_d_star_map_collapses_degenerate_images(n, m, b):
    """Every map delta(n) -> delta(m) with m < n sends some nondegenerate
    simplex to a degenerate one, whose pair d_star_map collapses."""
    X, Y = delta(n, b), delta(m, b)
    for f in enumerate_maps(X, Y):
        assert d_star_map(f).assign == reference_d_star_map(f)
        assert d_star_map(f).validate() == []


def test_skeleton_caches_keep_no_set_alive():
    """The skeleton caches hold only ints and tuples of ints: once the
    d_star of a horn inclusion is dropped, both sets and both d_stars
    are freed."""
    H, D = horn(2, 1, 5), delta(2, 5)
    g = d_star_map(_inclusion(H, D))
    assert bisset._pairs.cache_info().currsize > 0
    assert bisset._collapse.cache_info().currsize > 0
    alive = [weakref.ref(obj) for obj in (H, D, g.source, g.target)]
    del H, D, g
    gc.collect()
    assert [ref() for ref in alive] == [None] * 4
