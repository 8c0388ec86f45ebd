import itertools

import pytest
from hypothesis import given, settings, strategies as st

from simpcat.bisset import dec
from simpcat.sset import (SimplicialError, SimplicialMap,
                          TruncatedSimplicialSet, boundary, c_sigma,
                          colimit_sset, coproduct, delta, enumerate_maps,
                          generated_subcomplex, horn, normalize_word, point,
                          product_sset, quotient, sphere, truncate, two_point)

from helpers import named_tables
from strategies import standard


def test_delta_sizes():
    X = delta(1, 2)
    assert [X.size(n) for n in X.degrees()] == [2, 3, 4]
    assert [len(X.nondegenerate(n)) for n in X.degrees()] == [2, 1, 0]
    assert X.audit() == []


def test_boundary_sizes():
    X = boundary(2, 3)
    assert [X.size(n) for n in X.degrees()] == [3, 6, 9, 12]
    assert [len(X.nondegenerate(n)) for n in X.degrees()] == [3, 3, 0, 0]
    assert X.audit() == []


def test_horn_is_boundary_minus_one_face():
    for i in range(3):
        H = horn(2, i, 3)
        assert len(H.nondegenerate(1)) == 2
        assert H.audit() == []


def test_sphere_sizes():
    X = sphere(1, 3)
    assert [X.size(n) for n in X.degrees()] == [1, 2, 3, 4]
    assert X.is_pointed()
    assert X.audit() == []


def test_point_and_two_point():
    assert point(3).size(2) == 1
    T = two_point(3)
    assert T.is_pointed()
    assert [T.size(n) for n in T.degrees()] == [2, 2, 2, 2]


def test_product_square():
    P = product_sset(delta(1, 2), delta(1, 2))
    assert [P.size(n) for n in P.degrees()] == [4, 9, 16]
    assert len(P.nondegenerate(2)) == 2
    assert P.audit() == []


def test_c_sigma_vertex_cone():
    C = c_sigma(2, (0,), 3)
    assert [C.size(n) for n in C.degrees()] == [3, 5, 7, 9]
    assert [len(C.nondegenerate(n)) for n in C.degrees()] == [3, 2, 0, 0]
    assert C.audit() == []


def test_c_sigma_needs_proper_face():
    with pytest.raises(SimplicialError):
        c_sigma(2, (0, 1, 2), 3)


def test_truncate():
    X = truncate(delta(2, 4), 2)
    assert X.bound == 2
    assert X.audit() == []


def test_quotient_interval_to_circle():
    Q, proj = quotient(delta(1, 3), [(0, (0,), (1,))])
    S = sphere(1, 3)
    assert [Q.size(n) for n in Q.degrees()] == [S.size(n) for n in S.degrees()]
    assert Q.audit() == []
    assert proj.validate() == []


def test_coproduct_injections():
    X, (i0, i1) = coproduct([delta(0, 2), delta(0, 2)])
    assert X.size(0) == 2
    assert i0.validate() == [] and i1.validate() == []


def test_colimit_wedge_of_circles():
    A, B = sphere(1, 3), sphere(1, 3)
    P = point(3)
    (m0,) = enumerate_maps(P, A, fixed={(0, P.simplices[0][0]): A.basepoint})
    (m1,) = enumerate_maps(P, B, fixed={(0, P.simplices[0][0]): B.basepoint})
    W, cocones = colimit_sset([P, A, B], [(0, 1, m0), (0, 2, m1)])
    assert W.size(0) == 1
    assert len(W.nondegenerate(1)) == 2
    assert W.audit() == []
    for c in cocones:
        assert c.validate() == []


def test_generated_subcomplex():
    X = boundary(2, 3)
    e = X.nondegenerate(1)[0]
    Y = generated_subcomplex(X, [(1, e)])
    assert len(Y.nondegenerate(1)) == 1
    assert Y.size(0) == 2
    assert Y.audit() == []


def test_enumerate_maps_representable():
    # maps out of a simplex are the simplices of the target
    X = boundary(2, 3)
    assert len(enumerate_maps(delta(1, 3), X)) == X.size(1)
    assert len(enumerate_maps(delta(0, 3), X)) == X.size(0)


def test_enumerate_maps_counts():
    assert len(enumerate_maps(boundary(1, 2), two_point(2))) == 4
    T = two_point(2)
    pointed = {(0, T.basepoint): T.basepoint}
    assert len(enumerate_maps(T, T, fixed=pointed)) == 2


def test_enumerate_maps_fixed_cells():
    T = two_point(2)
    X = boundary(1, 2)
    v = X.simplices[0][0]
    fixed = {(0, v): T.basepoint}
    maps = enumerate_maps(X, T, fixed=fixed)
    assert len(maps) == 2
    assert all(f(0, v) == T.basepoint for f in maps)


def test_enumerate_maps_from_a_wide_source():
    # the search keeps its own stack: 1,500 components are not 1,500
    # nested calls
    X, _ = coproduct([point(1)] * 1500)
    (f,) = enumerate_maps(X, point(1))
    assert f.validate() == []


def test_simplicial_map_validate_catches_breakage():
    X = delta(1, 2)
    f = SimplicialMap.identity(X)
    f.assign[0][(0,)] = (1,)
    assert f.validate() != []


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=5))
def test_normalize_word_is_strictly_decreasing(word):
    out = normalize_word(tuple(word))
    assert len(out) == len(word)
    assert all(a > b for a, b in zip(out, out[1:]))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
def test_quotient_of_vertices_still_audits(a, b):
    X = boundary(2, 3)
    Q, proj = quotient(X, [(0, (a,), (b,))])
    assert Q.audit() == []
    assert proj.validate() == []


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=2), st.integers(min_value=2, max_value=3))
def test_products_audit(n, bound):
    P = product_sset(delta(n, bound), delta(1, bound))
    assert P.audit() == []


def eager_ez(X):
    """Eilenberg-Zilber data by brute force: the nondegenerate cells are
    those outside the image of every degeneracy, and each cell is found
    as s_{w_0} ... s_{w_{k-1}} y for exactly one nondegenerate y and one
    strictly decreasing word w."""
    nondegenerate, ez, tables = {}, {}, named_tables(X)
    for n in X.degrees():
        images = {tables[n - 1, n, j][y]
                  for j in range(n) for y in X.simplices[n - 1]}
        nondegenerate[n] = tuple(x for x in X.simplices[n] if x not in images)
        ez[n] = {}
        for k in range(n + 1):
            for word in itertools.combinations(range(n - 1, -1, -1), k):
                for y in nondegenerate[n - k]:
                    x = y
                    for m, j in enumerate(reversed(word), start=n - k):
                        x = tables[m, m + 1, j][x]
                    assert x not in ez[n], (n, x)
                    ez[n][x] = (y, word)
        assert set(ez[n]) == set(X.simplices[n])
    return nondegenerate, ez


def _row(X, q):
    return dec(X).row(q)


@pytest.mark.parametrize("X", [
    delta(2, 3), boundary(2, 3), horn(2, 1, 3), sphere(2, 3), sphere(1, 4),
    quotient(delta(2, 3), [(1, (0, 1), (1, 2))])[0],
    product_sset(delta(1, 3), sphere(1, 3)),
    _row(delta(1, 3), 0), _row(delta(1, 3), 1), _row(sphere(1, 4), 1),
], ids=["delta", "boundary", "horn", "sphere-2", "sphere-1", "quotient",
        "product", "dec-delta-row-0", "dec-delta-row-1", "dec-sphere-row-1"])
def test_ez_matches_eager_reference(X):
    nondegenerate, ez = eager_ez(X)
    for n in X.degrees():
        assert X.nondegenerate(n) == nondegenerate[n]
        for x in X.simplices[n]:
            assert X.ez(n, x) == ez[n][x]
            assert X.is_degenerate(n, x) == bool(ez[n][x][1])


def test_missing_degeneracy_table_is_reported_by_the_audit():
    """Eilenberg-Zilber data is derived on first use, so a set built in
    code without one degeneracy table constructs, and its audit names the
    table instead of the constructor raising a KeyError."""
    D = delta(1, 2)
    tables = named_tables(D)
    X = TruncatedSimplicialSet.from_names(
        2, D.simplices,
        lambda n, m, k: None if (n, m, k) == (1, 2, 0) else tables[n, m, k])
    assert "missing degeneracy table s_0 at degree 1" in X.audit()


def _operator_keys(X):
    return [(n, m, k) for n in X.degrees() for m in (n - 1, n + 1)
            if 0 <= m <= X.bound for k in range(n + 1)]


def _dec_rows(X):
    B = dec(X)
    return st.sampled_from([B.row(q) for q in sorted(B.shape.row_top)])


@settings(max_examples=40, deadline=None)
@given(standard() | standard(st.integers(min_value=1, max_value=3)).flatmap(_dec_rows))
def test_from_names_round_trip(X):
    """Converting a set's tables of names back gives its position lists,
    its audit and its tables of names."""
    tables = named_tables(X)
    Y = TruncatedSimplicialSet.from_names(X.bound, X.simplices,
                                          lambda *key: tables[key],
                                          basepoint=X.basepoint)
    assert all(Y.positions(*key) == X.positions(*key) for key in _operator_keys(X))
    assert Y.audit() == X.audit()
    assert named_tables(Y) == tables


def test_enumerated_maps_equal_maps_built_from_names():
    H, D = horn(2, 1, 3), delta(2, 3)
    maps = enumerate_maps(H, D)
    named = [SimplicialMap(H, D, {n: dict(zip(H.simplices[n],
                                              map(D.simplices[n].__getitem__,
                                                  f.positions(n))))
                                  for n in H.degrees()})
             for f in maps]
    assert maps == named
    assert [hash(f) for f in maps] == [hash(g) for g in named]
    inclusion = SimplicialMap(H, D, {n: {x: x for x in H.simplices[n]}
                                     for n in H.degrees()})
    (same,) = [f for f in maps if f == inclusion]
    assert hash(same) == hash(inclusion)


def test_a_pin_outside_the_target_gives_no_maps():
    X, Y = point(2), delta(1, 2)
    assert enumerate_maps(X, Y, fixed={(0, (0,)): (7,)}) == []
    assert enumerate_maps(X, Y, fixed={(0, (0,)): (1,)}) != []
