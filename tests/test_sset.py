import pytest
from hypothesis import given, settings, strategies as st

from simpcat.sset import (SimplicialError, SimplicialMap, boundary, c_sigma,
                          colimit_sset, coproduct, delta, enumerate_maps,
                          generated_subcomplex, horn, normalize_word, point,
                          product_sset, quotient, sphere, truncate, two_point)


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
    m0 = SimplicialMap.from_nondegenerate(P, A, {(0, P.simplices[0][0]): A.basepoint})
    m1 = SimplicialMap.from_nondegenerate(P, B, {(0, P.simplices[0][0]): B.basepoint})
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
