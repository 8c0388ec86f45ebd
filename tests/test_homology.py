import importlib

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form
from hypothesis import given, settings, strategies as st

from simpcat.cat import cyclic_group, nerve
from simpcat.homology import (AbelianGroupDescriptor, CertificationError,
                              ChainComplex, ProbeVerdict, _bijective,
                              _homology_from_complex, _pi0_images,
                              _vertex_names, abelianization,
                              edge_path_group, homology, homology_list,
                              mapping_cone, normalized_chains, pi0,
                              smith_invariants, weak_equivalence_probe)
from simpcat.sset import (SimplicialError, SimplicialMap,
                          TruncatedSimplicialSet, boundary, c_sigma, delta,
                          enumerate_maps, horn, point, product_sset, quotient,
                          sphere)

from helpers import named_tables


def test_descriptor_invariants():
    d = AbelianGroupDescriptor(1, (2, 4))
    assert str(d) == "Z + Z/2 + Z/4"
    assert d.order() is None
    assert AbelianGroupDescriptor(0, (3,)).order() == 3
    assert AbelianGroupDescriptor(0).is_trivial()
    with pytest.raises(ValueError):
        AbelianGroupDescriptor(0, (4, 2))     # not a divisibility chain
    with pytest.raises(ValueError):
        AbelianGroupDescriptor(-1)


def test_smith_invariants_examples():
    assert smith_invariants({0: {0: 2}, 1: {1: 3}}) == [1, 6]
    assert smith_invariants({}) == []
    # row-equivalent matrices share invariants
    assert smith_invariants({0: {0: 1, 1: 1}, 1: {0: 1, 1: -1}}) == [1, 2]
    # a negative pivot leaves negative remainders; the loop must still
    # find the least absolute value among them
    assert smith_invariants({
        0: {0: 13, 2: 8, 5: 40, 6: 5}, 1: {1: -5, 3: -33, 5: 7, 6: 18},
        2: {0: 36, 1: 6, 2: 7, 4: 8, 5: -37},
        3: {1: 24, 2: -6, 3: -17, 6: 36},
        4: {0: 2, 2: -19, 3: -13, 5: -12}}) == [1, 1, 1, 1, 1]


@st.composite
def integer_matrices(draw):
    """Rows of a 1-7 x 1-7 integer matrix with entries in -40..40 and a
    random share of zeros, zero rows and columns included."""
    nr, nc = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    density = draw(st.integers(0, 10))
    return [[draw(st.integers(-40, 40)) if draw(st.integers(1, 10)) <= density
             else 0 for _ in range(nc)] for _ in range(nr)]


@settings(max_examples=400, deadline=None)
@given(integer_matrices())
def test_smith_invariants_match_sympy(rows):
    _check_against_sympy(rows)


def _check_against_sympy(rows):
    cols = {}
    for c in range(len(rows[0])):
        col = {r: row[c] for r, row in enumerate(rows) if row[c]}
        if col:
            cols[c] = col
    mine = smith_invariants(cols)
    M = sympy.Matrix(rows)
    theirs = [abs(int(v)) for v in smith_normal_form(M).diagonal() if v != 0]
    assert mine == theirs


@st.composite
def boundary_shaped_matrices(draw):
    """Rows of a tall sparse matrix shaped like a boundary: 1-40 columns
    over 1-12 rows, each column with at most four entries in -2..2."""
    nr, nc = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    rows = [[0] * nc for _ in range(nr)]
    for c in range(nc):
        for r in draw(st.lists(st.integers(0, nr - 1), max_size=4,
                               unique=True)):
            rows[r][c] = draw(st.integers(-2, 2))
    return rows


@settings(max_examples=200, deadline=None)
@given(boundary_shaped_matrices())
def test_smith_invariants_match_sympy_on_boundary_shapes(rows):
    _check_against_sympy(rows)


def test_homology_of_spheres():
    assert [str(h) for h in homology_list(sphere(1, 3), 2)] == ["Z", "Z", "0"]
    assert [str(h) for h in homology_list(boundary(3, 3), 2)] == ["Z", "0", "Z"]
    assert [str(h) for h in homology_list(delta(2, 3), 2)] == ["Z", "0", "0"]


def test_homology_of_classifying_space():
    N = nerve(cyclic_group(2), 4)
    assert [str(h) for h in homology_list(N, 3)] == ["Z", "Z/2", "0", "Z/2"]


@st.composite
def small_objects(draw):
    """Small simplicial sets at bound 2-5, the nerves with torsion."""
    b = draw(st.integers(2, 5))
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["delta", "boundary", "horn", "sphere",
                                 "product", "quotient", "c_sigma", "nerve"]))
    if kind == "delta":
        return delta(n, b)
    if kind == "boundary":
        return boundary(n, b)
    if kind == "horn":
        return horn(n + 1, draw(st.integers(0, n + 1)), b)
    if kind == "sphere":
        return sphere(n, b)
    if kind == "product":
        return product_sset(delta(1, b), draw(st.sampled_from(
            [sphere(1, b), boundary(2, b), delta(1, b)])))
    if kind == "quotient":
        return quotient(delta(n, b), [(0, (0,), (n,))])[0]
    if kind == "c_sigma":
        return c_sigma(3, draw(st.sampled_from([(0,), (0, 1), (0, 1, 2)])), b)
    return nerve(cyclic_group(draw(st.sampled_from([2, 3]))), b)


def _moore_homology(X):
    """Homology of the unnormalized chains: every simplex, boundary
    sum of (-1)^i d_i."""
    index = {n: {x: k for k, x in enumerate(X.simplices[n])}
             for n in X.degrees()}
    boundaries, tables = {}, named_tables(X)
    for n in range(1, X.bound + 1):
        cols = {}
        for c, x in enumerate(X.simplices[n]):
            col = {}
            for i in range(n + 1):
                r = index[n - 1][tables[n, n - 1, i][x]]
                col[r] = col.get(r, 0) + (-1) ** i
            cols[c] = {r: v for r, v in col.items() if v}
        boundaries[n] = cols
    moore = ChainComplex({n: len(cells) for n, cells in index.items()},
                         boundaries)
    moore.check_dd_zero()
    return [_homology_from_complex(moore, i) for i in range(X.bound)]


@settings(max_examples=100, deadline=None)
@given(small_objects())
def test_moore_complex_homology_matches_normalized(X):
    assert _moore_homology(X) == homology_list(X)


def test_homology_certification_limit():
    with pytest.raises(CertificationError):
        homology(sphere(1, 3), 3)


def test_normalized_chains_dd_zero():
    normalized_chains(boundary(2, 3)).check_dd_zero()


def test_missing_degeneracy_table_is_named_as_the_audit_names_it():
    D = delta(1, 2)
    tables = named_tables(D)
    X = TruncatedSimplicialSet.from_names(
        2, D.simplices,
        lambda n, m, k: None if (n, m, k) == (1, 2, 0) else tables[n, m, k])
    assert X.audit() == ["missing degeneracy table s_0 at degree 1"]
    with pytest.raises(SimplicialError,
                       match="^missing degeneracy table s_0 at degree 1$"):
        homology_list(X, 1)


def test_pi0():
    assert len(pi0(boundary(1, 2))) == 2
    assert len(pi0(sphere(1, 3))) == 1


def pi0_map(f):
    """Induced component map as a dict, plus whether it is a bijection."""
    src, tgt, images = _pi0_images(f)
    names = _vertex_names(f.target, tgt)
    induced = dict(zip(_vertex_names(f.source, src),
                       map(names.__getitem__, images)))
    return induced, _bijective(images, tgt)


def test_pi0_map():
    X, Y = boundary(1, 2), point(2)
    (f,) = enumerate_maps(
        X, Y, fixed={(0, v): Y.simplices[0][0] for v in [(0,), (1,)]})
    induced, bijective = pi0_map(f)
    assert len(induced) == 2 and not bijective


def test_edge_path_group_of_circle():
    P = edge_path_group(sphere(1, 3), sphere(1, 3).basepoint)
    assert len(P.generators) == 1
    assert abelianization(P) == AbelianGroupDescriptor(1)


def test_probe_confirms_identity():
    f = SimplicialMap.identity(sphere(1, 3))
    assert str(weak_equivalence_probe(f, 2)) == "ConfirmedUpTo(2)"


def test_probe_refutes_point_into_circle():
    X, Y = delta(0, 3), sphere(1, 3)
    (f,) = enumerate_maps(X, Y, fixed={(0, X.simplices[0][0]): Y.basepoint})
    verdict = weak_equivalence_probe(f, 2)
    assert verdict.kind == "refuted" and verdict.degree == 1


def test_probe_refutes_component_mismatch():
    X, Y = boundary(1, 3), delta(0, 3)
    (f,) = enumerate_maps(
        X, Y, fixed={(0, v): Y.simplices[0][0] for v in X.simplices[0]})
    assert weak_equivalence_probe(f, 2).kind == "refuted"


def test_probe_inconclusive_beyond_certified_range():
    f = SimplicialMap.identity(sphere(1, 3))
    assert weak_equivalence_probe(f, 5).kind == "inconclusive"


def test_mapping_cone_of_identity_is_acyclic():
    cone = mapping_cone(SimplicialMap.identity(sphere(1, 3)))
    for i in range(1, 3):
        assert _homology_from_complex(cone, i).is_trivial()


def test_probe_builds_each_ends_chains_once(monkeypatch):
    # the package's `homology` function shadows the submodule attribute
    homology_module = importlib.import_module("simpcat.homology")
    calls = []

    def counted(X):
        calls.append(X)
        return normalized_chains(X)
    monkeypatch.setattr(homology_module, "normalized_chains", counted)
    f = SimplicialMap.identity(sphere(1, 3))
    assert weak_equivalence_probe(f, 2).kind == "confirmed"
    assert len(calls) == 2


def test_probe_verdict_strings():
    assert str(ProbeVerdict.confirmed(2)) == "ConfirmedUpTo(2)"
    assert str(ProbeVerdict.refuted(1, "x")).startswith("Refuted")
    assert str(ProbeVerdict.inconclusive("y")).startswith("Inconclusive")
