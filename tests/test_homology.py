import importlib

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form
from hypothesis import given, settings, strategies as st

from simpcat.cat import cyclic_group, nerve
from simpcat.homology import (AbelianGroupDescriptor, CertificationError,
                              ProbeVerdict, abelianization, edge_path_group,
                              homology, homology_list, mapping_cone,
                              normalized_chains, pi0, pi0_map,
                              smith_invariants, weak_equivalence_probe)
from simpcat.sset import SimplicialMap, boundary, delta, point, sphere


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


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=-5, max_value=5),
                         min_size=3, max_size=3), min_size=3, max_size=3))
def test_smith_invariants_match_sympy(rows):
    cols = {}
    for c in range(3):
        col = {r: rows[r][c] for r in range(3) if rows[r][c]}
        if col:
            cols[c] = col
    mine = smith_invariants(cols)
    M = sympy.Matrix(rows)
    theirs = [abs(int(v)) for v in smith_normal_form(M).diagonal() if v != 0]
    assert mine == theirs


def test_homology_of_spheres():
    assert [str(h) for h in homology_list(sphere(1, 3), 2)] == ["Z", "Z", "0"]
    assert [str(h) for h in homology_list(boundary(3, 3), 2)] == ["Z", "0", "Z"]
    assert [str(h) for h in homology_list(delta(2, 3), 2)] == ["Z", "0", "0"]


def test_homology_of_classifying_space():
    N = nerve(cyclic_group(2), 4)
    assert [str(h) for h in homology_list(N, 3)] == ["Z", "Z/2", "0", "Z/2"]


def test_homology_certification_limit():
    with pytest.raises(CertificationError):
        homology(sphere(1, 3), 3)


def test_normalized_chains_dd_zero():
    normalized_chains(boundary(2, 3)).check_dd_zero()


def test_pi0():
    assert len(pi0(boundary(1, 2))) == 2
    assert len(pi0(sphere(1, 3))) == 1


def test_pi0_map():
    X, Y = boundary(1, 2), point(2)
    f = SimplicialMap.from_nondegenerate(
        X, Y, {(0, v): Y.simplices[0][0] for v in [(0,), (1,)]})
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
    f = SimplicialMap.from_nondegenerate(
        X, Y, {(0, X.simplices[0][0]): Y.basepoint})
    verdict = weak_equivalence_probe(f, 2)
    assert verdict.kind == "refuted" and verdict.degree == 1


def test_probe_refutes_component_mismatch():
    X, Y = boundary(1, 3), delta(0, 3)
    f = SimplicialMap.from_nondegenerate(
        X, Y, {(0, v): Y.simplices[0][0] for v in X.simplices[0]})
    assert weak_equivalence_probe(f, 2).kind == "refuted"


def test_probe_inconclusive_beyond_certified_range():
    f = SimplicialMap.identity(sphere(1, 3))
    assert weak_equivalence_probe(f, 5).kind == "inconclusive"


def test_mapping_cone_of_identity_is_acyclic():
    cone = mapping_cone(SimplicialMap.identity(sphere(1, 3)))
    from simpcat.homology import _homology_from_complex
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
