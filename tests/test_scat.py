import gc
import weakref

import pytest

from simpcat import scat
from simpcat.bisset import box_product, d_star, d_star_map, dec
from simpcat.cat import CategoryError, cyclic_group, terminal_cat
from simpcat.homology import homology_list
from simpcat.scat import (add_basepoint, colimit_scat, constant_pointed_scat,
                          constant_scat, diag_nerve_iso, diag_nerve_iso_map,
                          enumerate_simplicial_functors, nerve_iso_levelwise,
                          pi_functor, pi_levelwise, product_scat, rho,
                          s0_scat, smash, suspend, terminal_scat,
                          wbar_nerve_iso)
from simpcat.sset import (SimplicialMap, boundary, delta, enumerate_maps,
                          horn, point, sphere, two_point)
from simpcat.bisset import diag


def hstr(X, k):
    return [str(h) for h in homology_list(X, k)]


def test_constant_and_pointed_audits():
    assert constant_scat(cyclic_group(2), 3).audit() == []
    assert s0_scat(3).audit() == []
    assert add_basepoint(constant_scat(cyclic_group(2), 2)).audit() == []
    assert constant_pointed_scat(terminal_cat(), "*", 2).audit() == []


def test_pi_levelwise_of_dec_interval():
    P = pi_levelwise(dec(delta(1, 5)))
    assert P.bound == 2
    assert P.audit() == []
    # each level is a disjoint union of contractible pieces, one per
    # extra vertex of the shifted row
    for n in range(3):
        assert len(P.levels[n].objects) == n + 3


def test_pi_levelwise_of_d_star_interval():
    P = pi_levelwise(d_star(delta(1, 5)))
    assert P.audit() == []
    # level n is n+2 disjoint chaotic pairs
    for n in range(P.bound + 1):
        C = P.levels[n]
        assert len(C.objects) == 2 * (n + 2)
        assert len(C.morphisms) == 4 * (n + 2)


def test_pi_levelwise_of_dec_circle():
    P = pi_levelwise(dec(sphere(1, 5)))
    assert P.is_pointed()
    assert P.audit() == []
    sizes = [(len(P.levels[n].objects), len(P.levels[n].morphisms))
             for n in range(P.bound + 1)]
    assert sizes == [(2, 4), (3, 5), (4, 6)]


def test_nerve_iso_sizes_for_chaotic_pairs():
    P = pi_levelwise(d_star(delta(1, 5)))
    B = nerve_iso_levelwise(P, 2)
    for (p, n) in B.shape.sorted():
        assert len(B.simplices[(p, n)]) == (n + 2) * 2 ** (p + 1)
    assert B.audit() == []


def test_diag_nerve_iso_of_classifying_space():
    S = constant_scat(cyclic_group(2), 4)
    D = diag_nerve_iso(S)
    assert [D.size(n) for n in D.degrees()] == [1, 2, 4, 8, 16]
    assert hstr(D, 3) == ["Z", "Z/2", "0", "Z/2"]


def test_wbar_nerve_iso_matches_diag_for_constant_levels():
    S = constant_scat(cyclic_group(2), 4)
    W = wbar_nerve_iso(S)
    D = diag_nerve_iso(S)
    assert [W.size(n) for n in W.degrees()] == [D.size(n) for n in D.degrees()]
    assert hstr(W, 3) == hstr(D, 3)


def test_fused_diagonal_equals_composite():
    for S in (s0_scat(3), pi_levelwise(dec(sphere(1, 6))),
              pi_levelwise(dec(boundary(2, 6))),
              pi_levelwise(d_star(delta(1, 5))),
              constant_scat(cyclic_group(3), 3)):
        fused = diag_nerve_iso(S)
        composed = diag(nerve_iso_levelwise(S))
        assert fused.simplices == composed.simplices
        assert fused.faces == composed.faces
        assert fused.degens == composed.degens


def test_wbar_nerve_iso_of_circle_groupoid():
    P = pi_levelwise(dec(sphere(1, 6)))
    W = wbar_nerve_iso(P)
    D = diag_nerve_iso(P)
    assert [W.size(n) for n in W.degrees()] == [2, 6, 14, 30]
    assert [D.size(n) for n in D.degrees()] == [2, 5, 10, 19]
    assert hstr(W, 2) == hstr(D, 2) == ["Z", "Z", "0"]


def test_pi_functor_on_horn_inclusion():
    H, D = horn_pair()
    f = SimplicialMap(H, D, {n: {x: x for x in H.simplices[n]}
                             for n in H.degrees()})
    g = pi_functor(d_star_map_of(f))
    assert g.validate() == []


def horn_pair():
    from simpcat.sset import horn
    return horn(2, 1, 5), delta(2, 5)


def d_star_map_of(f):
    from simpcat.bisset import d_star_map
    return d_star_map(f)


def test_diag_nerve_iso_map_equals_the_named_assignment():
    """The positional map of a horn inclusion equals the map that sends
    each named chain through the functor's name dicts."""
    H, D = horn_pair()
    f = SimplicialMap(H, D, {n: {x: x for x in H.simplices[n]}
                             for n in H.degrees()})
    g = pi_functor(d_star_map_of(f))
    mapped = diag_nerve_iso_map(g)
    named = {}
    for n in mapped.source.degrees():
        F = g.levels[n]
        named[n] = {x: F.obj_map[x] if n == 0
                    else tuple(F.mor_map[m] for m in x)
                    for x in mapped.source.simplices[n]}
    by_name = SimplicialMap(mapped.source, mapped.target, named)
    assert mapped == by_name and by_name == mapped
    assert hash(mapped) == hash(by_name)
    assert mapped.assign == named
    assert all(by_name.positions(n) == mapped.positions(n)
               for n in mapped.source.degrees())
    assert mapped.validate() == []


def test_product_and_tensor_levels():
    T = product_scat(constant_scat(cyclic_group(2), 2), rho(delta(1, 5)))
    assert T.audit() == []
    assert [len(T.levels[n].objects) for n in range(3)] == [3, 4, 5]


def test_colimit_scat_coproduct_of_terminals():
    colim, cocones = colimit_scat([terminal_scat(2), terminal_scat(2)], [])
    assert colim.audit() == []
    assert len(colim.levels[0].objects) == 2
    assert all(len(colim.levels[n].morphisms) == 2 for n in range(3))
    for c in cocones:
        assert c.validate() == []


def test_suspension_homology_ladder():
    S = s0_scat(3)
    assert hstr(diag_nerve_iso(S), 2) == ["Z + Z", "0", "0"]
    S1 = suspend(S)
    assert [diag_nerve_iso(S1).size(n) for n in range(4)] == [2, 5, 10, 19]
    assert hstr(diag_nerve_iso(S1), 2) == ["Z", "Z", "0"]
    S2 = suspend(S1)
    assert [diag_nerve_iso(S2).size(n) for n in range(4)] == [2, 17, 220, 4105]
    assert hstr(diag_nerve_iso(S2), 2) == ["Z", "0", "Z"]


def test_smash_with_two_point_object_is_identity():
    C = s0_scat(2)
    W = smash(C, two_point(C.bound + 3))
    R = W.smash_rho
    for n in range(W.bound + 1):
        x = next(o for o in R.levels[n].objects if o != R.basepoints[n])
        cocone = W.smash_cocones[n][1]
        images = {cocone.obj_map[(o, x)] for o in C.levels[n].objects}
        assert len(images) == len(W.levels[n].objects)
        mor_images = {cocone.mor_map[(m, R.levels[n].ident[x])]
                      for m in C.levels[n].morphisms}
        assert len(mor_images) == len(W.levels[n].morphisms)


def test_smash_needs_pointed_inputs():
    with pytest.raises(CategoryError):
        smash(terminal_scat(2), two_point(5))
    with pytest.raises(CategoryError):
        smash(s0_scat(2), delta(1, 5))


def test_adjunction_hom_counts_into_constant_target():
    C = constant_scat(cyclic_group(2), 2)
    W = wbar_nerve_iso(C)
    D = diag_nerve_iso(C)
    expected = {"D0": 1, "D1": 2, "bD1": 1}
    shapes = {"D0": lambda b: delta(0, b),
              "D1": lambda b: delta(1, b),
              "bD1": lambda b: boundary(1, b)}
    for key, mk in shapes.items():
        left = len(enumerate_simplicial_functors(
            pi_levelwise(dec(mk(C.bound + 3))), C))
        assert left == len(enumerate_maps(mk(W.bound), W)) == expected[key]
        left = len(enumerate_simplicial_functors(
            pi_levelwise(d_star(mk(C.bound + 4))), C))
        assert left == len(enumerate_maps(mk(D.bound), D)) == expected[key]


def test_adjunction_hom_counts_into_circle_groupoid():
    C = pi_levelwise(dec(sphere(1, 6)))
    W = wbar_nerve_iso(C)
    D = diag_nerve_iso(C)
    # the interval instance of the d_star side runs through a bound-7
    # resolution and lives in the verification suites instead
    for mk, dec_count, dstar_count in (
            (lambda b: delta(0, b), 2, 2),
            (lambda b: boundary(1, b), 4, 4)):
        left = len(enumerate_simplicial_functors(
            pi_levelwise(dec(mk(C.bound + 3))), C))
        assert left == len(enumerate_maps(mk(W.bound), W)) == dec_count
        left = len(enumerate_simplicial_functors(
            pi_levelwise(d_star(mk(C.bound + 4))), C))
        assert left == len(enumerate_maps(mk(D.bound), D)) == dstar_count
    left = len(enumerate_simplicial_functors(
        pi_levelwise(dec(delta(1, C.bound + 3))), C))
    assert left == len(enumerate_maps(delta(1, W.bound), W)) == 6


def test_simplicial_functors_commute_with_vertical_degeneracies():
    # the circle's edge has both faces at the basepoint, as the degenerate
    # edge has, but the point's degenerate level-1 object may not go there
    S = pi_levelwise(box_product(point(2), point(1)))
    T = pi_levelwise(box_product(point(2), sphere(1, 1)))
    assert len(enumerate_simplicial_functors(S, T)) == 1


def test_diag_nerve_iso_map_of_identity():
    S = s0_scat(2)
    from simpcat.scat import SimplicialFunctor
    from simpcat.cat import Functor
    ident = SimplicialFunctor(S, S, {n: Functor.identity(S.levels[n])
                                     for n in range(3)})
    f = diag_nerve_iso_map(ident)
    assert f.validate() == []


def test_diag_nerve_iso_is_built_once_per_scat(monkeypatch):
    """Maps into one target reuse its diagonal nerve, as the probes of
    the acyclic-cofibrations suite do."""
    built, build = [], scat._build_diag_nerve_iso
    monkeypatch.setattr(scat, "_build_diag_nerve_iso",
                        lambda S, levels: built.append(S) or build(S, levels))
    D = delta(2, 4)
    T = pi_levelwise(d_star(D))
    maps = []
    for i in (0, 1):
        H = horn(2, i, 4)
        incl = SimplicialMap(H, D, {k: {x: x for x in H.simplices[k]}
                                    for k in H.degrees()})
        maps.append(diag_nerve_iso_map(
            pi_functor(d_star_map(incl), target_pi=T)))
    assert diag_nerve_iso(T) is diag_nerve_iso(T)
    assert [f.target for f in maps] == [diag_nerve_iso(T)] * 2
    assert [S is T for S in built] == [False, True, False]


def test_diag_nerve_iso_memo_dies_with_its_scat():
    S = constant_scat(cyclic_group(2), 3)
    diag_nerve_iso(S)
    alive = weakref.ref(S)
    del S
    gc.collect()
    assert alive() is None


def test_product_scat_audit():
    P = product_scat(s0_scat(2), constant_scat(cyclic_group(2), 2))
    assert P.audit() == []
