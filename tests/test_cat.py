import pytest
from hypothesis import given, settings, strategies as st

from simpcat import cat
from simpcat.cat import (BoundExceeded, CategoryError, FinCategory, Functor,
                         NumberedNerve, PresentedGroupoid, _spanning_forest,
                         arrow_cat, chaotic, colimit_cat, coproduct_cat,
                         cyclic_group, discrete, enumerate_functors,
                         equalizer_cat, fundamental_groupoid,
                         iso_subgroupoid, materialize_groupoid, nerve,
                         nerve_functor, product_cat, terminal_cat)
from simpcat.names import sort_key
from simpcat.sset import delta, sphere


def test_builders_validate():
    for C in (discrete(range(3)), chaotic(range(3)), cyclic_group(4),
              arrow_cat(), terminal_cat(),
              product_cat(chaotic(range(2)), cyclic_group(2)),
              coproduct_cat([cyclic_group(2), terminal_cat()])[0]):
        assert C.validate() == []


def test_invalid_composition_table_is_witnessed():
    C = cyclic_group(3)
    comp = dict(C.comp)
    comp[(1, 1)] = 0   # should be 2
    broken = FinCategory(C.objects, C.morphisms, C.src, C.tgt, C.ident, comp)
    assert broken.validate() != []


def test_groupoid_recognition():
    assert cyclic_group(5).is_groupoid()
    assert chaotic(range(2)).is_groupoid()
    assert not arrow_cat().is_groupoid()


def test_iso_subgroupoid_of_arrow():
    C = arrow_cat()
    G = iso_subgroupoid(C)
    assert G is not C
    assert G.objects == C.objects
    assert G.morphisms == (("id", 0), ("id", 1))
    assert G.ident == C.ident
    assert G.comp == {(m, m): m for m in G.morphisms}
    assert G.validate() == []


@pytest.mark.parametrize("C", [
    chaotic(range(3)), cyclic_group(4), discrete(range(2)), terminal_cat(),
    product_cat(chaotic(range(2)), cyclic_group(2)),
], ids=["chaotic", "cyclic", "discrete", "terminal", "product"])
def test_iso_subgroupoid_of_a_groupoid_is_itself(C):
    assert iso_subgroupoid(C) is C


def test_nerve_sizes():
    N = nerve(cyclic_group(2), 3)
    assert [N.size(n) for n in N.degrees()] == [1, 2, 4, 8]
    assert N.audit() == []
    N = nerve(arrow_cat(), 3)
    assert [N.size(n) for n in N.degrees()] == [2, 3, 4, 5]


def test_nerve_functor_commutes():
    F = Functor(cyclic_group(2), cyclic_group(4), {"*": "*"}, {0: 0, 1: 2})
    assert F.validate() == []
    assert nerve_functor(F, 3).validate() == []


def test_functor_validate_catches_breakage():
    F = Functor(cyclic_group(2), cyclic_group(4), {"*": "*"}, {0: 0, 1: 1})
    assert F.validate() != []


def test_functor_validate_reports_missing_images():
    F = Functor(cyclic_group(2), cyclic_group(2), {"*": "*"},
                {0: "nope", 1: "nope"})
    assert F.validate() == ["morphism 0 has no image in the target",
                            "morphism 1 has no image in the target"]
    G = Functor(cyclic_group(2), cyclic_group(2), {}, {0: 0, 1: 1})
    assert G.validate() == ["object '*' has no image in the target"]


def test_enumerate_functors_counts():
    assert len(enumerate_functors(cyclic_group(4), cyclic_group(2))) == 2
    assert len(enumerate_functors(cyclic_group(2), cyclic_group(4))) == 2
    assert len(enumerate_functors(chaotic(range(2)), chaotic(range(3)))) == 9
    assert len(enumerate_functors(discrete(range(2)), discrete(range(3)))) == 9
    assert len(enumerate_functors(chaotic(range(2)), discrete(range(3)))) == 3
    # the endomorphisms of Z/3 x Z/3: composites are checked as soon as
    # their factors are bound, not after every morphism is chosen
    Z3Z3 = product_cat(cyclic_group(3), cyclic_group(3))
    assert len(enumerate_functors(Z3Z3, Z3Z3)) == 81


def test_enumerate_functors_from_a_wide_source():
    (F,) = enumerate_functors(discrete(range(1500)), terminal_cat())
    assert F.validate() == []


def test_fundamental_groupoid_of_interval():
    M = materialize_groupoid(fundamental_groupoid(delta(1, 3)), 1000)
    assert len(M.objects) == 2
    assert all(len(M.hom(a, b)) == 1 for a in M.objects for b in M.objects)


def test_fundamental_groupoid_of_circle_does_not_close():
    with pytest.raises(BoundExceeded):
        materialize_groupoid(fundamental_groupoid(sphere(1, 3)), 50)


def test_free_product_does_not_close():
    pt, Z2 = terminal_cat(), cyclic_group(2)
    f = Functor(pt, Z2, {"*": "*"}, {("id", "*"): 0})
    with pytest.raises(BoundExceeded):
        colimit_cat([pt, Z2, Z2], [(0, 1, f), (0, 2, f)], 100)


def _pushout():
    """The chaotic groupoid on two objects glued to Z/2 along a point,
    with its cocones."""
    B = chaotic(range(2))
    A = FinCategory((0,), ((0, 0),), {(0, 0): 0}, {(0, 0): 0},
                    {0: (0, 0)}, {((0, 0), (0, 0)): (0, 0)})
    incl = Functor(A, B, {0: 0}, {(0, 0): (0, 0)})
    C = cyclic_group(2)
    f = Functor(A, C, {0: "*"}, {(0, 0): 0})
    return colimit_cat([A, B, C], [(0, 1, incl), (0, 2, f)])


def test_pushout_cocones_validate():
    P, cocones = _pushout()
    assert P.validate() == []
    for c in cocones:
        assert c.validate() == []
    # the pushout glues a contractible groupoid onto the group, so the
    # vertex group stays Z/2
    o = cocones[2].obj_map["*"]
    assert len(P.hom(o, o)) == 2


def test_colimit_without_edges_is_a_coproduct():
    P, cocones = colimit_cat([terminal_cat(), terminal_cat()], [])
    assert len(P.objects) == 2
    assert len(cocones) == 2


def test_equalizer_of_equal_functors_is_everything():
    ident = Functor.identity(cyclic_group(3))
    E = equalizer_cat(ident, ident)
    assert len(E.morphisms) == 3
    assert E.validate() == []


def test_equalizer_needs_parallel_functors():
    with pytest.raises(CategoryError):
        equalizer_cat(Functor.identity(cyclic_group(2)),
                      Functor.identity(cyclic_group(3)))


@pytest.mark.parametrize("C", [
    chaotic(range(3)), cyclic_group(3), arrow_cat(),
    product_cat(arrow_cat(), cyclic_group(2)),
    product_cat(chaotic(range(2)), arrow_cat()), _pushout()[0],
    colimit_cat([terminal_cat(), arrow_cat()], [])[0],
], ids=["chaotic", "cyclic", "arrow", "product-arrow-cyclic",
        "product-chaotic-arrow", "pushout", "coproduct-colimit"])
def test_chains_equal_filtered_product(C):
    """Extending by the morphisms out of the last target gives the chains
    of the filtered product over all morphisms, in the same order, once
    the numbered chains are named."""
    expected = {0: C.objects}
    chains = [()]
    for k in range(1, 5):
        chains = [c + (m,) for c in chains for m in C.morphisms
                  if not c or C.tgt[c[-1]] == C.src[m]]
        expected[k] = tuple(chains)

    for top in range(5):
        N = NumberedNerve(C, top)
        assert {k: N.names(k) for k in range(top + 1)} == {
            k: expected[k] for k in range(top + 1)}


@pytest.mark.parametrize("C", [
    chaotic(range(3)), cyclic_group(3), arrow_cat(), discrete(range(3)),
    product_cat(arrow_cat(), cyclic_group(2)),
    product_cat(chaotic(range(2)), arrow_cat()), _pushout()[0],
], ids=["chaotic", "cyclic", "arrow", "discrete", "product-arrow-cyclic",
        "product-chaotic-arrow", "pushout"])
def test_hom_equals_filtered_morphisms(C):
    """The indexed hom-sets are the linear filter of the morphisms by
    source and target, in stored order, for every pair of objects."""
    for a in C.objects:
        for b in C.objects:
            assert C.hom(a, b) == tuple(m for m in C.morphisms
                                        if C.src[m] == a and C.tgt[m] == b)
    assert C.hom("no such object", C.objects[0]) == ()


def _sorted_forest(objects, generators):
    """The spanning forest with every list sorted by `sort_key`: each
    adjacency list by (generator, sign) before it is read, and each
    component's members at the end; read back as positions."""
    glist = sorted(generators, key=sort_key)
    gindex = {g: k for k, g in enumerate(glist)}
    adj = {o: [] for o in objects}
    for g in glist:
        a, b = generators[g]
        adj[a].append((b, g, +1))
        adj[b].append((a, g, -1))
    comp_of, members, forest = {}, {}, {}
    for o in objects:
        if o in comp_of:
            continue
        comp_of[o], members[o] = o, [o]
        frontier = [o]
        while frontier:
            a = frontier.pop(0)
            for b, g, sign in sorted(adj[a],
                                     key=lambda t: sort_key((t[1], t[2]))):
                if b not in comp_of:
                    comp_of[b] = o
                    members[o].append(b)
                    forest[b] = (a, 2 * gindex[g] + (0 if sign > 0 else 1))
                    frontier.append(b)
        members[o].sort(key=sort_key)
    index = {o: a for a, o in enumerate(objects)}
    return ([index[comp_of[o]] for o in objects],
            {index[r]: [index[o] for o in M] for r, M in members.items()},
            {index[b]: (index[a], d) for b, (a, d) in forest.items()})


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 5), st.sampled_from("abc")),
                min_size=1, max_size=6, unique=True).flatmap(
    lambda objects: st.tuples(
        st.just(objects),
        st.dictionaries(st.one_of(st.integers(0, 9),
                                  st.tuples(st.integers(0, 2),
                                            st.sampled_from("xy"))),
                        st.tuples(st.sampled_from(objects),
                                  st.sampled_from(objects)),
                        max_size=8))))
def test_spanning_forest_reads_its_lists_in_sorted_order(case):
    """Adjacency lists built in generator order, loops and parallel
    arrows included, and members listed in object order give the forest
    that sorting every list gives.  The generators are numbered in
    canonical order, as the presentations' builders give them."""
    objects, generators = case
    generators = dict(sorted(generators.items(), key=lambda gs: sort_key(gs[0])))
    P = PresentedGroupoid(objects, generators, ())
    assert _spanning_forest(len(P.objects), P._ends) == \
        _sorted_forest(P.objects, generators)


def test_relation_equating_a_non_loop_with_the_empty_word_is_reported():
    P = PresentedGroupoid((0, 1), {"g": (0, 1)}, [((0,), ())])
    assert P.validate() == [
        "relation (('g', 1),) = () equates a non-loop with the empty word"]
    with pytest.raises(CategoryError, match="non-loop"):
        materialize_groupoid(P, 100)


def test_relation_validation_on_directions():
    P = PresentedGroupoid((0, 1), {"f": (0, 1), "g": (1, 0)},
                          [((0, 2), ()), ((0, 0), (0,)), ((1,), (2,)),
                           ((0, 3), (4,))])
    assert P.validate() == [
        "relation (0, 3) = (4,) names an unknown generator"]
    P = PresentedGroupoid((0, 1), {"f": (0, 1), "g": (1, 0)},
                          [((0, 2), ()), ((0, 0), (0,)), ((1,), (2,)),
                           ((3, 1), ())])
    assert P.validate() == [
        "relation (('f', 1), ('f', 1)) = (('f', 1),) not composable"]
    assert PresentedGroupoid((0,), {"g": (0, 2)}, ()).validate() == [
        "generator 'g' has unknown endpoints"]


def _loops(*relations):
    """One object with generators a, b, c looping at it."""
    return PresentedGroupoid(("*",), {g: ("*", "*") for g in "abc"}, relations)


def test_trivial_vertex_group_needs_no_coset_closure(monkeypatch):
    def closure(*args):
        raise AssertionError("coset closure run for a trivial group")
    monkeypatch.setattr(cat, "_coset_closure", closure)
    # a dies alone; then b, whose relator is a b; then c, in c b a b
    P = _loops(((4, 2, 0, 2), ()), ((0, 2), ()), ((0,), ()))
    M = materialize_groupoid(P, 10)
    assert M.morphisms == (("*", 0, "*"),)
    rec = cat._materialize(P, 10)
    assert rec.genmap == [0, 0, 0]
    # the triangle: its one non-tree edge dies with the tree letters gone
    V = delta(2, 3).simplices[0]
    assert materialize_groupoid(fundamental_groupoid(delta(2, 3)), 100) \
        .morphisms == tuple((a, 0, b) for a in V for b in V)


def test_surviving_generator_reaches_the_coset_closure(monkeypatch):
    calls = []

    def closure(ngens, relators, bound):
        calls.append(relators)
        return original(ngens, relators, bound)
    original = cat._coset_closure
    monkeypatch.setattr(cat, "_coset_closure", closure)
    # a and c die; b survives with b b = 1, and the closure is handed the
    # relators unchanged
    P = _loops(((0,), ()), ((2, 2), ()), ((4, 0), ()))
    assert len(materialize_groupoid(P, 10).morphisms) == 2
    assert calls == [[(0,), (2, 2), (4, 0)]]


def test_bound_below_one_raises_the_closure_message():
    for P in (_loops(((0,), ()), ((2,), ()), ((4,), ())), _loops()):
        with pytest.raises(BoundExceeded) as e:
            materialize_groupoid(P, 0)
        assert str(e.value) == "vertex group at '*' did not close within 0"


def test_trivial_group_past_the_closure_budget_materializes():
    """The closure explores at most 8 * bound + 8 cosets: a long relator
    read before the one that kills its generator used to exceed it at
    bound 1, though the group is trivial."""
    P = PresentedGroupoid(("*",), {"g": ("*", "*")},
                          [((0,) * 20, ()), ((0,), ())])
    assert cat._coset_closure(1, [(0,) * 20, (0,)], 1) is None
    assert materialize_groupoid(P, 1).morphisms == (("*", 0, "*"),)


def test_off_root_vertex_generator_induces_the_identity():
    """The vertex group Z/2 is generated by g, a loop at 1, away from the
    root 0; the functor that sends each generator to its own image is
    the identity.  Walking g itself at the root raised KeyError."""
    P = PresentedGroupoid((0, 1), {"t": (0, 1), "g": (1, 1)}, [((2, 2), ())])
    rec = cat._materialize(P, 100)
    C = rec.category
    assert len(C.morphisms) == 8 and C.validate() == []
    F = rec.induced_functor(C, [0, 1], rec.genmap)
    assert F._numbered == ([0, 1], list(range(8)))
    assert F.validate() == []
