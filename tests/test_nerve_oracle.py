"""Independent oracle for `NumberedNerve`, the prefix-recurrence nerve.

The reference is the tuple construction it replaced, kept here as it
was: every k-chain built as a tuple of morphism positions, each operator
a function on tuples, a functor's image mapped over each tuple, and
positions read back through a {chain: position} dict.  The recurrence
must give the same chain names, operator tables and functor images, and
the diagonal nerve built on it the same cells and tables."""

import operator

import pytest

from simpcat.bisset import d_star, d_star_map, dec
from simpcat.cat import (Functor, NumberedNerve, arrow_cat, chaotic,
                         cyclic_group, enumerate_functors, iso_subgroupoid,
                         product_cat)
from simpcat.scat import (_iso_level, _on_iso, constant_scat, diag_nerve_iso,
                          diag_nerve_iso_map, pi_functor, pi_levelwise,
                          s0_scat, suspend)
from simpcat.sset import SimplicialMap, delta, horn, sphere


# ---------------------------------------------------------------------
# the replaced tuple construction
# ---------------------------------------------------------------------

def reference_chains(C, degrees):
    """{k: numbered k-chains, in order}: object positions at k = 0, else
    tuples of morphism positions, each extended by the morphisms out of
    its last target."""
    src, tgt, _ = C._numbered
    out_of = [[] for _ in C.objects]
    for f, a in enumerate(src):
        out_of[a].append(f)
    out = {0: tuple(range(len(C.objects)))} if 0 in degrees else {}
    chains = [()]
    for k in range(1, max(degrees) + 1):
        chains = [c + (f,) for c in chains
                  for f in (out_of[tgt[c[-1]]] if c
                            else range(len(C.morphisms)))]
        if k in degrees:
            out[k] = tuple(chains)
    return out


def reference_names(C, k, chains):
    if k == 0:
        return tuple(map(C.objects.__getitem__, chains))
    return tuple(tuple(map(C.morphisms.__getitem__, c)) for c in chains)


def reference_operator(C, k, m, i):
    """d_i (m = k - 1) or s_i (m = k + 1) on numbered k-chains."""
    src, tgt, ident = C._numbered
    if m > k:
        if k == 0:
            return lambda a: (ident[a],)
        if i == k:
            return lambda c: c + (ident[tgt[c[-1]]],)
        return lambda c: c[:i] + (ident[src[c[i]]],) + c[i:]
    if k == 1:
        return (lambda c: tgt[c[0]]) if i == 0 else (lambda c: src[c[0]])
    if i == 0:
        return operator.itemgetter(slice(1, None))
    if i == k:
        return operator.itemgetter(slice(None, -1))
    after = C._after
    return lambda c: c[:i - 1] + (after[c[i]][c[i - 1]],) + c[i + 1:]


def reference_on_chain(F, k):
    objects, morphisms = F._numbered
    if k == 0:
        return objects.__getitem__
    return lambda c: tuple(map(morphisms.__getitem__, c))


def reference_index(C, top):
    """The chains through degree `top` and {k: {chain: position}}."""
    chains = reference_chains(C, range(top + 1))
    return chains, {k: {c: p for p, c in enumerate(cs)}
                    for k, cs in chains.items()}


def reference_tables(C, top):
    chains, index = reference_index(C, top)
    return {(k, m, i): [index[m][reference_operator(C, k, m, i)(c)]
                        for c in chains[k]]
            for k in range(top + 1) for m in (k - 1, k + 1)
            if 0 <= m <= top for i in range(k + 1)}


def reference_images(F, top, source=None, target=None):
    """The images of F's source chains, numbered in its target's nerve;
    `source` and `target` reuse `reference_index` results."""
    chains, _ = source or reference_index(F.source, top)
    _, index = target or reference_index(F.target, top)
    return [[index[k][reference_on_chain(F, k)(c)] for c in chains[k]]
            for k in range(top + 1)]


def reference_diag_nerve_iso(S):
    """The diagonal nerve as it was built: simplices and position lists."""
    groupoids = {n: iso_subgroupoid(S.levels[n]) for n in range(S.bound + 1)}
    chains = {n: reference_chains(G, (n,))[n] for n, G in groupoids.items()}
    index = {n: {c: p for p, c in enumerate(cs)} for n, cs in chains.items()}
    simplices = {n: reference_names(G, n, chains[n])
                 for n, G in groupoids.items()}
    tables = {}
    for n in range(S.bound + 1):
        for m in (n - 1, n + 1):
            if not 0 <= m <= S.bound:
                continue
            for k in range(n + 1):
                F = S.table(n, m, k)
                R = Functor(groupoids[n], groupoids[m], F.obj_map,
                            {f: F.mor_map[f] for f in groupoids[n].morphisms})
                op = reference_operator(groupoids[m], n, m, k)
                tables[n, m, k] = [index[m][op(reference_on_chain(R, n)(c))]
                                   for c in chains[n]]
    return simplices, tables


# ---------------------------------------------------------------------
# the recurrence against the reference
# ---------------------------------------------------------------------

def _square():
    return product_cat(chaotic(range(3)), chaotic(range(3)))


def _object_map_functors(C, D):
    """Functors into the chaotic category D, one per object map: the
    identity-like one, a constant one and a folding one."""
    maps = [[b % len(D.objects) for b in range(len(C.objects))],
            [0] * len(C.objects),
            [(3 * b + 1) % len(D.objects) // 2 for b in range(len(C.objects))]]
    out = []
    for phi in maps:
        obj = dict(zip(C.objects, map(D.objects.__getitem__, phi)))
        out.append(Functor(C, D, obj, {
            f: D.hom(obj[C.src[f]], obj[C.tgt[f]])[0] for f in C.morphisms}))
    return out


CATEGORIES = {
    "chaotic(3)": lambda: chaotic(range(3)),
    "Z/4": lambda: cyclic_group(4),
    "Z/3 x chaotic(2)": lambda: product_cat(cyclic_group(3), chaotic(range(2))),
    "arrow": arrow_cat,
    "chaotic(3) x chaotic(3)": _square,
    "iso(arrow x Z/2)": lambda: iso_subgroupoid(
        product_cat(arrow_cat(), cyclic_group(2))),
}


@pytest.mark.parametrize("top", [3, 4])
@pytest.mark.parametrize("name", CATEGORIES)
def test_names_and_tables_equal_the_tuple_construction(name, top):
    C = CATEGORIES[name]()
    chains, _ = reference_index(C, top)
    N = NumberedNerve(C, top)
    assert [N.names(k) for k in range(top + 1)] == [
        reference_names(C, k, chains[k]) for k in range(top + 1)]
    tables = reference_tables(C, top)
    assert N.operators() == tables
    assert list(N.operators()) == list(tables)      # the audit order
    assert [len(N.last[k]) for k in range(top + 1)] == [
        len(chains[k]) for k in range(top + 1)]


@pytest.mark.parametrize("top", [3, 4])
@pytest.mark.parametrize("name", CATEGORIES)
def test_functor_images_equal_the_tuple_construction(name, top):
    C, D = CATEGORIES[name](), _square()
    functors = _object_map_functors(C, D)
    if name != "chaotic(3) x chaotic(3)":
        functors += enumerate_functors(C, C)[:12]
    known = {id(E): reference_index(E, top) for E in (C, D)}
    for F in functors:
        N, M = NumberedNerve(F.source, top), NumberedNerve(F.target, top)
        images = [N.image(*F._numbered, M, k) for k in range(top + 1)]
        assert images == reference_images(F, top, known[id(F.source)],
                                          known[id(F.target)])


@pytest.mark.parametrize("top", [3, 4])
def test_restriction_to_maximal_subgroupoids(top):
    """`_on_iso` restricts a functor between non-groupoids to their
    maximal subgroupoids on positions, as the name-keyed restriction
    did."""
    C = product_cat(arrow_cat(), cyclic_group(2))
    D = product_cat(cyclic_group(2), arrow_cat())
    G, H = iso_subgroupoid(C), iso_subgroupoid(D)
    source, target = _iso_level(C, top), _iso_level(D, top)
    functors = enumerate_functors(C, D)
    assert functors and not C.is_groupoid()
    for F in functors:
        R = Functor(G, H, F.obj_map, {f: F.mor_map[f] for f in G.morphisms})
        assert [_on_iso(F, source, target, k) for k in range(top + 1)] == \
            reference_images(R, top)


def _horn_probe_map():
    D, H = delta(2, 5), horn(2, 0, 5)
    incl = SimplicialMap(H, D, {k: {x: x for x in H.simplices[k]}
                                for k in H.degrees()})
    return pi_functor(d_star_map(incl), target_pi=pi_levelwise(d_star(D)))


@pytest.mark.parametrize("build", [
    lambda: constant_scat(product_cat(arrow_cat(), cyclic_group(2)), 3),
    lambda: constant_scat(chaotic(range(2)), 4),
    lambda: pi_levelwise(dec(sphere(1, 5))),
    lambda: suspend(s0_scat(2)),
    lambda: _horn_probe_map().source,
], ids=["constant-non-groupoid", "constant-chaotic", "pi-dec-circle",
        "suspension", "pi-d_star-horn"])
def test_diagonal_nerve_equals_the_tuple_construction(build):
    S = build()
    X = diag_nerve_iso(S)
    simplices, tables = reference_diag_nerve_iso(S)
    assert X.simplices == simplices
    assert X._lists == tables


def test_diagonal_map_equals_the_tuple_construction():
    g = _horn_probe_map()
    f = diag_nerve_iso_map(g)
    for n in f.source.degrees():
        G, H = g.source.levels[n], g.target.levels[n]
        index = {c: p for p, c in enumerate(reference_chains(H, (n,))[n])}
        image = reference_on_chain(g.levels[n], n)
        assert f.positions(n) == [index[image(c)]
                                  for c in reference_chains(G, (n,))[n]]
