"""An independent oracle for the positional materialization of presented
groupoids (`cat._materialize`), the functors induced out of it, and the
colimits built on it.

The reference is the name-level construction that the positional one
replaced, kept here as it was: a spanning forest over named generators
in canonical order, vertex-group relators rewritten letter by letter, a
coset closure for every vertex group, the composition table keyed by
morphism names, and induced functors that walk each morphism's
(generator, sign) letters through the target's name-keyed table.  One
change: the walk applies each vertex-group generator as the loop along
its endpoints' root paths.  The replaced walk applied the bare generator,
which raised KeyError for a generator away from its component's root
(`test_cat.test_off_root_vertex_generator_induces_the_identity`).

On generated presentations, pushouts, levelwise fundamental groupoids
and their functors, both must give the same objects, the same morphisms
in the same order, the same tables, generator images and functor maps,
or fail with the same BoundExceeded message."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from simpcat.bisset import d_star, d_star_map, dec
from simpcat.cat import (BoundExceeded, CategoryError, FinCategory, Functor,
                         _coset_closure, _materialize, chaotic, colimit_record,
                         cyclic_group, fundamental_groupoid, terminal_cat)
from simpcat.names import ordered, sort_key
from simpcat.scat import _induced_colimit_functor, pi_functor, pi_levelwise
from simpcat.sset import SimplicialMap, delta, horn, sphere, truncate

from strategies import groupoids, standard


# ---------------------------------------------------------------------
# the replaced name-level construction
# ---------------------------------------------------------------------

def word_endpoints(generators, word):
    if not word:
        return None
    ends = [(a, b) if s > 0 else (b, a)
            for a, b, s in ((*generators[g], s) for g, s in word)]
    return (ends[0][0], ends[-1][1])


def reference_forest(objects, generators):
    glist = ordered(generators)
    gindex = {g: k for k, g in enumerate(glist)}
    adj = {o: [] for o in objects}
    for g in glist:
        a, b = generators[g]
        adj[a].append((b, g, +1))
        adj[b].append((a, g, -1))
    comp_of, paths, roots, tree = {}, {}, [], set()
    for o in objects:
        if o in comp_of:
            continue
        roots.append(o)
        comp_of[o], paths[o] = o, ()
        frontier = [o]
        while frontier:
            a = frontier.pop(0)
            for b, g, sign in adj[a]:
                if b not in comp_of:
                    comp_of[b] = o
                    paths[b] = paths[a] + (2 * gindex[g] + (sign < 0),)
                    tree.add(g)
                    frontier.append(b)
    members = {root: [o for o in objects if comp_of[o] == root]
               for root in roots}
    return glist, gindex, comp_of, roots, members, paths, tree


def group_words(table, ngens):
    words = {0: ()}
    frontier = [0]
    while frontier:
        c = frontier.pop(0)
        for d in range(2 * ngens):
            if table[c][d] not in words:
                words[table[c][d]] = words[c] + (d,)
                frontier.append(table[c][d])
    return words


def follow(table, c, word):
    for d in word:
        c = table[c][d]
    return c


class Reference:
    """The materialized groupoid as names: its category, {generator:
    morphism}, and per morphism its (generator, sign) letters."""

    def __init__(self, objects, generators, relations, bound):
        glist, gindex, comp_of, roots, members, paths, tree = \
            reference_forest(objects, generators)
        vgens = {root: [g for g in glist if g not in tree
                        and comp_of[generators[g][0]] == root]
                 for root in roots}
        vindex = {root: {g: k for k, g in enumerate(vgens[root])}
                  for root in roots}

        def chi(word, root):
            return tuple(2 * vindex[root][g] + (s < 0)
                         for g, s in word if g not in tree)
        relators = {root: [] for root in roots}
        for u, w in relations:
            ends = word_endpoints(generators, u or w)
            if ends is not None:
                root = comp_of[ends[0]]
                rel = chi(u, root) + tuple(d ^ 1 for d in reversed(chi(w, root)))
                if rel:
                    relators[root].append(rel)
        tables, total = {}, 0
        for root in roots:
            n = len(vgens[root])
            tables[root] = _coset_closure(n, relators[root], bound) if n else [[]]
            if tables[root] is None:
                raise BoundExceeded(
                    f"vertex group at {root!r} did not close within {bound}")
            total += len(tables[root]) * len(members[root]) ** 2
            if total > bound:
                raise BoundExceeded(f"materialized groupoid exceeds {bound} morphisms")
        words = {root: group_words(tables[root], len(vgens[root]))
                 for root in roots}
        morphisms, src, tgt, ident, comp = [], {}, {}, {}, {}
        for root in roots:
            table, M, order = tables[root], members[root], len(tables[root])
            for a in M:
                ident[a] = (a, 0, a)
                for b in M:
                    for e in range(order):
                        morphisms.append((a, e, b))
                        src[(a, e, b)], tgt[(a, e, b)] = a, b
                    for c in M:
                        for e1 in range(order):
                            for e2 in range(order):
                                comp[((b, e2, c), (a, e1, b))] = \
                                    (a, follow(table, e1, words[root][e2]), c)
        self.category = FinCategory(objects, morphisms, src, tgt, ident, comp)
        self.genmap = {}
        for g in glist:
            a, b = generators[g]
            root = comp_of[a]
            loop = () if g in tree else (2 * gindex[g],)
            body = paths[a] + loop + tuple(d ^ 1 for d in reversed(paths[b]))
            word = tuple(2 * vindex[root][glist[d // 2]] + d % 2
                         for d in body if glist[d // 2] not in tree)
            self.genmap[g] = (a, follow(tables[root], 0, word), b)

        def along(path):
            return [(glist[d // 2], -1 if d % 2 else 1) for d in path]

        def back(path):
            return [(g, -s) for g, s in reversed(along(path))]

        def letters(m):
            a, e, b = m
            root = comp_of[a]
            out = back(paths[a])
            for d in words[root][e]:
                g = vgens[root][d // 2]
                s, t = generators[g]
                loop = along(paths[s]) + [(g, 1)] + back(paths[t])
                out += loop if d % 2 == 0 else [(h, -r) for h, r in reversed(loop)]
            return out + along(paths[b])
        self.letters = letters

    def induced(self, target, obj_map, gen_map):
        T = target
        mor_map = {}
        for m in self.category.morphisms:
            cur = T.ident[obj_map[self.category.src[m]]]
            for g, s in self.letters(m):
                img = gen_map[g] if s > 0 else T.inverse(gen_map[g])
                cur = T.comp[(img, cur)]
            mor_map[m] = cur
        return obj_map, mor_map


def reference(P, bound):
    """The reference materialization of a positional presentation, read
    back into names."""
    return Reference(P.objects, P.generators,
                     [(P.spell(u), P.spell(w)) for u, w in P.relations], bound)


def reference_colimit(cats, edges, bound):
    """The replaced colimit: objects named by the least member of their
    class, one generator per non-identity morphism, one relation per
    composite and per edge image."""
    parent = {(i, o): (i, o) for i, C in enumerate(cats) for o in C.objects}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x
    for (i, j, F) in edges:
        for o in cats[i].objects:
            x, y = find((i, o)), find((j, F.obj_map[o]))
            if x != y:
                lo, hi = ordered((x, y))
                parent[hi] = lo
    generators = {(i, m): (find((i, C.src[m])), find((i, C.tgt[m])))
                  for i, C in enumerate(cats) for m in C.morphisms
                  if not C.is_identity(m)}

    def word(i, m):
        return () if cats[i].is_identity(m) else (((i, m), 1),)
    relations = [(word(i, f) + word(i, g), word(i, h))
                 for i, C in enumerate(cats) for (g, f), h in C.comp.items()]
    relations += [(word(i, m), word(j, F.mor_map[m]))
                  for (i, j, F) in edges for m in cats[i].morphisms]
    objects = tuple(sorted({find(x) for x in parent}, key=sort_key))
    ref = Reference(objects, generators, relations, bound)
    cocones = []
    for i, C in enumerate(cats):
        obj_map = {o: find((i, o)) for o in C.objects}
        cocones.append((obj_map, {
            m: ref.category.ident[obj_map[C.src[m]]] if C.is_identity(m)
            else ref.genmap[(i, m)] for m in C.morphisms}))
    return ref, cocones


# ---------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------

def assert_same_category(C, R):
    assert C.objects == R.objects
    assert C.morphisms == R.morphisms
    assert (C.src, C.tgt, C.ident) == (R.src, R.tgt, R.ident)
    assert C.comp == R.comp


def assert_same_record(rec, ref):
    assert_same_category(rec.category, ref.category)
    names = rec.category.morphisms
    assert dict(zip(rec.presentation.generators,
                    map(names.__getitem__, rec.genmap))) == ref.genmap


def both(build, build_reference):
    """Both results, or both BoundExceeded messages."""
    try:
        ours = build()
    except BoundExceeded as e:
        with pytest.raises(BoundExceeded) as theirs:
            build_reference()
        assert str(theirs.value) == str(e)
        return None
    return ours, build_reference()


def pushout(C, x, D, y, order):
    """C and D glued along the point at x and y, with the point, C and
    D at the diagram positions `order`."""
    pt = terminal_cat()
    cats = [None] * 3
    cats[order[0]], cats[order[1]], cats[order[2]] = pt, C, D
    return cats, [(order[0], order[k], Functor(pt, E, {"*": o},
                                               {("id", "*"): E.ident[o]}))
                  for k, E, o in ((1, C, x), (2, D, y))]


# ---------------------------------------------------------------------
# the properties
# ---------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(standard(st.integers(min_value=2, max_value=3)))
def test_fundamental_groupoids_match_reference(X):
    P = fundamental_groupoid(X)
    out = both(lambda: _materialize(P, 400), lambda: reference(P, 400))
    if out is not None:
        rec, ref = out
        assert_same_record(rec, ref)
        F = rec.induced_functor(rec.category, list(range(len(P.objects))),
                                rec.genmap)
        assert F.mor_map == dict(zip(F.source.morphisms, F.source.morphisms))


@settings(max_examples=60, deadline=None)
@given(st.data(), groupoids, groupoids, st.permutations(range(3)))
def test_pushouts_match_reference(data, C, D, order):
    """C and D glued at one object each, with the point placed anywhere
    in the diagram, so that vertex groups sit at and away from roots."""
    x = data.draw(st.sampled_from(C.objects))
    y = data.draw(st.sampled_from(D.objects))
    cats, edges = pushout(C, x, D, y, order)
    out = both(lambda: colimit_record(cats, edges, 120),
               lambda: reference_colimit(cats, edges, 120))
    if out is None:
        return
    (rec, cocones), (ref, ref_cocones) = out
    assert_same_record(rec, ref)
    assert [(F.obj_map, F.mor_map) for F in cocones] == ref_cocones
    legs = [Functor.identity(B) for B in cats]
    F = _induced_colimit_functor(rec, rec.category, cocones, legs)
    gen_map = {g: F.target.morphisms[p]
               for g, p in zip(rec.presentation.generators, rec.genmap)}
    assert (F.obj_map, F.mor_map) == ref.induced(
        ref.category, dict(zip(rec.category.objects, rec.category.objects)),
        gen_map)


@pytest.mark.parametrize("order, x, n", [
    ((0, 1, 2), 0, 2), ((1, 0, 2), 1, 2), ((1, 0, 2), 1, 3), ((2, 1, 0), 1, 3),
], ids=["Z2-at-root", "Z2-away", "Z3-away", "Z3-away-last"])
def test_nontrivial_vertex_groups_match_reference(order, x, n):
    """The chaotic groupoid on two objects glued to Z/n along a point
    (the `_pushout()` of test_cat at Z2-at-root); the vertex group sits
    at its component's root or away from it."""
    cats, edges = pushout(chaotic(range(2)), x, cyclic_group(n), "*", order)
    rec, cocones = colimit_record(cats, edges)
    ref, ref_cocones = reference_colimit(cats, edges, 10000)
    assert_same_record(rec, ref)
    assert [(F.obj_map, F.mor_map) for F in cocones] == ref_cocones
    assert sorted(G.order for G in rec.groups.values()) == [n]


def _levelwise_reference(B, S):
    """Per level the reference materialization of each row, and each
    structure functor's maps induced by the reference walk."""
    refs = {n: reference(S.records[n].presentation, 20000)
            for n in S.levels}
    for n in refs:
        assert_same_record(S.records[n], refs[n])

    def image(p, n, m, k):
        return dict(zip(B.simplices[(p, n)],
                        map(B.simplices[(p, m)].__getitem__,
                            B.columns[p].positions(n, m, k))))
    for (n, m, k), F in [((n, n - 1, i), S.face(n, i)) for (n, i) in S.faces] \
            + [((n, n + 1, j), S.degen(n, j)) for (n, j) in S.degens]:
        gen_map = {e: refs[m].genmap[y] for e, y in image(1, n, m, k).items()}
        assert (F.obj_map, F.mor_map) == refs[n].induced(
            refs[m].category, image(0, n, m, k), gen_map)
    return refs


@settings(max_examples=25, deadline=None)
@given(standard(st.integers(min_value=2, max_value=3)),
       st.sampled_from((dec, d_star)))
def test_levelwise_structure_functors_match_reference(X, route):
    B = route(X)
    try:
        S = pi_levelwise(B)
    except (BoundExceeded, CategoryError):
        assume(False)
    _levelwise_reference(B, S)


@pytest.mark.parametrize("n, i, b", [(2, 0, 3), (2, 1, 3), (3, 1, 4)])
def test_pi_functor_of_a_horn_inclusion_matches_reference(n, i, b):
    D, H = delta(n, b), horn(n, i, b)
    incl = SimplicialMap(H, D, {k: {x: x for x in H.simplices[k]}
                                for k in H.degrees()})
    f = d_star_map(incl)
    T = pi_levelwise(f.target)
    S = pi_levelwise(f.source)
    refs_T = _levelwise_reference(f.target, T)
    refs_S = _levelwise_reference(f.source, S)
    g = pi_functor(f, target_pi=T)
    for n_, F in g.levels.items():
        obj_map = {v: f(0, n_, v) for v in f.source.simplices[(0, n_)]}
        gen_map = {e: refs_T[n_].genmap[f(1, n_, e)]
                   for e in f.source.simplices[(1, n_)]}
        assert (F.obj_map, F.mor_map) == refs_S[n_].induced(
            refs_T[n_].category, obj_map, gen_map)


def test_circle_fails_alike():
    P = fundamental_groupoid(truncate(sphere(1, 3), 2))
    assert both(lambda: _materialize(P, 30), lambda: reference(P, 30)) is None
