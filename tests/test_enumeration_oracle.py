"""Independent oracles for `SimplicialMap.commuting_maps`, the one search
behind `enumerate_functors`, `enumerate_simplicial_functors` and
`enumerate_maps`.

Two references stand beside it:

* the three enumerators it replaced, kept here as they were: object
  backtracking with a breadth-first closure of morphism images
  (`reference_functors`), level-wise functors matched through frozenset
  signature buckets (`reference_simplicial_functors`), and backtracking
  over nondegenerate simplices extended along their degeneracy words
  (`reference_maps`);
* a brute-force filter: the product of candidate images, kept where
  `validate()` is empty.  It runs only where that product is small.

On generated instances all of them must find the same set of maps."""

import itertools

from hypothesis import given, reject, settings, strategies as st

from simpcat.bisset import d_star, dec
from simpcat.cat import CapExceeded, Functor, enumerate_functors
from simpcat.names import ordered
from simpcat.scat import (SimplicialFunctor, constant_scat,
                          enumerate_simplicial_functors, pi_levelwise)
from simpcat.sset import (SimplicialMap, boundary, delta, enumerate_maps,
                          sphere, two_point)

from helpers import is_identity, named_tables
from strategies import categories, groupoids, standard

# the largest product of candidate images the brute force walks
BRUTE_LIMIT = 2000
# the most functors an example may have
CAP = 300


# ---------------------------------------------------------------------
# the replaced enumerators
# ---------------------------------------------------------------------

def reference_functors(C, D):
    """All functors C -> D: object images in a connectivity order with
    hom-set pruning, then morphism images closed under composition."""
    between = {}
    for m in C.morphisms:
        if not is_identity(C, m):
            between.setdefault((C.src[m], C.tgt[m]), []).append(m)
    adj = {o: set() for o in C.objects}
    for (a, b) in between:
        adj[a].add(b)
        adj[b].add(a)
    order, seen = [], set()
    for o in C.objects:
        if o in seen:
            continue
        frontier = [o]
        seen.add(o)
        while frontier:
            a = frontier.pop(0)
            order.append(a)
            for b in ordered(adj[a]):
                if b not in seen:
                    seen.add(b)
                    frontier.append(b)

    morphs = list(C.morphisms)
    position = {m: k for k, m in enumerate(morphs)}
    # composition triples become checkable once their last morphism,
    # in enumeration order, receives an image
    triples_at = [[] for _ in morphs]
    for (g, f), h in C.comp.items():
        triples_at[max(position[g], position[f], position[h])].append((g, f, h))
    out = []

    def close(obj_map):
        assignments = [{}]
        for k, m in enumerate(morphs):
            a, b = obj_map[C.src[m]], obj_map[C.tgt[m]]
            if is_identity(C, m):
                options = [D.ident[a]]
            else:
                options = D.hom(a, b)
            nxt = []
            for partial in assignments:
                for fm in options:
                    trial = partial if len(options) == 1 else dict(partial)
                    trial[m] = fm
                    if all(D.comp[(trial[g], trial[f])] == trial[h]
                           for (g, f, h) in triples_at[k]):
                        nxt.append(trial)
            assignments = nxt
        return assignments

    def assign(k, obj_map):
        if k == len(order):
            for mor_map in close(obj_map):
                out.append(Functor(C, D, dict(obj_map), mor_map))
            return
        o = order[k]
        for img in D.objects:
            ok = True
            for o2 in order[:k]:
                if (o, o2) in between and not D.hom(img, obj_map[o2]):
                    ok = False
                    break
                if (o2, o) in between and not D.hom(obj_map[o2], img):
                    ok = False
                    break
            if (o, o) in between and not D.hom(img, img):
                ok = False
            if ok:
                obj_map[o] = img
                assign(k + 1, obj_map)
                del obj_map[o]

    assign(0, {})
    return out


def reference_simplicial_functors(S, T):
    """All simplicial functors S -> T: the functors of each level,
    extended level by level through buckets keyed on what they look like
    after the face and degeneracy functors."""
    bound = min(S.bound, T.bound)
    per_level = {n: reference_functors(S.levels[n], T.levels[n])
                 for n in range(bound + 1)}

    def signature(F):
        return (frozenset(F.obj_map.items()), frozenset(F.mor_map.items()))

    def compose(G, F):
        return Functor(F.source, G.target,
                       {o: G.obj_map[v] for o, v in F.obj_map.items()},
                       {m: G.mor_map[v] for m, v in F.mor_map.items()})

    partials = [[F] for F in per_level[0]]
    for n in range(1, bound + 1):
        buckets = {}
        for F in per_level[n]:
            key = (tuple(signature(compose(T.face(n, i), F))
                         for i in range(n + 1)),
                   tuple(signature(compose(F, S.degen(n - 1, j)))
                         for j in range(n)))
            buckets.setdefault(key, []).append(F)
        nxt = []
        for chosen in partials:
            prev = chosen[n - 1]
            key = (tuple(signature(compose(prev, S.face(n, i)))
                         for i in range(n + 1)),
                   tuple(signature(compose(T.degen(n - 1, j), prev))
                         for j in range(n)))
            for F in buckets.get(key, ()):
                nxt.append(chosen + [F])
        partials = nxt
    return [SimplicialFunctor(S, T, dict(enumerate(levels)))
            for levels in partials]


def extend_from_nondegenerate(X, Y, partial):
    """The assignment sending s_w b to s_w partial[b] for each simplex
    with Eilenberg-Zilber pair (b, w)."""
    assign, tables = {}, named_tables(Y)
    for n in X.degrees():
        assign[n] = {}
        for x in X.simplices[n]:
            base, word = X.ez(n, x)
            k = n - len(word)
            y = partial[(k, base)]
            for pos, j in enumerate(reversed(word)):
                y = tables[k + pos, k + pos + 1, j][y]
            assign[n][x] = y
    return SimplicialMap(X, Y, assign)


def reference_maps(X, Y, fixed=None):
    """All simplicial maps X -> Y, by backtracking over the nondegenerate
    simplices of X in degree order, checking faces."""
    fixed = fixed or {}
    cells = [(n, x) for n in X.degrees() for x in X.nondegenerate(n)]
    xt, yt = named_tables(X), named_tables(Y)

    def image_of(partial, n, x):
        base, word = X.ez(n, x)
        y = partial[(n - len(word), base)]
        for pos, j in enumerate(reversed(word)):
            y = yt[n - len(word) + pos, n - len(word) + pos + 1, j][y]
        return y

    results = []
    partial = {}

    def extend(k):
        if k == len(cells):
            results.append(extend_from_nondegenerate(X, Y, partial))
            return
        n, x = cells[k]
        candidates = [fixed[(n, x)]] if (n, x) in fixed else Y.simplices[n]
        for y in candidates:
            if all(image_of(partial, n - 1, xt[n, n - 1, i][x]) == yt[n, n - 1, i][y]
                   for i in (range(n + 1) if n >= 1 else ())):
                partial[(n, x)] = y
                extend(k + 1)
                del partial[(n, x)]

    extend(0)
    return results


# ---------------------------------------------------------------------
# brute force: the product of candidate images, filtered by validate()
# ---------------------------------------------------------------------

def brute_functors(C, D):
    """Every object assignment, then every choice of a morphism in the
    right hom-set for each morphism; None when there are more than
    BRUTE_LIMIT choices."""
    if len(D.objects) ** len(C.objects) > BRUTE_LIMIT:
        return None
    options = []
    for images in itertools.product(D.objects, repeat=len(C.objects)):
        obj_map = dict(zip(C.objects, images))
        homs = [D.hom(obj_map[C.src[m]], obj_map[C.tgt[m]])
                for m in C.morphisms]
        options.append((obj_map, homs))
    if sum(_product_size(homs) for _, homs in options) > BRUTE_LIMIT:
        return None
    return [F for obj_map, homs in options
            for mor_images in itertools.product(*homs)
            for F in [Functor(C, D, obj_map,
                              dict(zip(C.morphisms, mor_images)))]
            if not F.validate()]


def brute_simplicial_functors(S, T):
    per_level = []
    for n in range(min(S.bound, T.bound) + 1):
        per_level.append(brute_functors(S.levels[n], T.levels[n]))
        if per_level[-1] is None or _product_size(per_level) > BRUTE_LIMIT:
            return None
    return [SF for levels in itertools.product(*per_level)
            for SF in [SimplicialFunctor(S, T, dict(enumerate(levels)))]
            if not SF.validate()]


def brute_maps(X, Y, fixed=None):
    """Every image for each nondegenerate simplex, extended along the
    degeneracy words, kept where `validate()` is empty."""
    fixed = fixed or {}
    cells = [(n, x) for n in X.degrees() for x in X.nondegenerate(n)]
    options = [[fixed[c]] if c in fixed else Y.simplices[c[0]] for c in cells]
    if _product_size(options) > BRUTE_LIMIT:
        return None
    return [f for images in itertools.product(*options)
            for f in [extend_from_nondegenerate(X, Y, dict(zip(cells, images)))]
            if not f.validate()]


def _product_size(lists):
    size = 1
    for options in lists:
        size *= len(options)
    return size


def assert_same(key, found, reference, brute):
    """The search, the replaced enumerator and, where it ran, the brute
    force list the same maps, each once; `key` gives a map's hashable
    form."""
    def keys(maps):
        listed = [key(f) for f in maps]
        assert len(set(listed)) == len(listed), "a map is listed twice"
        return set(listed)
    expected = keys(reference)
    assert keys(found) == expected
    if brute is not None:
        assert keys(brute) == expected


def simplicial_functor_key(SF):
    return tuple(SF.levels[n].signature() for n in sorted(SF.levels))


def map_key(f):
    return tuple(tuple(f(n, x) for x in f.source.simplices[n])
                 for n in f.source.degrees())


# ---------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------

def capped(enumerate_homs, source, target):
    """The homs, or no example when there are more than CAP of them: the
    replaced enumerators take seconds on such pairs."""
    try:
        return enumerate_homs(source, target, CAP)
    except CapExceeded:
        reject()


@settings(max_examples=40, deadline=None)
@given(categories, categories)
def test_functors_match_references(C, D):
    assert_same(Functor.signature, capped(enumerate_functors, C, D),
                reference_functors(C, D), brute_functors(C, D))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(min_value=0, max_value=3))
def test_simplicial_maps_match_references(data, b):
    X = data.draw(standard(st.just(b)))
    Y = data.draw(standard(st.just(b)))
    fixed = None
    if data.draw(st.booleans()):
        fixed = {(0, data.draw(st.sampled_from(X.simplices[0]))):
                 data.draw(st.sampled_from(Y.simplices[0]))}
    assert_same(map_key, enumerate_maps(X, Y, fixed),
                reference_maps(X, Y, fixed), brute_maps(X, Y, fixed))


_SMALL_SPACES = (lambda b: delta(0, b), lambda b: delta(1, b),
                 lambda b: boundary(1, b), lambda b: sphere(1, b), two_point)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_SMALL_SPACES), st.sampled_from(("dec", "d_star")),
       groupoids, st.integers(min_value=0, max_value=1))
def test_simplicial_functors_match_references(space, route, G, b):
    if route == "dec":
        S = pi_levelwise(dec(space(b + 3)))
    else:
        S = pi_levelwise(d_star(space(b + 4)))
    T = constant_scat(G, b)
    assert_same(simplicial_functor_key,
                capped(enumerate_simplicial_functors, S, T),
                reference_simplicial_functors(S, T),
                brute_simplicial_functors(S, T))
