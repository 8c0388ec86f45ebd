"""Finite categories, presented groupoids, nerves, and bounded colimits.

Categories are explicit composition tables, so every law is checked
exhaustively.  Presented groupoids are materialized by a spanning-forest
reduction followed by bounded coset closure of each vertex group; a
closure that does not finish within the bound raises BoundExceeded
instead of guessing.  Functors are enumerated as the maps of 2-truncated
nerves, by the hom search of :mod:`simpcat.sset`.

A category numbers its objects and morphisms by their positions in
stored order.  Nerve chains are numbered (an object position, or a tuple
of morphism positions), the one nerve operator `chain_operator` and a
functor's `on_chain` work on them, and names are decoded only where a
nerve lists its cells (`chain_names`).  `numbered_nerve` gives the
truncated nerve as chains, their positions and the operators' position
lists; the nerve stores those lists, and the functor search reads them.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .names import ordered, sort_key
from .sset import MAX_VIOLATIONS, SimplicialMap, TruncatedSimplicialSet


class CategoryError(Exception):
    pass


class BoundExceeded(CategoryError):
    """Closure did not terminate within the requested bound."""


class CapExceeded(BoundExceeded):
    """An enumeration produced more results than its cap allows."""


class FinCategory:
    def __init__(self, objects, morphisms, src, tgt, ident, comp):
        self.objects = tuple(ordered(objects))
        self.morphisms = tuple(ordered(morphisms))
        self.src = dict(src)
        self.tgt = dict(tgt)
        self.ident = dict(ident)
        self.comp = dict(comp)
        self._mset = frozenset(self.morphisms)

    def compose(self, g, f):
        """g after f."""
        return self.comp[(g, f)]

    @functools.cached_property
    def _homs(self):
        """{(a, b): the morphisms a -> b in stored order}, built on the
        first `hom` call."""
        homs = {}
        for m in self.morphisms:
            homs.setdefault((self.src[m], self.tgt[m]), []).append(m)
        return {ends: tuple(ms) for ends, ms in homs.items()}

    def hom(self, a, b):
        return self._homs.get((a, b), ())

    def is_identity(self, m):
        return self.ident.get(self.src[m]) == m and self.src[m] == self.tgt[m]

    def inverse(self, m):
        """Two-sided inverse found by table search, or None."""
        a, b = self.src[m], self.tgt[m]
        for g in self.hom(b, a):
            if (self.comp[(g, m)] == self.ident[a]
                    and self.comp[(m, g)] == self.ident[b]):
                return g
        return None

    def is_groupoid(self):
        return all(self.inverse(m) is not None for m in self.morphisms)

    # -- numbered tables and nerve chains ------------------------------

    @functools.cached_property
    def _numbered(self):
        """The category on positions in stored order, built on first
        use: (object positions {object: a}, morphism positions
        {morphism: f}, source and target of each morphism, identity of
        each object), all read and written as positions."""
        obj = {o: a for a, o in enumerate(self.objects)}
        mor = {m: f for f, m in enumerate(self.morphisms)}
        return (obj, mor, [obj[self.src[m]] for m in self.morphisms],
                [obj[self.tgt[m]] for m in self.morphisms],
                [mor[self.ident[o]] for o in self.objects])

    @functools.cached_property
    def _after(self):
        """Composition on positions: _after[g] = {f: the composite g f},
        built on first use."""
        mor = self._numbered[1]
        after = [{} for _ in self.morphisms]
        for (g, f), h in self.comp.items():
            after[mor[g]][mor[f]] = mor[h]
        return after

    def chains(self, degrees):
        """{k: composable k-chains, in order} for each k in `degrees`,
        numbered: degree 0 holds the object positions, degree k the
        k-tuples of morphism positions.  The chains grow by one morphism
        per degree, taken in order from the morphisms out of the last
        target; extending ordered chains by ordered morphisms keeps them
        in lexicographic order, which is the order of their names."""
        _, _, src, tgt, _ = self._numbered
        out_of = [[] for _ in self.objects]
        for f, a in enumerate(src):
            out_of[a].append(f)
        out = {0: tuple(range(len(self.objects)))} if 0 in degrees else {}
        chains = [()]
        for k in range(1, max(degrees) + 1):
            chains = [c + (f,) for c in chains
                      for f in (out_of[tgt[c[-1]]] if c
                                else range(len(self.morphisms)))]
            if k in degrees:
                out[k] = tuple(chains)
        return out

    def chain_names(self, k, chains):
        """The names of numbered k-chains: the object at k = 0, else the
        tuple of morphisms."""
        if k == 0:
            return tuple(map(self.objects.__getitem__, chains))
        name = self.morphisms.__getitem__
        return tuple([tuple(map(name, c)) for c in chains])

    def chain_operator(self, k, m, i):
        """The nerve operator d_i (m = k - 1) or s_i (m = k + 1) as a
        function on numbered k-chains."""
        _, _, src, tgt, ident = self._numbered
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
        after = self._after
        return lambda c: c[:i - 1] + (after[c[i]][c[i - 1]],) + c[i + 1:]

    def numbered_nerve(self, top):
        """The nerve truncated at `top` on numbered chains: its chains
        {k: chains, in order}, their positions {k: {chain: position}},
        and its operator tables {(k, m, i): position list} in
        `TruncatedSimplicialSet.positions` order."""
        chains = self.chains(range(top + 1))
        index = {k: {c: p for p, c in enumerate(cs)} for k, cs in chains.items()}
        tables = {(k, m, i): list(map(index[m].__getitem__,
                                      map(self.chain_operator(k, m, i), chains[k])))
                  for k in range(top + 1) for m in (k - 1, k + 1)
                  if 0 <= m <= top for i in range(k + 1)}
        return chains, index, tables

    def validate(self):
        v = []
        for o in self.objects:
            i = self.ident.get(o)
            if i not in self._mset or self.src.get(i) != o or self.tgt.get(i) != o:
                v.append(f"bad identity at {o!r}")
        for m in self.morphisms:
            if self.src.get(m) not in self.objects or self.tgt.get(m) not in self.objects:
                v.append(f"dangling endpoints on {m!r}")
        if v:
            return v[:MAX_VIOLATIONS]
        for f in self.morphisms:
            for g in self.morphisms:
                composable = self.tgt[f] == self.src[g]
                present = (g, f) in self.comp
                if composable != present:
                    v.append(f"composition table wrong on ({g!r}, {f!r})")
                    continue
                if present:
                    h = self.comp[(g, f)]
                    if (h not in self._mset or self.src[h] != self.src[f]
                            or self.tgt[h] != self.tgt[g]):
                        v.append(f"composite ({g!r}, {f!r}) ill-typed")
        if v:
            return v[:MAX_VIOLATIONS]
        for m in self.morphisms:
            if self.comp[(m, self.ident[self.src[m]])] != m:
                v.append(f"right identity law fails on {m!r}")
            if self.comp[(self.ident[self.tgt[m]], m)] != m:
                v.append(f"left identity law fails on {m!r}")
        for f in self.morphisms:
            for g in self.morphisms:
                if self.tgt[f] != self.src[g]:
                    continue
                for h in self.morphisms:
                    if self.tgt[g] != self.src[h]:
                        continue
                    if self.comp[(h, self.comp[(g, f)])] != self.comp[(self.comp[(h, g)], f)]:
                        v.append(f"associativity fails on ({h!r}, {g!r}, {f!r})")
        return v[:MAX_VIOLATIONS]

    def __repr__(self):
        return f"FinCategory({len(self.objects)} objects, {len(self.morphisms)} morphisms)"


# ---------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------

def discrete(objects):
    objects = tuple(objects)
    morphisms = tuple(("id", o) for o in objects)
    return FinCategory(objects, morphisms,
                       {m: m[1] for m in morphisms},
                       {m: m[1] for m in morphisms},
                       {o: ("id", o) for o in objects},
                       {(m, m): m for m in morphisms})


def chaotic(objects):
    """Exactly one morphism between every ordered pair of objects."""
    objects = tuple(objects)
    morphisms = tuple((a, b) for a in objects for b in objects)
    comp = {((b, c), (a, b2)): (a, c)
            for a in objects for b in objects for c in objects
            for b2 in [b]}
    return FinCategory(objects, morphisms,
                       {(a, b): a for (a, b) in morphisms},
                       {(a, b): b for (a, b) in morphisms},
                       {o: (o, o) for o in objects},
                       comp)


def terminal_cat():
    return discrete(("*",))


def cyclic_group(n):
    """One-object groupoid on "*" with morphisms 0..n-1 added mod n."""
    morphisms = tuple(range(n))
    return FinCategory(("*",), morphisms,
                       {m: "*" for m in morphisms},
                       {m: "*" for m in morphisms},
                       {"*": 0},
                       {(g, f): (g + f) % n for g in morphisms for f in morphisms})


def arrow_cat():
    """The poset 0 -> 1."""
    morphisms = (("id", 0), ("id", 1), ("to", 0, 1))
    src = {("id", 0): 0, ("id", 1): 1, ("to", 0, 1): 0}
    tgt = {("id", 0): 0, ("id", 1): 1, ("to", 0, 1): 1}
    comp = {}
    for g in morphisms:
        for f in morphisms:
            if tgt[f] == src[g]:
                comp[(g, f)] = f if g[0] == "id" else (g if f[0] == "id" else None)
    return FinCategory((0, 1), morphisms, src, tgt,
                       {0: ("id", 0), 1: ("id", 1)}, comp)


def product_cat(C, D):
    objects = tuple((a, b) for a in C.objects for b in D.objects)
    morphisms = tuple((m, n) for m in C.morphisms for n in D.morphisms)
    comp = {}
    for (g, h) in morphisms:
        for (f, e) in morphisms:
            if C.tgt[f] == C.src[g] and D.tgt[e] == D.src[h]:
                comp[((g, h), (f, e))] = (C.comp[(g, f)], D.comp[(h, e)])
    return FinCategory(objects, morphisms,
                       {(m, n): (C.src[m], D.src[n]) for (m, n) in morphisms},
                       {(m, n): (C.tgt[m], D.tgt[n]) for (m, n) in morphisms},
                       {(a, b): (C.ident[a], D.ident[b]) for (a, b) in objects},
                       comp)


def coproduct_cat(cats):
    """Disjoint union with (index, name) tags; returns (category, injections)."""
    objects, morphisms, src, tgt, ident, comp = [], [], {}, {}, {}, {}
    for i, C in enumerate(cats):
        for o in C.objects:
            objects.append((i, o))
            ident[(i, o)] = (i, C.ident[o])
        for m in C.morphisms:
            morphisms.append((i, m))
            src[(i, m)] = (i, C.src[m])
            tgt[(i, m)] = (i, C.tgt[m])
        for (g, f), h in C.comp.items():
            comp[((i, g), (i, f))] = (i, h)
    total = FinCategory(objects, morphisms, src, tgt, ident, comp)
    injections = [Functor(C, total,
                          {o: (i, o) for o in C.objects},
                          {m: (i, m) for m in C.morphisms})
                  for i, C in enumerate(cats)]
    return total, injections


class Functor:
    def __init__(self, source, target, obj_map, mor_map):
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.mor_map = dict(mor_map)

    def __call__(self, m):
        return self.mor_map[m]

    @functools.cached_property
    def _numbered(self):
        """(object images, morphism images) as target positions, indexed
        by source position; built on first use."""
        obj, mor = self.target._numbered[:2]
        return ([obj[self.obj_map[o]] for o in self.source.objects],
                [mor[self.mor_map[m]] for m in self.source.morphisms])

    def on_chain(self, k):
        """The image of numbered k-chains of the source's nerve, numbered
        in the target's, as a function."""
        objects, morphisms = self._numbered
        if k == 0:
            return objects.__getitem__
        image = morphisms.__getitem__
        return lambda c: tuple(map(image, c))

    @classmethod
    def identity(cls, C):
        return cls(C, C, {o: o for o in C.objects}, {m: m for m in C.morphisms})

    @classmethod
    def from_numbered(cls, C, D, objects, arrows):
        """The functor C -> D given on positions: `objects` lists the
        image of each object and `arrows` of each morphism, which are
        the numbered 1-chains."""
        return cls(C, D, dict(zip(C.objects, map(D.objects.__getitem__, objects))),
                   dict(zip(C.morphisms, map(D.morphisms.__getitem__, arrows))))

    def validate(self):
        v = []
        C, D = self.source, self.target
        for o in C.objects:
            if self.obj_map.get(o) not in D.ident:
                v.append(f"object {o!r} has no image in the target")
        for m in C.morphisms:
            if self.mor_map.get(m) not in D.src:
                v.append(f"morphism {m!r} has no image in the target")
        if v:
            return v[:MAX_VIOLATIONS]
        for o in C.objects:
            if self.mor_map[C.ident[o]] != D.ident[self.obj_map[o]]:
                v.append(f"identity at {o!r} not preserved")
        for m in C.morphisms:
            fm = self.mor_map[m]
            if D.src[fm] != self.obj_map[C.src[m]] \
                    or D.tgt[fm] != self.obj_map[C.tgt[m]]:
                v.append(f"endpoints of {m!r} not preserved")
        if v:
            return v[:MAX_VIOLATIONS]
        for (g, f), h in C.comp.items():
            if D.comp[(self.mor_map[g], self.mor_map[f])] != self.mor_map[h]:
                v.append(f"composite ({g!r}, {f!r}) not preserved")
        return v[:MAX_VIOLATIONS]

    def signature(self):
        """Canonical hashable form."""
        return (tuple(self.obj_map[o] for o in self.source.objects),
                tuple(self.mor_map[m] for m in self.source.morphisms))

    def __eq__(self, other):
        return (isinstance(other, Functor) and self.source is other.source
                and self.target is other.target
                and self.signature() == other.signature())

    def __hash__(self):
        return hash(self.signature())


class NaturalTransformation:
    def __init__(self, source, target, components):
        self.source = source      # Functor
        self.target = target
        self.components = dict(components)

    def validate(self):
        v = []
        F, G = self.source, self.target
        D = F.target
        for o in F.source.objects:
            c = self.components.get(o)
            if c is None or D.src[c] != F.obj_map[o] or D.tgt[c] != G.obj_map[o]:
                v.append(f"component at {o!r} ill-typed")
        if v:
            return v[:MAX_VIOLATIONS]
        for m in F.source.morphisms:
            a, b = F.source.src[m], F.source.tgt[m]
            if D.comp[(self.components[b], F.mor_map[m])] != \
                    D.comp[(G.mor_map[m], self.components[a])]:
                v.append(f"naturality fails at {m!r}")
        return v[:MAX_VIOLATIONS]


# ---------------------------------------------------------------------
# iso subgroupoid and nerve
# ---------------------------------------------------------------------

def iso_subgroupoid(C):
    """Wide subcategory of all invertible morphisms; `C` itself when
    it is a groupoid."""
    invertible = tuple(m for m in C.morphisms if C.inverse(m) is not None)
    if len(invertible) == len(C.morphisms):
        return C
    inv_set = frozenset(invertible)
    comp = {k: h for k, h in C.comp.items()
            if k[0] in inv_set and k[1] in inv_set}
    return FinCategory(C.objects, invertible,
                       {m: C.src[m] for m in invertible},
                       {m: C.tgt[m] for m in invertible},
                       dict(C.ident), comp)


def nerve(C, bound):
    """Composable chains: degree k simplices are k-tuples of morphisms."""
    return _nerve(C, bound)[0]


def _nerve(C, bound):
    """The nerve of C, its numbered chains, and their positions."""
    if bound < 0:
        raise CategoryError(f"nerve needs a bound >= 0, got {bound}")
    chains, index, tables = C.numbered_nerve(bound)
    X = TruncatedSimplicialSet(
        bound, {k: C.chain_names(k, cs) for k, cs in chains.items()}, tables)
    return X, chains, index


def nerve_functor(F, bound):
    """Induced simplicial map between nerves."""
    X, chains, _ = _nerve(F.source, bound)
    Y, _, index = _nerve(F.target, bound)
    return SimplicialMap(X, Y, {
        k: list(map(index[k].__getitem__, map(F.on_chain(k), chains[k])))
        for k in X.degrees()})


# ---------------------------------------------------------------------
# presented groupoids
# ---------------------------------------------------------------------

class PresentedGroupoid:
    """Words are tuples of (generator, sign) in application order: the
    first letter applies first.  Relations equate two parallel words."""

    def __init__(self, objects, generators, relations):
        # The one sort left on `sort_key` itself: perfbench's tracer test
        # (test_intra_package_calls_are_caught) checks that a traced
        # `pi_levelwise` folds a `names.sort_key` call, and this is the
        # cheapest sort on that path (one key per object).
        self.objects = tuple(sorted(objects, key=sort_key))
        self.generators = dict(generators)      # name -> (src, tgt)
        self.relations = tuple(relations)       # (word, word)

    def word_endpoints(self, word):
        if not word:
            return None
        ends = []
        for g, s in word:
            a, b = self.generators[g]
            ends.append((a, b) if s > 0 else (b, a))
        for k in range(len(ends) - 1):
            if ends[k][1] != ends[k + 1][0]:
                raise CategoryError("word not composable")
        return (ends[0][0], ends[-1][1])

    def validate(self):
        v = []
        for g, (a, b) in self.generators.items():
            if a not in self.objects or b not in self.objects:
                v.append(f"generator {g!r} has unknown endpoints")
        for u, w in self.relations:
            try:
                eu = self.word_endpoints(u)
                ew = self.word_endpoints(w)
            except CategoryError:
                v.append(f"relation {u!r} = {w!r} not composable")
                continue
            if eu is not None and ew is not None and eu != ew:
                v.append(f"relation {u!r} = {w!r} endpoints differ")
        return v


def fundamental_groupoid(X):
    """One generator per 1-simplex (degenerate ones forced to
    identities), one triangle relation per 2-simplex."""
    if X.bound < 2:
        raise CategoryError("fundamental groupoid needs bound >= 2")
    vertices, edges = X.simplices[0], X.simplices[1]
    target, source = ([vertices[v] for v in X.positions(1, 0, i)] for i in range(2))
    generators = dict(zip(edges, zip(source, target)))
    second, long_edge, first = ([edges[e] for e in X.positions(2, 1, i)]
                                for i in range(3))
    relations = [(((f, 1), (s, 1)), ((e, 1),))
                 for f, s, e in zip(first, second, long_edge)]
    nondegenerate = set(X.nondegenerate_positions(1))
    for p, e in enumerate(X.simplices[1]):
        if p not in nondegenerate:
            relations.append((((e, 1),), ()))
    return PresentedGroupoid(X.simplices[0], generators, relations)


# coset closure: directions 2g (generator) and 2g+1 (inverse)

def _coset_closure(ngens, relators, max_cosets):
    """Vertex set closed under the generator action modulo the relators.
    Returns the neighbor table of live cosets, or None past the bound."""
    SENT = -1
    labels = [0]
    neighbors = [[SENT] * (2 * ngens)]

    def find(c):
        while labels[c] != c:
            labels[c] = labels[labels[c]]
            c = labels[c]
        return c

    def step(c, d):
        c = find(c)
        if neighbors[c][d] == SENT:
            labels.append(len(labels))
            neighbors.append([SENT] * (2 * ngens))
            neighbors[c][d] = len(labels) - 1
            neighbors[find(len(labels) - 1)][d ^ 1] = c
        return find(neighbors[c][d])

    def follow(c, word):
        for d in word:
            c = step(c, d)
        return c

    def unify(c1, c2):
        pending = [(c1, c2)]
        while pending:
            a, b = pending.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            labels[b] = a
            for d in range(2 * ngens):
                nb = neighbors[b][d]
                if nb == SENT:
                    continue
                if neighbors[a][d] == SENT:
                    neighbors[a][d] = nb
                else:
                    pending.append((neighbors[a][d], nb))

    dwords = list(relators)
    visit = 0
    while visit < len(labels):
        if find(visit) == visit:
            for w in dwords:
                unify(follow(visit, w), visit)
            for d in range(2 * ngens):
                step(visit, d)
        visit += 1
        if len(labels) > max_cosets * 8 + 8:
            return None
    live = sorted({find(c) for c in range(len(labels))})
    if len(live) > max_cosets:
        return None
    index = {c: k for k, c in enumerate(live)}
    return [[index[find(neighbors[c][d])] for d in range(2 * ngens)] for c in live]


class MaterializedGroup:
    """Finite group carried as its right-multiplication table on
    elements 0..n-1, with 0 the identity."""

    def __init__(self, table, ngens):
        self.table = table
        self.ngens = ngens
        self.order = len(table)
        self.words = self._rep_words()

    def _rep_words(self):
        words = {0: ()}
        frontier = [0]
        while frontier:
            c = frontier.pop(0)
            for d in range(2 * self.ngens):
                n = self.table[c][d]
                if n not in words:
                    words[n] = words[c] + (d,)
                    frontier.append(n)
        if len(words) != self.order:
            raise CategoryError("generator action not transitive")
        return words

    def follow(self, c, word):
        for d in word:
            c = self.table[c][d]
        return c

    def after(self, b, a):
        """The element 'b applied after a': follow b's word from a."""
        return self.follow(a, self.words[b])

    def inv(self, a):
        return self.follow(0, tuple(d ^ 1 for d in reversed(self.words[a])))


class Materialization:
    """A materialized presented groupoid together with enough of the
    spanning-forest data to express every morphism as a generator word,
    which is what induced functors out of the groupoid need."""

    def __init__(self, presentation, category, genmap, groups, glist,
                 vgens, comp_of, paths):
        self.presentation = presentation
        self.category = category
        self.genmap = genmap          # generator -> morphism
        self.groups = groups          # root -> MaterializedGroup
        self.glist = glist
        self.vgens = vgens            # root -> ordered non-tree generators
        self.comp_of = comp_of
        self.paths = paths            # object -> direction word from root

    def letters(self, m):
        """(generator, sign) letters of morphism m in application order
        (first letter applies first)."""
        a, e, b = m
        root = self.comp_of[a]
        G = self.groups[root]
        out = []
        for d in reversed(self.paths[a]):
            out.append((self.glist[d // 2], -1 if d % 2 == 0 else 1))
        for d in G.words[e]:
            out.append((self.vgens[root][d // 2], 1 if d % 2 == 0 else -1))
        for d in self.paths[b]:
            out.append((self.glist[d // 2], 1 if d % 2 == 0 else -1))
        return out

    def induced_functor(self, target, obj_map, gen_map):
        """Functor out of the materialized groupoid determined by images
        of the presented objects and generators."""
        T = target
        inv_cache = {}
        mor_map = {}
        for m in self.category.morphisms:
            cur = T.ident[obj_map[self.category.src[m]]]
            for g, s in self.letters(m):
                img = gen_map[g]
                if s < 0:
                    if img not in inv_cache:
                        inv_cache[img] = T.inverse(img)
                    img = inv_cache[img]
                cur = T.comp[(img, cur)]
            mor_map[m] = cur
        return Functor(self.category, T, dict(obj_map), mor_map)


def _spanning_forest(objects, generators):
    """Components, roots, and a root path word per object, for
    `objects` in canonical order.  Paths are direction words over the
    0-based generator list order; each component's members keep the
    order of `objects`."""
    glist = ordered(generators)
    gindex = {g: k for k, g in enumerate(glist)}
    # Each adjacency list is built in generator order, the order the
    # search reads it in.  Only a loop g at a puts two entries (g, +1)
    # and (g, -1) into one list; both lead back to a, which the search
    # has already reached, so their relative order is never read.
    adj = {o: [] for o in objects}
    for g in glist:
        a, b = generators[g]
        adj[a].append((b, g, +1))
        adj[b].append((a, g, -1))
    comp_of, paths, roots = {}, {}, []
    tree = set()
    for o in objects:
        if o in comp_of:
            continue
        roots.append(o)
        comp_of[o] = o
        paths[o] = ()       # word: root -> o
        frontier = [o]
        while frontier:
            a = frontier.pop(0)
            for b, g, sign in adj[a]:
                if b not in comp_of:
                    comp_of[b] = o
                    d = 2 * gindex[g] + (0 if sign > 0 else 1)
                    paths[b] = paths[a] + (d,)
                    tree.add(g)
                    frontier.append(b)
    members = {root: [] for root in roots}
    for o in objects:
        members[comp_of[o]].append(o)
    return glist, gindex, comp_of, roots, members, paths, tree


def _materialize(P, bound):
    """Returns a Materialization of the presented groupoid."""
    bad = P.validate()
    if bad:
        raise CategoryError("; ".join(bad))
    glist, gindex, comp_of, roots, members, paths, tree = \
        _spanning_forest(P.objects, P.generators)

    # per component: vertex-group generators are the non-tree arrows
    vgens = {root: [] for root in roots}
    for g in glist:
        if g not in tree:
            vgens[comp_of[P.generators[g][0]]].append(g)
    vindex = {root: {g: k for k, g in enumerate(vgens[root])} for root in roots}

    def chi(word, root):
        """Rewrite a groupoid word into a vertex-group direction word at
        the component root (tree letters vanish)."""
        out = []
        for g, s in word:
            if g in tree:
                continue
            k = vindex[root][g]
            out.append(2 * k + (0 if s > 0 else 1))
        return tuple(out)

    relators = {root: [] for root in roots}
    for u, w in P.relations:
        ends = P.word_endpoints(u) if u else P.word_endpoints(w)
        if ends is None:
            continue
        root = comp_of[ends[0]]
        rel = chi(u, root) + tuple(d ^ 1 for d in reversed(chi(w, root)))
        if rel:
            relators[root].append(rel)

    groups = {}
    total = 0
    for root in roots:
        n = len(vgens[root])
        table = _coset_closure(n, relators[root], bound) if n else [[]]
        if table is None:
            raise BoundExceeded(
                f"vertex group at {root!r} did not close within {bound}")
        groups[root] = MaterializedGroup(table, n)
        total += groups[root].order * len(members[root]) ** 2
        if total > bound:
            raise BoundExceeded(f"materialized groupoid exceeds {bound} morphisms")

    objects = P.objects
    morphisms, src, tgt, ident, comp = [], {}, {}, {}, {}
    for root in roots:
        G = groups[root]
        for a in members[root]:
            for b in members[root]:
                for e in range(G.order):
                    m = (a, e, b)
                    morphisms.append(m)
                    src[m], tgt[m] = a, b
        for a in members[root]:
            ident[a] = (a, 0, a)
        for a in members[root]:
            for b in members[root]:
                for c in members[root]:
                    for e1 in range(G.order):
                        for e2 in range(G.order):
                            comp[((b, e2, c), (a, e1, b))] = (a, G.after(e2, e1), c)
    C = FinCategory(objects, morphisms, src, tgt, ident, comp)

    # generator g: a -> b materializes as path(b) . e . path(a)^{-1}
    genmap = {}
    for g in glist:
        a, b = P.generators[g]
        root = comp_of[a]
        G = groups[root]
        loop = () if g in tree else (2 * gindex[g],)
        body = paths[a] + loop + tuple(d ^ 1 for d in reversed(paths[b]))
        word = tuple(2 * vindex[root][glist[d // 2]] + (d % 2)
                     for d in body if glist[d // 2] not in tree)
        genmap[g] = (a, G.follow(0, word), b)
    return Materialization(P, C, genmap, groups, glist,
                           {root: vgens[root] for root in roots}, comp_of, paths)


def materialize_groupoid(P, bound):
    return _materialize(P, bound).category


# ---------------------------------------------------------------------
# colimits
# ---------------------------------------------------------------------

def colimit_cat(cats, edges, bound=10000):
    """Colimit of a finite diagram; edges are (src_index, tgt_index,
    Functor) triples.  Pure coproducts work for any categories; diagrams
    with identifications go through the presented-groupoid closure and
    require every category to be a groupoid.

    Returns (category, cocone functors).
    """
    if not edges:
        return coproduct_cat(cats)
    record, cocones = colimit_record(cats, edges, bound)
    return record.category, cocones


def colimit_record(cats, edges, bound=10000):
    """Like colimit_cat but returns the Materialization record, which
    downstream levelwise constructions use to induce functors."""
    if not edges:
        raise CategoryError("colimit_record needs at least one edge")
    for C in cats:
        if not C.is_groupoid():
            raise CategoryError(
                "colimits with identifications are only computed for groupoids")

    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            lo, hi = ordered((rx, ry))
            parent[hi] = lo

    for i, C in enumerate(cats):
        for o in C.objects:
            parent[(i, o)] = (i, o)
    for (i, j, F) in edges:
        for o in cats[i].objects:
            union((i, o), (j, F.obj_map[o]))

    objects = {find(x) for x in parent}
    generators = {}
    for i, C in enumerate(cats):
        for m in C.morphisms:
            if C.is_identity(m):
                continue
            generators[(i, m)] = (find((i, C.src[m])), find((i, C.tgt[m])))

    def word_of(i, m):
        C = cats[i]
        return () if C.is_identity(m) else (((i, m), 1),)

    relations = []
    for i, C in enumerate(cats):
        for (g, f), h in C.comp.items():
            relations.append((word_of(i, f) + word_of(i, g), word_of(i, h)))
    for (i, j, F) in edges:
        for m in cats[i].morphisms:
            relations.append((word_of(i, m), word_of(j, F.mor_map[m])))

    P = PresentedGroupoid(objects, generators, relations)
    record = _materialize(P, bound)
    colim, genmap = record.category, record.genmap
    cocones = []
    for i, C in enumerate(cats):
        obj_map = {o: find((i, o)) for o in C.objects}
        mor_map = {}
        for m in C.morphisms:
            if C.is_identity(m):
                mor_map[m] = colim.ident[obj_map[C.src[m]]]
            else:
                mor_map[m] = genmap[(i, m)]
        cocones.append(Functor(C, colim, obj_map, mor_map))
    return record, cocones


def equalizer_cat(F, G):
    """Subcategory of the common source where F and G agree."""
    if F.source is not G.source or F.target is not G.target:
        raise CategoryError("equalizer needs parallel functors")
    C = F.source
    objects = tuple(o for o in C.objects if F.obj_map[o] == G.obj_map[o])
    oset = frozenset(objects)
    morphisms = tuple(m for m in C.morphisms
                      if F.mor_map[m] == G.mor_map[m]
                      and C.src[m] in oset and C.tgt[m] in oset)
    mset = frozenset(morphisms)
    comp = {k: h for k, h in C.comp.items()
            if k[0] in mset and k[1] in mset}
    return FinCategory(objects, morphisms,
                       {m: C.src[m] for m in morphisms},
                       {m: C.tgt[m] for m in morphisms},
                       {o: C.ident[o] for o in objects}, comp)


# ---------------------------------------------------------------------
# functor enumeration
# ---------------------------------------------------------------------

def enumerate_functors(C, D, cap=10 ** 6):
    """All functors C -> D, as the maps of 2-truncated nerves: objects,
    morphisms and composable pairs, whose faces carry the endpoints and
    the composite.  More than `cap` functors raise CapExceeded."""
    def side(E):
        chains, _, tables = E.numbered_nerve(2)
        return (lambda k: len(chains[k]),
                lambda k: [(m, t) for (j, m, _), t in tables.items() if j == k])
    maps = list(itertools.islice(SimplicialMap.commuting_maps(
        (2, 1, 0), side(C), side(D)), cap + 1))
    if len(maps) > cap:
        raise CapExceeded("functor enumeration cap exceeded")
    return [Functor.from_numbered(C, D, f[0], f[1]) for f in maps]
