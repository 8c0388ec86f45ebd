"""Finite categories, presented groupoids, nerves, and bounded colimits.

Categories are explicit composition tables, so every law is checked
exhaustively.  Presented groupoids are materialized by a spanning-forest
reduction followed by bounded coset closure of each vertex group; a
closure that does not finish within the bound raises BoundExceeded
instead of guessing.
"""

from __future__ import annotations

import itertools

from .names import sort_key
from .sset import SimplicialMap, TruncatedSimplicialSet


class CategoryError(Exception):
    pass


class BoundExceeded(CategoryError):
    """Closure did not terminate within the requested bound."""


class CapExceeded(BoundExceeded):
    """An enumeration produced more results than its cap allows."""


class FinCategory:
    def __init__(self, objects, morphisms, src, tgt, ident, comp):
        self.objects = tuple(sorted(objects, key=sort_key))
        self.morphisms = tuple(sorted(morphisms, key=sort_key))
        self.src = dict(src)
        self.tgt = dict(tgt)
        self.ident = dict(ident)
        self.comp = dict(comp)
        self._mset = frozenset(self.morphisms)

    def compose(self, g, f):
        """g after f."""
        return self.comp[(g, f)]

    def hom(self, a, b):
        return tuple(m for m in self.morphisms
                     if self.src[m] == a and self.tgt[m] == b)

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

    # -- nerve chains -------------------------------------------------

    def chains(self, degrees):
        """{k: composable k-chains of morphisms, sorted} for each k in
        `degrees`; degree 0 holds the objects.  The chains grow by one
        morphism per degree."""
        out = {0: self.objects} if 0 in degrees else {}
        chains = [()]
        for k in range(1, max(degrees) + 1):
            chains = [c + (m,) for c in chains for m in self.morphisms
                      if not c or self.tgt[c[-1]] == self.src[m]]
            if k in degrees:
                out[k] = tuple(sorted(chains, key=sort_key))
        return out

    def chain_operator(self, k, m, i, c):
        """Nerve operator on the k-chain c: d_i when m = k - 1, s_i when
        m = k + 1."""
        if m > k:
            if k == 0:
                return (self.ident[c],)
            at = self.src[c[i]] if i < k else self.tgt[c[-1]]
            return c[:i] + (self.ident[at],) + c[i:]
        if k == 1:
            return self.tgt[c[0]] if i == 0 else self.src[c[0]]
        if i == 0:
            return c[1:]
        if i == k:
            return c[:-1]
        return c[:i - 1] + (self.comp[(c[i], c[i - 1])],) + c[i + 1:]

    def validate(self, max_violations=20):
        v = []
        for o in self.objects:
            i = self.ident.get(o)
            if i not in self._mset or self.src.get(i) != o or self.tgt.get(i) != o:
                v.append(f"bad identity at {o!r}")
        for m in self.morphisms:
            if self.src.get(m) not in self.objects or self.tgt.get(m) not in self.objects:
                v.append(f"dangling endpoints on {m!r}")
        if v:
            return v[:max_violations]
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
            return v[:max_violations]
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
        return v[:max_violations]

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


def cyclic_group(n, obj="*"):
    """One-object groupoid with morphisms 0..n-1 added mod n."""
    morphisms = tuple(range(n))
    return FinCategory((obj,), morphisms,
                       {m: obj for m in morphisms},
                       {m: obj for m in morphisms},
                       {obj: 0},
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

    def on_chain(self, k, c):
        """Image of a k-chain of the source's nerve."""
        if k == 0:
            return self.obj_map[c]
        return tuple(self.mor_map[m] for m in c)

    @classmethod
    def identity(cls, C):
        return cls(C, C, {o: o for o in C.objects}, {m: m for m in C.morphisms})

    def compose(self, other):
        """self after other."""
        return Functor(other.source, self.target,
                       {o: self.obj_map[v] for o, v in other.obj_map.items()},
                       {m: self.mor_map[v] for m, v in other.mor_map.items()})

    def validate(self, max_violations=20):
        v = []
        C, D = self.source, self.target
        for o in C.objects:
            if self.mor_map.get(C.ident[o]) != D.ident.get(self.obj_map.get(o)):
                v.append(f"identity at {o!r} not preserved")
        for m in C.morphisms:
            fm = self.mor_map.get(m)
            if fm is None or D.src[fm] != self.obj_map[C.src[m]] \
                    or D.tgt[fm] != self.obj_map[C.tgt[m]]:
                v.append(f"endpoints of {m!r} not preserved")
        if v:
            return v[:max_violations]
        for (g, f), h in C.comp.items():
            if D.comp[(self.mor_map[g], self.mor_map[f])] != self.mor_map[h]:
                v.append(f"composite ({g!r}, {f!r}) not preserved")
        return v[:max_violations]

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

    def validate(self, max_violations=20):
        v = []
        F, G = self.source, self.target
        D = F.target
        for o in F.source.objects:
            c = self.components.get(o)
            if c is None or D.src[c] != F.obj_map[o] or D.tgt[c] != G.obj_map[o]:
                v.append(f"component at {o!r} ill-typed")
        if v:
            return v[:max_violations]
        for m in F.source.morphisms:
            a, b = F.source.src[m], F.source.tgt[m]
            if D.comp[(self.components[b], F.mor_map[m])] != \
                    D.comp[(G.mor_map[m], self.components[a])]:
                v.append(f"naturality fails at {m!r}")
        return v[:max_violations]


# ---------------------------------------------------------------------
# iso subgroupoid and nerve
# ---------------------------------------------------------------------

def iso_subgroupoid(C):
    """Wide subcategory of all invertible morphisms."""
    invertible = tuple(m for m in C.morphisms if C.inverse(m) is not None)
    inv_set = frozenset(invertible)
    comp = {k: h for k, h in C.comp.items()
            if k[0] in inv_set and k[1] in inv_set}
    return FinCategory(C.objects, invertible,
                       {m: C.src[m] for m in invertible},
                       {m: C.tgt[m] for m in invertible},
                       dict(C.ident), comp)


def nerve(C, bound):
    """Composable chains: degree k simplices are k-tuples of morphisms."""
    simplices = C.chains(range(bound + 1))

    def table(k, m, i):
        return {c: C.chain_operator(k, m, i, c) for c in simplices[k]}
    return TruncatedSimplicialSet.from_operators(bound, simplices, table)


def nerve_functor(F, bound):
    """Induced simplicial map between nerves."""
    X, Y = nerve(F.source, bound), nerve(F.target, bound)
    assign = {k: {c: F.on_chain(k, c) for c in X.simplices[k]}
              for k in X.degrees()}
    return SimplicialMap(X, Y, assign)


# ---------------------------------------------------------------------
# presented groupoids
# ---------------------------------------------------------------------

class PresentedGroupoid:
    """Words are tuples of (generator, sign) in application order: the
    first letter applies first.  Relations equate two parallel words."""

    def __init__(self, objects, generators, relations):
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
    generators = {e: (X.face(1, 1, e), X.face(1, 0, e)) for e in X.simplices[1]}
    relations = []
    for t in X.simplices[2]:
        long_edge = X.face(2, 1, t)
        first = X.face(2, 2, t)
        second = X.face(2, 0, t)
        relations.append((((first, 1), (second, 1)), ((long_edge, 1),)))
    for e in X.simplices[1]:
        if X.is_degenerate(1, e):
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

    def generator_element(self, g):
        """Element of the 0-based generator g."""
        return self.table[0][2 * g]


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
    """Components, roots, and a root path word per object.  Paths are
    direction words over the 0-based generator list order."""
    glist = sorted(generators, key=sort_key)
    gindex = {g: k for k, g in enumerate(glist)}
    adj = {o: [] for o in objects}
    for g in glist:
        a, b = generators[g]
        adj[a].append((b, g, +1))
        adj[b].append((a, g, -1))
    comp_of, paths, roots, members = {}, {}, [], {}
    tree = set()
    for o in sorted(objects, key=sort_key):
        if o in comp_of:
            continue
        root = o
        roots.append(root)
        comp_of[o] = root
        members[root] = [o]
        paths[o] = ()       # word: root -> o
        frontier = [o]
        while frontier:
            a = frontier.pop(0)
            for b, g, sign in sorted(adj[a], key=lambda t: sort_key((t[1], t[2]))):
                if b not in comp_of:
                    comp_of[b] = root
                    members[root].append(b)
                    d = 2 * gindex[g] + (0 if sign > 0 else 1)
                    paths[b] = paths[a] + (d,)
                    tree.add(g)
                    frontier.append(b)
        members[root].sort(key=sort_key)
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
# equivalences and colimits
# ---------------------------------------------------------------------

def _isomorphic_objects(C, a, b):
    return any(C.inverse(m) is not None for m in C.hom(a, b))


def check_equivalence(F):
    """True iff fully faithful and essentially surjective, exhaustively."""
    C, D = F.source, F.target
    for a in C.objects:
        for b in C.objects:
            image = [F.mor_map[m] for m in C.hom(a, b)]
            target = D.hom(F.obj_map[a], F.obj_map[b])
            if len(set(image)) != len(image) or set(image) != set(target):
                return False
    hit = set(F.obj_map[a] for a in C.objects)
    for d in D.objects:
        if d not in hit and not any(_isomorphic_objects(D, d, h) for h in hit):
            return False
    return True


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
            lo, hi = sorted((rx, ry), key=sort_key)
            parent[hi] = lo

    for i, C in enumerate(cats):
        for o in C.objects:
            parent[(i, o)] = (i, o)
    for (i, j, F) in edges:
        for o in cats[i].objects:
            union((i, o), (j, F.obj_map[o]))

    objects = sorted({find(x) for x in parent}, key=sort_key)
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
# functor categories
# ---------------------------------------------------------------------

def enumerate_functors(C, D, cap=10 ** 6):
    """All functors C -> D, by backtracking: object images are chosen in
    a connectivity order with hom-set pruning, then morphism images are
    closed under the composition table."""
    between = {}
    for m in C.morphisms:
        if not C.is_identity(m):
            between.setdefault((C.src[m], C.tgt[m]), []).append(m)
    adj = {o: set() for o in C.objects}
    for (a, b) in between:
        adj[a].add(b)
        adj[b].add(a)
    ordered, seen = [], set()
    for o in sorted(C.objects, key=sort_key):
        if o in seen:
            continue
        frontier = [o]
        seen.add(o)
        while frontier:
            a = frontier.pop(0)
            ordered.append(a)
            for b in sorted(adj[a], key=sort_key):
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
            if C.is_identity(m):
                options = [D.ident[a]]
            else:
                options = D.hom(a, b)
            nxt = []
            for partial in assignments:
                for fm in options:
                    trial = partial if len(options) == 1 else dict(partial)
                    trial[m] = fm
                    ok = True
                    for (g, f, h) in triples_at[k]:
                        if D.comp[(trial[g], trial[f])] != trial[h]:
                            ok = False
                            break
                    if ok:
                        nxt.append(trial)
            assignments = nxt
            if len(assignments) > cap:
                raise CapExceeded("functor enumeration cap exceeded")
        return assignments

    def assign(k, obj_map):
        if k == len(ordered):
            for mor_map in close(obj_map):
                out.append(Functor(C, D, dict(obj_map), mor_map))
                if len(out) > cap:
                    raise CapExceeded("functor enumeration cap exceeded")
            return
        o = ordered[k]
        for img in D.objects:
            ok = True
            for o2 in ordered[:k]:
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


def enumerate_transformations(F, G):
    D = F.target
    out = []
    objs = F.source.objects
    pools = [D.hom(F.obj_map[o], G.obj_map[o]) for o in objs]
    for combo in itertools.product(*pools):
        nt = NaturalTransformation(F, G, dict(zip(objs, combo)))
        if not nt.validate():
            out.append(nt)
    return out
