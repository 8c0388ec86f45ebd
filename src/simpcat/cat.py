"""Finite categories, presented groupoids, nerves, and bounded colimits.

Categories are explicit composition tables, so every law is checked
exhaustively.  Presented groupoids are materialized by a spanning-forest
reduction followed by bounded coset closure of each vertex group; a
group whose generators single-letter relators kill needs no closure, and
a closure that does not finish within the bound raises BoundExceeded
instead of guessing.  Functors are enumerated as the maps of 2-truncated
nerves, by the hom search of :mod:`simpcat.sset`.

A category numbers its objects and morphisms by their positions in
stored order.  One built from names converts to positions on first
positional read; a materialized groupoid, its maximal subgroupoid and
the functors induced out of it are built on positions (source, target,
identity and inverse lists, composition as `_after[g] = {f: g f}`), and
their names view (`src`, `tgt`, `ident`, `comp`, `obj_map`, `mor_map`)
is built when first read.  A presentation's relations are direction
words over its numbered generators.  The nerve is numbered by prefix
recurrence (`NumberedNerve`): a k-chain is its prefix and its last
morphism, so its position, each operator's position list and each
functor's image follow from the prefix's, and chains are named only
where a nerve lists its cells.
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
    """A category given by names (the constructor) or by positions
    (`_from_positions`); the other form is derived on first read."""

    def __init__(self, objects, morphisms, src, tgt, ident, comp):
        self.objects = tuple(ordered(objects))
        self.morphisms = tuple(ordered(morphisms))
        self.src = dict(src)
        self.tgt = dict(tgt)
        self.ident = dict(ident)
        self.comp = dict(comp)

    @classmethod
    def _from_positions(cls, objects, morphisms, src, tgt, ident, after,
                        inverses=None):
        """The category on `objects` and `morphisms`, names already in
        canonical order, with its tables given as positions: source,
        target and identity lists, `after[g] = {f: g f}`, and optionally
        the inverse of each morphism."""
        C = cls.__new__(cls)
        C.objects, C.morphisms = tuple(objects), tuple(morphisms)
        C._numbered = (src, tgt, ident)
        C._after = after
        if inverses is not None:
            C._inverses = inverses
        return C

    # -- the names view of a category built on positions ----------------

    @functools.cached_property
    def src(self):
        return dict(zip(self.morphisms,
                        map(self.objects.__getitem__, self._numbered[0])))

    @functools.cached_property
    def tgt(self):
        return dict(zip(self.morphisms,
                        map(self.objects.__getitem__, self._numbered[1])))

    @functools.cached_property
    def ident(self):
        return dict(zip(self.objects,
                        map(self.morphisms.__getitem__, self._numbered[2])))

    @functools.cached_property
    def comp(self):
        name = self.morphisms
        return {(name[g], name[f]): name[h]
                for g, row in enumerate(self._after) for f, h in row.items()}

    @functools.cached_property
    def _mset(self):
        return frozenset(self.morphisms)

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
        """Two-sided inverse, or None."""
        g = self._inverses[self._index[1][m]]
        return None if g is None else self.morphisms[g]

    def is_groupoid(self):
        return None not in self._inverses

    # -- numbered tables and nerve chains ------------------------------

    @functools.cached_property
    def _index(self):
        """({object: position}, {morphism: position}) in stored order,
        built on first use."""
        return ({o: a for a, o in enumerate(self.objects)},
                {m: f for f, m in enumerate(self.morphisms)})

    @functools.cached_property
    def _numbered(self):
        """The source and target of each morphism and the identity of
        each object, as positions; built on first use."""
        obj, mor = self._index
        return ([obj[self.src[m]] for m in self.morphisms],
                [obj[self.tgt[m]] for m in self.morphisms],
                [mor[self.ident[o]] for o in self.objects])

    @functools.cached_property
    def _after(self):
        """Composition on positions: _after[g] = {f: the composite g f},
        built on first use."""
        mor = self._index[1]
        after = [{} for _ in self.morphisms]
        for (g, f), h in self.comp.items():
            after[mor[g]][mor[f]] = mor[h]
        return after

    @functools.cached_property
    def _inverses(self):
        """The position of each morphism's two-sided inverse, or None;
        built on first use."""
        src, tgt, ident = self._numbered
        after = self._after
        homs = {}
        for f, ends in enumerate(zip(src, tgt)):
            homs.setdefault(ends, []).append(f)
        return [next((g for g in homs.get((b, a), ())
                      if after[g].get(f) == ident[a]
                      and after[f].get(g) == ident[b]), None)
                for f, (a, b) in enumerate(zip(src, tgt))]

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


class NumberedNerve:
    """The nerve of a category C through degree `top`, on positions.

    Degree 0 lists the objects and degree 1 the morphisms, in stored
    order.  For k >= 2 each (k-1)-chain c is extended in order by the
    morphisms f out of its last target, in order, which is the order of
    the names: c.f sits at `start[k-1][c] + rank[f]`, f's place among
    the morphisms out of its source.  Each degree keeps only the
    `parent` c and the `last` f of its chains (a morphism's parent is
    its source; `last[0]` counts the objects), and the operators follow
    from the parent's: d_k(c.f) = c, d_{k-1}(c.f) composes the last
    two, d_i(c.f) = d_i(c).f for i < k - 1, s_k(x) = x.id, s_i(c.f) =
    s_i(c).f for i < k, and for a functor F(c.f) = F(c).F(f).  The
    operator tables and the names are built on each call, not kept."""

    def __init__(self, C, top):
        if top < 0:
            raise CategoryError(f"nerve needs a bound >= 0, got {top}")
        src, tgt, _ = C._numbered
        self.category, self.top = C, top
        out_of, self.rank = [[] for _ in C.objects], []
        for f, a in enumerate(src):
            self.rank.append(len(out_of[a]))
            out_of[a].append(f)
        self.parent, self.start = [None, src], [None]
        self.last = [range(len(C.objects)), range(len(src))]
        for k in range(2, top + 1):
            ends = list(map(tgt.__getitem__, self.last[k - 1]))
            counts = list(map(len, map(out_of.__getitem__, ends)))
            self.start.append(list(itertools.accumulate(counts, initial=0)))
            self.parent.append(list(itertools.chain.from_iterable(
                map(itertools.repeat, range(len(ends)), counts))))
            self.last.append(list(itertools.chain.from_iterable(
                map(out_of.__getitem__, ends))))

    def _at(self, k, parents, ranks):
        """The positions of the k-chains (k >= 2) with these parents and
        these ranks of their last morphisms."""
        return list(map(operator.add, map(self.start[k - 1].__getitem__, parents),
                        ranks))

    def operators(self):
        """The operator tables {(k, m, i): position list}, in
        `TruncatedSimplicialSet.positions` order: per degree k, the
        degeneracies into it from the degree below, then its faces."""
        src, tgt, ident = self.category._numbered
        after, rank = self.category._after, self.rank
        tables = {(0, 1, 0): ident, (1, 0, 0): tgt, (1, 0, 1): src} if self.top else {}
        below = rank        # the ranks of the last morphisms of the (k-1)-chains
        for k in range(2, self.top + 1):
            parent, last, before = self.parent[k], self.last[k], self.last[k - 1]
            ranks = list(map(rank.__getitem__, last))
            composite = list(map(dict.__getitem__, map(after.__getitem__, last),
                                 map(before.__getitem__, parent)))
            faces = [last, composite] if k == 2 else [
                self._at(k - 1, map(tables[k - 1, k - 2, i].__getitem__, parent),
                         ranks if i < k - 1 else map(rank.__getitem__, composite))
                for i in range(k)]
            degens = [self._at(k, map(tables[k - 2, k - 1, i].__getitem__,
                                      self.parent[k - 1]), below)
                      for i in range(k - 1)]
            degens.append(self._at(k, range(len(before)), map(rank.__getitem__, map(
                ident.__getitem__, map(tgt.__getitem__, before)))))
            tables.update(((k - 1, k, i), t) for i, t in enumerate(degens))
            tables.update(((k, k - 1, i), t) for i, t in enumerate(faces + [parent]))
            below = ranks
        return tables

    def names(self, k):
        """The k-chains' names: the objects at k = 0, else the tuples of
        morphism names, each its parent's name extended by its last
        morphism's."""
        if k == 0:
            return self.category.objects
        names, name = [()] * len(self.last[0]), self.category.morphisms.__getitem__
        for j in range(1, k + 1):
            names = tuple([p + (m,) for p, m in zip(map(names.__getitem__, self.parent[j]),
                                                    map(name, self.last[j]))])
        return names

    def image(self, objects, arrows, target, k):
        """The image of the k-chains under the functor with object images
        `objects` and morphism images `arrows`, as positions in the nerve
        `target`."""
        if k == 0:
            return objects
        ranks = list(map(target.rank.__getitem__, arrows))
        for j in range(2, k + 1):
            arrows = target._at(j, map(arrows.__getitem__, self.parent[j]),
                                map(ranks.__getitem__, self.last[j]))
        return arrows


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
    """A functor given by names (the constructor) or by positions
    (`from_numbered`); the other form is derived on first read."""

    def __init__(self, source, target, obj_map, mor_map):
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.mor_map = dict(mor_map)

    @classmethod
    def from_numbered(cls, C, D, objects, arrows):
        """The functor C -> D given on positions: `objects` lists the
        image of each object and `arrows` of each morphism, which are
        the numbered 1-chains."""
        F = cls.__new__(cls)
        F.source, F.target = C, D
        F._numbered = (objects, arrows)
        return F

    @functools.cached_property
    def obj_map(self):
        return dict(zip(self.source.objects,
                        map(self.target.objects.__getitem__, self._numbered[0])))

    @functools.cached_property
    def mor_map(self):
        return dict(zip(self.source.morphisms,
                        map(self.target.morphisms.__getitem__, self._numbered[1])))

    def __call__(self, m):
        return self.mor_map[m]

    @functools.cached_property
    def _numbered(self):
        """(object images, morphism images) as target positions, indexed
        by source position; built on first use."""
        obj, mor = self.target._index
        return ([obj[self.obj_map[o]] for o in self.source.objects],
                [mor[self.mor_map[m]] for m in self.source.morphisms])

    @classmethod
    def identity(cls, C):
        return cls.from_numbered(C, C, list(range(len(C.objects))),
                                 list(range(len(C.morphisms))))

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
    inverses = C._inverses
    if None not in inverses:
        return C
    kept = [f for f, g in enumerate(inverses) if g is not None]
    new = {f: k for k, f in enumerate(kept)}
    src, tgt, ident = C._numbered
    after = C._after
    return FinCategory._from_positions(
        C.objects, [C.morphisms[f] for f in kept], [src[f] for f in kept],
        [tgt[f] for f in kept], [new[i] for i in ident],
        [{new[f]: new[h] for f, h in after[g].items() if f in new}
         for g in kept],
        [new[inverses[f]] for f in kept])


def nerve(C, bound):
    """Composable chains: degree k simplices are k-tuples of morphisms."""
    return _simplicial_set(NumberedNerve(C, bound))


def _simplicial_set(N):
    return TruncatedSimplicialSet(N.top, {k: N.names(k) for k in range(N.top + 1)},
                                  N.operators())


def nerve_functor(F, bound):
    """Induced simplicial map between nerves."""
    N, M = NumberedNerve(F.source, bound), NumberedNerve(F.target, bound)
    return SimplicialMap(_simplicial_set(N), _simplicial_set(M), {
        k: N.image(*F._numbered, M, k) for k in range(bound + 1)})


# ---------------------------------------------------------------------
# presented groupoids
# ---------------------------------------------------------------------

class PresentedGroupoid:
    """Objects and generators are names; `generators` maps each to its
    (source, target) and numbers them in the order given.  Words are
    tuples of directions in application order, the first applying first:
    direction 2g runs along generator g and 2g + 1 against it.  Relations
    equate two parallel words."""

    def __init__(self, objects, generators, relations):
        # The one sort left on `sort_key` itself: perfbench's tracer test
        # (test_intra_package_calls_are_caught) checks that a traced
        # `pi_levelwise` folds a `names.sort_key` call, and this is the
        # cheapest sort on that path (one key per object).
        self.objects = tuple(sorted(objects, key=sort_key))
        self.generators = dict(generators)      # name -> (src, tgt)
        self.relations = tuple(relations)       # (word, word)

    @functools.cached_property
    def _ends(self):
        """(start, end) of each direction as object positions, None
        where an endpoint is not an object."""
        index = {o: a for a, o in enumerate(self.objects)}
        ends = []
        for a, b in self.generators.values():
            a, b = index.get(a), index.get(b)
            ends += [(a, b), (b, a)]
        return ends

    def spell(self, word):
        """A direction word as (generator, sign) letters."""
        names = tuple(self.generators)
        return tuple((names[d >> 1], -1 if d & 1 else 1) for d in word)

    def validate(self):
        ends = self._ends
        v = [f"generator {g!r} has unknown endpoints"
             for g, e in zip(self.generators, ends[::2]) if None in e]
        if v:
            return v
        letters = list(itertools.chain.from_iterable(
            itertools.chain.from_iterable(self.relations)))
        if letters and not 0 <= min(letters) <= max(letters) < len(ends):
            return [f"relation {u!r} = {w!r} names an unknown generator"
                    for u, w in self.relations
                    if not all(0 <= d < len(ends) for d in u + w)]
        for u, w in self.relations:
            su, sw = _span(ends, u), _span(ends, w)
            if su is False or sw is False:
                problem = "not composable"
            elif su is not None and sw is not None:
                problem = "endpoints differ" if su != sw else None
            else:
                span = su or sw
                problem = ("equates a non-loop with the empty word"
                           if span and span[0] != span[1] else None)
            if problem:
                v.append(f"relation {self.spell(u)!r} = {self.spell(w)!r} "
                         f"{problem}")
        return v


def _span(ends, word):
    """(start, end) of a direction word, None when it is empty, False
    when its letters do not compose."""
    if not word:
        return None
    a, b = ends[word[0]]
    for d in word[1:]:
        s, t = ends[d]
        if s != b:
            return False
        b = t
    return a, b


def fundamental_groupoid(X):
    """One generator per 1-simplex (degenerate ones forced to
    identities), one triangle relation per 2-simplex."""
    if X.bound < 2:
        raise CategoryError("fundamental groupoid needs bound >= 2")
    vertices, edges = X.simplices[0], X.simplices[1]
    target, source = ([vertices[v] for v in X.positions(1, 0, i)] for i in range(2))
    generators = dict(zip(edges, zip(source, target)))
    second, long_edge, first = (X.positions(2, 1, i) for i in range(3))
    relations = [((2 * f, 2 * s), (2 * e,))
                 for f, s, e in zip(first, second, long_edge)]
    nondegenerate = set(X.nondegenerate_positions(1))
    relations += [((2 * p,), ()) for p in range(len(edges))
                  if p not in nondegenerate]
    return PresentedGroupoid(vertices, generators, relations)


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


def _vertex_group(ngens, relators, bound):
    """The multiplication table of a vertex group, as `_coset_closure`
    returns it.  A relator that is one letter once the letters of
    trivial generators are deleted makes its generator trivial; when
    every generator is, the group is trivial and needs no closure."""
    rels, dead = relators, set()
    kills = {r[0] >> 1 for r in rels if len(r) == 1}
    while kills:
        dead |= kills
        rels = [r for r in ([d for d in r if d >> 1 not in dead] for r in rels)
                if r]
        kills = {r[0] >> 1 for r in rels if len(r) == 1}
    if len(dead) < ngens:
        return _coset_closure(ngens, relators, bound)
    return [[0] * (2 * ngens)] if bound >= 1 else None


class MaterializedGroup:
    """Finite group carried as its right-multiplication table on
    elements 0..n-1, with 0 the identity.  `steps` is the breadth-first
    tree from 0: (element, parent, direction), each element being its
    parent followed by one generator direction."""

    def __init__(self, table, ngens):
        self.table = table
        self.order = len(table)
        self.steps, frontier, seen = [], [0], {0}
        for c in frontier:
            for d in range(2 * ngens):
                n = table[c][d]
                if n not in seen:
                    seen.add(n)
                    frontier.append(n)
                    self.steps.append((n, c, d))
        if len(frontier) != self.order:
            raise CategoryError("generator action not transitive")

    def products(self):
        """products[a][b]: the element b applied after a."""
        out = [[a] * self.order for a in range(self.order)]
        table = self.table
        for row in out:
            for n, c, d in self.steps:
                row[n] = table[row[c]][d]
        return out


class Materialization:
    """A materialized presented groupoid with the spanning-forest data
    that induced functors out of it need, all on positions: the
    component root of each object, each component's members in order,
    the forest as {object: (parent, direction)} in breadth-first order,
    and per root its vertex group and the generators of that group.
    `genmap` lists the morphism each generator materializes as; a
    colimit record also carries `origins`, the (diagram index, position)
    of each object and generator."""

    def __init__(self, presentation, category, genmap, comp_of, members,
                 forest, groups, vgens, origins=None):
        self.presentation = presentation
        self.category = category
        self.genmap = genmap
        self.comp_of = comp_of
        self.members = members
        self.forest = forest
        self.groups = groups
        self.vgens = vgens
        self.origins = origins

    def induced_functor(self, target, objects, generators):
        """The functor out of the materialized groupoid that sends
        presented object a to target object objects[a] and generator g
        to target morphism generators[g], both positions.  The image of
        morphism (a, e, b) is the image of a's root path inverted, then
        of the element e, then of b's root path."""
        ident, after, inverse = target._numbered[2], target._after, target._inverses
        ends = self.presentation._ends

        def letter(d):
            g = generators[d >> 1]
            return inverse[g] if d & 1 else g
        path = {root: ident[objects[root]] for root in self.members}
        for b, (a, d) in self.forest.items():
            path[b] = after[letter(d)][path[a]]
        back = {a: inverse[p] for a, p in path.items()}
        elements = {}
        for root, G in self.groups.items():
            image = [ident[objects[root]]] * G.order
            for n, c, d in G.steps:
                # the vertex-group generator is the loop along the root
                # paths of its generator's ends
                d = 2 * self.vgens[root][d >> 1] | d & 1
                a, b = ends[d]
                loop = after[back[b]][after[letter(d)][path[a]]]
                image[n] = after[loop][image[c]]
            elements[root] = image
        arrows = []
        for a, root in enumerate(self.comp_of):
            for e in elements[root]:
                x = after[e][back[a]]
                arrows += [after[path[b]][x] for b in self.members[root]]
        return Functor.from_numbered(self.category, target, objects, arrows)


def _spanning_forest(nobjects, ends):
    """Breadth-first spanning forest of the objects 0..nobjects-1 under
    the directions whose (start, end) `ends` lists: the component root
    of each object, each root's members in order, and {object: (parent,
    direction)} in the order the search reaches them."""
    adj = [[] for _ in range(nobjects)]
    for d, (a, b) in enumerate(ends):
        adj[a].append((b, d))
    comp_of, members, forest = [None] * nobjects, {}, {}
    for o in range(nobjects):
        if comp_of[o] is not None:
            continue
        comp_of[o], members[o] = o, [o]
        frontier = [o]
        for a in frontier:
            for b, d in adj[a]:
                if comp_of[b] is None:
                    comp_of[b] = o
                    members[o].append(b)
                    forest[b] = (a, d)
                    frontier.append(b)
        members[o].sort()
    return comp_of, members, forest


def _materialize(P, bound):
    """Returns a Materialization of the presented groupoid.  Morphism
    (a, e, b) is a's root path inverted, then vertex-group element e,
    then b's root path; it sits at the position of its name in canonical
    order, base[a] + e * |component| + (b's place among the members)."""
    bad = P.validate()
    if bad:
        raise CategoryError("; ".join(bad))
    ends = P._ends
    comp_of, members, forest = _spanning_forest(len(P.objects), ends)
    tree = {d >> 1 for _, d in forest.values()}

    # per component: vertex-group generators are the non-tree generators;
    # vdir[d] is the vertex-group direction of direction d, None on the tree
    vgens = {root: [] for root in members}
    vdir = []
    for g in range(len(ends) // 2):
        if g in tree:
            vdir += [None, None]
        else:
            gens = vgens[comp_of[ends[2 * g][0]]]
            vdir += [2 * len(gens), 2 * len(gens) + 1]
            gens.append(g)
    relators = {root: [] for root in members}
    for u, w in P.relations:
        if u or w:
            rel = tuple([x for x in map(vdir.__getitem__, u) if x is not None]
                        + [x ^ 1 for x in map(vdir.__getitem__, reversed(w))
                           if x is not None])
            if rel:
                relators[comp_of[ends[(u or w)[0]][0]]].append(rel)

    groups = {}
    total = 0
    for root, M in members.items():
        n = len(vgens[root])
        table = _vertex_group(n, relators[root], bound) if n else [[]]
        if table is None:
            raise BoundExceeded(f"vertex group at {P.objects[root]!r} "
                                f"did not close within {bound}")
        groups[root] = MaterializedGroup(table, n)
        total += groups[root].order * len(M) ** 2
        if total > bound:
            raise BoundExceeded(f"materialized groupoid exceeds {bound} morphisms")

    objects = P.objects
    base, start = [], 0
    for root in comp_of:
        base.append(start)
        start += groups[root].order * len(members[root])
    # per component: its members and their first positions, and for each
    # element e2 the positions of (a, e1 e2, first member) over (a, e1)
    blocks = {}
    for root, M in members.items():
        G = groups[root]
        products = G.products()
        blocks[root] = (M, [base[c] for c in M], [row.index(0) for row in products],
                        [[base[a] + products[e1][e2] * len(M)
                          for a in M for e1 in range(G.order)]
                         for e2 in range(G.order)])
    place = {b: i for M in members.values() for i, b in enumerate(M)}
    morphisms, src, tgt, after, inverses = [], [], [], [], []
    for b, root in enumerate(comp_of):
        M, bases, inv, rows = blocks[root]
        k, i = len(M), place[b]
        into = [r + i for r in rows[0]]
        morphisms += [(objects[b], e, objects[c]) for e in range(len(rows)) for c in M]
        src += [b] * (len(rows) * k)
        tgt += M * len(rows)
        after += [dict(zip(into, [r + j for r in row]))
                  for row in rows for j in range(k)]
        inverses += [c + e * k + i for e in inv for c in bases]
    C = FinCategory._from_positions(
        objects, morphisms, src, tgt,
        [base[a] + place[a] for a in range(len(objects))], after, inverses)

    # generator g: a -> b materializes as (a, e, b), e the element of its
    # vertex-group generator, or the identity for a tree arrow
    genmap = []
    for d in range(0, len(ends), 2):
        a, b = ends[d]
        root = comp_of[a]
        e = 0 if vdir[d] is None else groups[root].table[0][vdir[d]]
        genmap.append(base[a] + e * len(members[root]) + place[b])
    return Materialization(P, C, genmap, comp_of, members, forest, groups,
                           vgens)


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
    downstream levelwise constructions use to induce functors.  Objects
    are numbered across the diagram, category by category; each class of
    identified objects is named by its first member, which is also its
    least name."""
    if not edges:
        raise CategoryError("colimit_record needs at least one edge")
    for C in cats:
        if not C.is_groupoid():
            raise CategoryError(
                "colimits with identifications are only computed for groupoids")
    first = list(itertools.accumulate((len(C.objects) for C in cats), initial=0))
    parent = list(range(first[-1]))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (i, j, F) in edges:
        for a, b in enumerate(F._numbered[0]):
            x, y = find(first[i] + a), find(first[j] + b)
            parent[max(x, y)] = min(x, y)

    origin = [(i, a) for i, C in enumerate(cats) for a in range(len(C.objects))]
    reps = [x for x in range(first[-1]) if find(x) == x]
    position = {x: p for p, x in enumerate(reps)}
    names = [(i, cats[i].objects[a]) for i, a in map(origin.__getitem__, reps)]
    objects = [[position[find(first[i] + a)] for a in range(len(C.objects))]
               for i, C in enumerate(cats)]

    generators, gen_origins, words = {}, [], []
    for i, C in enumerate(cats):
        src, tgt, ident = C._numbered
        word = []
        for m, (a, b) in enumerate(zip(src, tgt)):
            if ident[a] == m:
                word.append(())
            else:
                word.append((2 * len(gen_origins),))
                generators[(i, C.morphisms[m])] = (names[objects[i][a]],
                                                   names[objects[i][b]])
                gen_origins.append((i, m))
        words.append(word)

    relations = [(w[f] + w[g], w[h]) for w, C in zip(words, cats)
                 for g, row in enumerate(C._after) for f, h in row.items()]
    relations += [(words[i][m], words[j][y]) for (i, j, F) in edges
                  for m, y in enumerate(F._numbered[1])]

    record = _materialize(PresentedGroupoid(names, generators, relations), bound)
    record.origins = ([origin[x] for x in reps], gen_origins)
    ident, genmap = record.category._numbered[2], record.genmap
    cocones = []
    for i, C in enumerate(cats):
        src, _, _ = C._numbered
        arrows = [genmap[w[0] >> 1] if w else ident[objects[i][src[m]]]
                  for m, w in enumerate(words[i])]
        cocones.append(Functor.from_numbered(C, record.category, objects[i], arrows))
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
        N = NumberedNerve(E, 2)
        tables = N.operators()
        return (lambda k: len(N.last[k]),
                lambda k: [(m, t) for (j, m, _), t in tables.items() if j == k])
    maps = list(itertools.islice(SimplicialMap.commuting_maps(
        (2, 1, 0), side(C), side(D)), cap + 1))
    if len(maps) > cap:
        raise CapExceeded("functor enumeration cap exceeded")
    return [Functor.from_numbered(C, D, f[0], f[1]) for f in maps]
