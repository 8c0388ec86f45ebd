"""Truncated simplicial categories and the pointed tensor calculus.

A simplicial category is a finite family of composition-table
categories with face and degeneracy functors.  On top of that this
module provides the levelwise fundamental groupoid of a bisimplicial
set, the levelwise nerve of the maximal subgroupoid with its diagonal
and codiagonal, levelwise colimits and products, rho, the smash
product with the basepoint orbit collapsed, and suspension.  Simplicial
functors are enumerated by the hom search of :mod:`simpcat.sset`, on the
position lists of each level's numbered nerve and of the structure
functors' object and morphism images.

The levelwise and diagonal nerves, and the images of
`diag_nerve_iso_map`, are the position lists of each level's numbered
nerve (`simpcat.cat.NumberedNerve`, by prefix recurrence), under the
structure functors restricted to the maximal subgroupoids.  The
diagonal nerve is built directly, once per simplicial category: `diag`
of the levelwise nerve would build every bidegree.
"""

from __future__ import annotations

import itertools
import weakref

from .bisset import BidegreeShape, TruncatedBisimplicialSet, dec, wbar
from .cat import (BoundExceeded, CapExceeded, CategoryError, Functor,
                  NumberedNerve, _materialize, colimit_record, coproduct_cat,
                  fundamental_groupoid, iso_subgroupoid, product_cat,
                  terminal_cat)
from .sset import (MAX_VIOLATIONS, SimplicialMap, TruncatedSimplicialSet,
                   sphere, truncate)


# The two simplicial sets of a simplicial category: the attribute of
# each level that lists the cells, and of each structure functor that maps them.
# `Functor._numbered` holds the same two maps as position lists, in this order.
_PARTS = (("objects", "obj_map"), ("morphisms", "mor_map"))


class SimplicialCategory:
    def __init__(self, bound, levels, faces, degens, basepoints=None,
                 records=None):
        self.bound = bound
        self.levels = {n: levels[n] for n in range(bound + 1)}
        self.faces = dict(faces)        # (n, i): Functor C_n -> C_{n-1}
        self.degens = dict(degens)      # (n, j): Functor C_n -> C_{n+1}
        self.basepoints = dict(basepoints) if basepoints is not None else None
        self.records = records          # optional per-level Materializations

    @classmethod
    def from_operators(cls, bound, levels, table, basepoints=None,
                       records=None):
        """Build from one callback: `table(n, m, k)` returns the
        structure functor from level n to level m, d_k when m = n - 1 and
        s_k when m = n + 1.  With basepoints the result is pointed."""
        faces = {(n, i): table(n, n - 1, i)
                 for n in range(1, bound + 1) for i in range(n + 1)}
        degens = {(n, j): table(n, n + 1, j)
                  for n in range(bound) for j in range(n + 1)}
        return cls(bound, levels, faces, degens, basepoints, records)

    def level(self, n):
        return self.levels[n]

    def face(self, n, i):
        return self.faces[(n, i)]

    def degen(self, n, j):
        return self.degens[(n, j)]

    def table(self, n, m, k):
        """Structure functor d_k (m = n - 1) or s_k (m = n + 1), or None
        when it is missing."""
        return (self.faces if m < n else self.degens).get((n, k))

    def is_pointed(self):
        return self.basepoints is not None

    def audit(self):
        v = [f"level {n}: {msg}" for n in range(self.bound + 1)
             for msg in self.levels[n].validate()]
        v += [f"structure functor at {(n, i)}: {msg}"
              for (n, i), F in list(self.faces.items()) + list(self.degens.items())
              for msg in F.validate()]
        if v:
            return v[:MAX_VIOLATIONS]
        for cells, mapping in _PARTS:
            v += [f"{cells}: {msg}" for msg in itertools.islice(
                TruncatedSimplicialSet.identity_failures(
                    self.bound, lambda n: getattr(self.levels[n], cells),
                    lambda n, m, k: getattr(self.table(n, m, k), mapping, None)),
                MAX_VIOLATIONS)]
        if self.basepoints is not None:
            for n in range(self.bound + 1):
                if self.basepoints[n] not in self.levels[n].objects:
                    v.append(f"missing basepoint object at level {n}")
            for (n, i), F in self.faces.items():
                if F.obj_map[self.basepoints[n]] != self.basepoints[n - 1]:
                    v.append(f"basepoint not stable under face {(n, i)}")
            for (n, j), F in self.degens.items():
                if F.obj_map[self.basepoints[n]] != self.basepoints[n + 1]:
                    v.append(f"basepoint not stable under degeneracy {(n, j)}")
        return v[:MAX_VIOLATIONS]

    def __repr__(self):
        sizes = tuple(len(self.levels[n].objects) for n in range(self.bound + 1))
        pt = ", pointed" if self.is_pointed() else ""
        return f"SimplicialCategory(bound {self.bound}, level sizes {sizes}{pt})"


class SimplicialFunctor:
    def __init__(self, source, target, levels):
        self.source = source
        self.target = target
        self.levels = {n: levels[n] for n in levels}

    def level(self, n):
        return self.levels[n]

    def validate(self, pointed=False):
        """The levels' failures alone, if any, since the commutation
        checks read the levels' position lists; else those checks'."""
        S, T = self.source, self.target
        bound = min(S.bound, T.bound)
        v = [f"level {n}: {msg}" for n in range(bound + 1)
             for msg in self.levels[n].validate()]
        if v:
            return v[:MAX_VIOLATIONS]
        for part, (cells, _) in enumerate(_PARTS):
            v += [f"{cells}: {msg}" for msg in itertools.islice(
                SimplicialMap.commutation_failures(
                    bound, lambda n: getattr(S.levels[n], cells),
                    lambda n, m, k: S.table(n, m, k)._numbered[part],
                    lambda n, m, k: T.table(n, m, k)._numbered[part],
                    [self.levels[n]._numbered[part] for n in range(bound + 1)]),
                MAX_VIOLATIONS)]
        if pointed:
            for n in range(bound + 1):
                if self.levels[n].obj_map[S.basepoints[n]] != T.basepoints[n]:
                    v.append(f"basepoint not preserved at level {n}")
        return v[:MAX_VIOLATIONS]


# ---------------------------------------------------------------------
# constant objects and basepoints
# ---------------------------------------------------------------------

def constant_scat(C, bound):
    ident = Functor.identity(C)
    return SimplicialCategory.from_operators(
        bound, {n: C for n in range(bound + 1)}, lambda n, m, k: ident)


def terminal_scat(bound):
    return constant_scat(terminal_cat(), bound)


def add_basepoint(S):
    """Disjoint terminal object per level; levelwise C |-> C + *."""
    C, _ = colimit_scat([S, terminal_scat(S.bound)], [])
    return SimplicialCategory(C.bound, C.levels, C.faces, C.degens,
                              {n: (1, "*") for n in range(C.bound + 1)})


def s0_scat(bound):
    """The pointed two-object constant simplicial category (*)_+."""
    return add_basepoint(terminal_scat(bound))


def constant_pointed_scat(C, basepoint, bound):
    S = constant_scat(C, bound)
    return SimplicialCategory(bound, S.levels, S.faces, S.degens,
                              {n: basepoint for n in range(bound + 1)})


# ---------------------------------------------------------------------
# levelwise fundamental groupoid
# ---------------------------------------------------------------------

def pi_levelwise(B, closure_bound=20000):
    """Fundamental groupoid of each horizontal row (2-truncated), with
    structure functors induced by the vertical operators."""
    top = -1
    while all((p, top + 1) in B.shape for p in range(3)):
        top += 1
    if top < 0:
        raise CategoryError("no row carries a 2-truncated horizontal structure")
    records, levels = {}, {}
    for n in range(top + 1):
        row = truncate(B.row(n), 2)
        try:
            records[n] = _materialize(fundamental_groupoid(row), closure_bound)
        except BoundExceeded as e:
            raise BoundExceeded(f"row {n}: {e}") from e
        levels[n] = records[n].category

    def table(n, m, k):
        genmap = records[m].genmap
        return records[n].induced_functor(
            levels[m], B.columns[0].positions(n, m, k),
            [genmap[y] for y in B.columns[1].positions(n, m, k)])
    basepoints = None
    if B.is_pointed():
        bp = B.simplices[(0, 0)].index(B.basepoint)
        basepoints = {0: B.basepoint}
        for n in range(top):
            bp = B.columns[0].positions(n, n + 1, 0)[bp]
            basepoints[n + 1] = B.simplices[(0, n + 1)][bp]
    return SimplicialCategory.from_operators(top, levels, table, basepoints,
                                             records=records)


def pi_functor(f, target_pi=None, closure_bound=20000):
    """Levelwise fundamental-groupoid functor of a bisimplicial map."""
    S = pi_levelwise(f.source, closure_bound)
    T = target_pi if target_pi is not None else pi_levelwise(f.target, closure_bound)
    bound = min(S.bound, T.bound)
    levels = {}
    for n in range(bound + 1):
        obj = T.levels[n]._index[0]
        gens = {g: k for k, g in enumerate(T.records[n].presentation.generators)}
        genmap = T.records[n].genmap
        levels[n] = S.records[n].induced_functor(
            T.levels[n], [obj[f(0, n, v)] for v in f.source.simplices[(0, n)]],
            [genmap[gens[f(1, n, e)]] for e in f.source.simplices[(1, n)]])
    return SimplicialFunctor(S, T, levels)


# ---------------------------------------------------------------------
# nerves of the maximal subgroupoid
# ---------------------------------------------------------------------

def _iso_level(C, top):
    """The nerve of the maximal subgroupoid of C through degree `top`,
    the positions in C of its morphisms, and the position in it of each
    invertible morphism of C; both None when C is a groupoid."""
    G = iso_subgroupoid(C)
    if G is C:
        return NumberedNerve(C, top), None, None
    invertible = [g is not None for g in C._inverses]
    return (NumberedNerve(G, top),
            list(itertools.compress(range(len(invertible)), invertible)),
            list(itertools.accumulate(invertible, initial=0)))


def _on_iso(F, source, target, k):
    """The image of the k-chains of the nerve of the maximal subgroupoid
    of F's source, under F restricted to it and to that of F's target;
    `source` and `target` are their `_iso_level`s."""
    (N, kept, _), (M, _, place) = source, target
    objects, arrows = F._numbered
    if kept is not None:
        arrows = list(map(arrows.__getitem__, kept))
    if place is not None:
        arrows = list(map(place.__getitem__, arrows))
    return N.image(objects, arrows, M, k)


def nerve_iso_levelwise(S, depth=None):
    """Bidegree (p, n): p-chains of invertible morphisms of level n."""
    depth = S.bound if depth is None else depth
    shape = BidegreeShape.rectangle(depth, S.bound)
    levels = {n: _iso_level(C, depth) for n, C in S.levels.items()}
    tables = {n: N.operators() for n, (N, _, _) in levels.items()}
    bp = S.basepoints[0] if S.is_pointed() else None
    return TruncatedBisimplicialSet.from_operators(
        shape, {(p, n): N.names(p) for n, (N, _, _) in levels.items()
                for p in range(depth + 1)},
        lambda p, n, m, k: tables[n][p, m, k],
        lambda p, n, m, k: _on_iso(S.table(n, m, k), levels[n], levels[m], p),
        basepoint=bp)


def diag_nerve_iso(S):
    """Diagonal of the levelwise nerve, built directly: degree n is the
    n-chains of invertible morphisms of level n.  Built once per
    simplicial category."""
    return _diag_nerve_iso(S)


_DIAG_NERVES = weakref.WeakKeyDictionary()


def _diag_nerve_iso(S, levels=None):
    """`_build_diag_nerve_iso`, from S's `_iso_levels` (`levels` when
    the caller has them), on the first call for S; kept in
    `_DIAG_NERVES` only as long as S lives."""
    if S not in _DIAG_NERVES:
        _DIAG_NERVES[S] = _build_diag_nerve_iso(S, levels or _iso_levels(S))
    return _DIAG_NERVES[S]


def _iso_levels(S):
    """The `_iso_level` of each level n of S, its nerve through degree n."""
    return {n: _iso_level(C, n) for n, C in S.levels.items()}


def _build_diag_nerve_iso(S, levels):
    """The diagonal nerve from S's `_iso_levels`.  A structure functor
    commutes with the nerve operators, so a face is taken in level n and
    then mapped, and a degeneracy is taken in level m after the map.
    The keys come level by level, so one level's operator tables are
    held at a time, each dropped once read."""
    held = {}

    def table(n, m, k):
        top = max(n, m)
        if top not in held:
            held.clear()
            held[top] = levels[top][0].operators()
        op = held[top].pop((n, m, k))
        image = _on_iso(S.table(n, m, k), levels[n], levels[m], min(n, m))
        if m < n:
            return list(map(image.__getitem__, op))
        return list(map(op.__getitem__, image))
    bp = S.basepoints[0] if S.is_pointed() else None
    return TruncatedSimplicialSet.from_operators(
        S.bound, {n: N.names(n) for n, (N, _, _) in levels.items()}, table,
        basepoint=bp)


def diag_nerve_iso_map(SF):
    """Simplicial map induced on the diagonal nerves by a simplicial
    functor between levelwise groupoids."""
    source, target = _iso_levels(SF.source), _iso_levels(SF.target)
    X = _diag_nerve_iso(SF.source, source)
    Y = _diag_nerve_iso(SF.target, target)
    bound = min(X.bound, Y.bound)
    assign = {n: _on_iso(SF.levels[n], source[n], target[n], n)
              for n in range(bound + 1)}
    if bound < X.bound:
        X = truncate(X, bound)
        Y = truncate(Y, bound)
    return SimplicialMap(X, Y, assign)


def wbar_nerve_iso(S):
    return wbar(nerve_iso_levelwise(S))


# ---------------------------------------------------------------------
# levelwise colimits
# ---------------------------------------------------------------------

def _induced_colimit_functor(rec, target_cat, target_cocones, leg_functors):
    """The functor out of a levelwise colimit that `leg_functors` induce
    into the colimit whose cocones are `target_cocones`."""
    cocones = [c._numbered for c in target_cocones]
    legs = [F._numbered for F in leg_functors]
    objects, generators = rec.origins
    return rec.induced_functor(
        target_cat, [cocones[k][0][legs[k][0][a]] for k, a in objects],
        [cocones[k][1][legs[k][1][m]] for k, m in generators])


def _coproduct_functor(src, tgt, legs):
    obj_map, mor_map = {}, {}
    for k, F in enumerate(legs):
        for o in F.source.objects:
            obj_map[(k, o)] = (k, F.obj_map[o])
        for m in F.source.morphisms:
            mor_map[(k, m)] = (k, F.mor_map[m])
    return Functor(src, tgt, obj_map, mor_map)


def colimit_scat(scats, edges, bound=10000):
    """Levelwise colimit; edges are (src_index, tgt_index,
    SimplicialFunctor).  Returns (simplicial category, cocones)."""
    top = min(S.bound for S in scats)
    records, levels, cocone_levels = None, {}, {}
    if not edges:
        for n in range(top + 1):
            levels[n], cocone_levels[n] = coproduct_cat(
                [S.levels[n] for S in scats])

        def induce(n, m, legs):
            return _coproduct_functor(levels[n], levels[m], legs)
    else:
        records = {}
        for n in range(top + 1):
            cats_n = [S.levels[n] for S in scats]
            edges_n = [(i, j, SF.levels[n]) for (i, j, SF) in edges]
            records[n], cocone_levels[n] = colimit_record(cats_n, edges_n, bound)
            levels[n] = records[n].category

        def induce(n, m, legs):
            return _induced_colimit_functor(records[n], levels[m],
                                            cocone_levels[m], legs)
    colim = SimplicialCategory.from_operators(
        top, levels,
        lambda n, m, k: induce(n, m, [S.table(n, m, k) for S in scats]),
        records=records)
    cocones = [SimplicialFunctor(S, colim,
                                 {n: cocone_levels[n][k] for n in range(top + 1)})
               for k, S in enumerate(scats)]
    return colim, cocones


# ---------------------------------------------------------------------
# rho and products
# ---------------------------------------------------------------------

def rho(X, closure_bound=20000):
    """Simplicial-set-to-simplicial-category left adjoint candidate."""
    return pi_levelwise(dec(X), closure_bound)


def _product_functor(src, tgt, F, G):
    obj_map = {(a, b): (F.obj_map[a], G.obj_map[b]) for (a, b) in src.objects}
    mor_map = {(m, w): (F.mor_map[m], G.mor_map[w]) for (m, w) in src.morphisms}
    return Functor(src, tgt, obj_map, mor_map)


def product_scat(S, T):
    top = min(S.bound, T.bound)
    levels = {n: product_cat(S.levels[n], T.levels[n]) for n in range(top + 1)}
    return SimplicialCategory.from_operators(
        top, levels,
        lambda n, m, k: _product_functor(levels[n], levels[m],
                                         S.table(n, m, k), T.table(n, m, k)))


# ---------------------------------------------------------------------
# smash and suspension
# ---------------------------------------------------------------------

def _point_functor(pt, C, obj):
    return Functor(pt, C, {"*": obj}, {("id", "*"): C.ident[obj]})


def _collapse_functor(C, pt):
    return Functor(C, pt, {o: "*" for o in C.objects},
                   {m: ("id", "*") for m in C.morphisms})


def smash(S, X, closure_bound=20000):
    """Smash of a pointed simplicial category with a pointed simplicial
    set: levelwise, collapse the wedge inside the product with rho(X).
    `closure_bound` bounds rho(X) and both levelwise colimits."""
    if not S.is_pointed():
        raise CategoryError("smash needs a pointed simplicial category")
    if not X.is_pointed():
        raise CategoryError("smash needs a pointed simplicial set")
    R = rho(X, closure_bound)
    P = product_scat(S, R)
    top = P.bound
    pt = terminal_cat()

    wedge_recs, wedge_cocones = {}, {}
    recs, cocones, levels = {}, {}, {}
    for n in range(top + 1):
        C, K = S.levels[n], R.levels[n]
        bpC, bpK = S.basepoints[n], R.basepoints[n]
        if not C.is_groupoid():
            raise CategoryError("smash levels must be groupoids")
        wedge_recs[n], wedge_cocones[n] = colimit_record(
            [pt, C, K],
            [(0, 1, _point_functor(pt, C, bpC)),
             (0, 2, _point_functor(pt, K, bpK))], closure_bound)
        A = wedge_recs[n].category
        obj, mor = P.levels[n]._index
        wedge = wedge_recs[n].presentation
        j = wedge_recs[n].induced_functor(
            P.levels[n],
            [obj[{0: (bpC, bpK), 1: (o, bpK), 2: (bpC, o)}[k]]
             for k, o in wedge.objects],
            [mor[(m, K.ident[bpK]) if k == 1 else (C.ident[bpC], m)]
             for k, m in wedge.generators])
        recs[n], cocones[n] = colimit_record(
            [A, P.levels[n], pt],
            [(0, 1, j), (0, 2, _collapse_functor(A, pt))], closure_bound)
        levels[n] = recs[n].category

    def table(n, m, k):
        FC, FK = S.table(n, m, k), R.table(n, m, k)
        wedge_leg = _induced_colimit_functor(
            wedge_recs[n], wedge_recs[m].category,
            wedge_cocones[m], [Functor.identity(pt), FC, FK])
        return _induced_colimit_functor(
            recs[n], levels[m], cocones[m],
            [wedge_leg, P.table(n, m, k), Functor.identity(pt)])

    basepoints = {n: cocones[n][2].obj_map["*"] for n in range(top + 1)}
    out = SimplicialCategory.from_operators(top, levels, table, basepoints,
                                            records=recs)
    out.smash_cocones = cocones
    out.smash_rho = R
    return out


def suspend(S, closure_bound=20000):
    """Smash with a circle model (an interval with its ends glued)."""
    return smash(S, sphere(1, S.bound + 3), closure_bound)


# ---------------------------------------------------------------------
# simplicial functor enumeration
# ---------------------------------------------------------------------

def enumerate_simplicial_functors(S, T, cap=10 ** 6):
    """All simplicial functors S -> T up to the shared bound, as the maps
    of the levelwise nerves: cells at (p, n) are the p-chains of level n.
    Composable pairs are cells of the top level only: below it
    F_n = d_0 F_{n+1} s_0 preserves composition because F_{n+1} does.
    More than `cap` functors raise CapExceeded."""
    bound = min(S.bound, T.bound)

    def side(R):
        tops = [2 if n == bound else 1 for n in range(bound + 1)]
        nerves = [NumberedNerve(R.levels[n], top) for n, top in enumerate(tops)]
        tables = [N.operators() for N in nerves]

        def operators(key):
            p, n = key
            return [((q, n), t) for (k, q, _), t in tables[n].items()
                    if k == p] + [
                ((p, m), R.table(n, m, k)._numbered[p])    # p-chain images
                for m in (n - 1, n + 1) if p < 2 and 0 <= m <= bound
                for k in range(n + 1)]
        return (lambda key: len(nerves[key[1]].last[key[0]])), operators
    keys = [(2, bound)] + [(p, n) for n in reversed(range(bound + 1))
                           for p in (1, 0)]
    maps = list(itertools.islice(SimplicialMap.commuting_maps(
        keys, side(S), side(T)), cap + 1))
    if len(maps) > cap:
        raise CapExceeded("simplicial functor enumeration cap exceeded")
    return [SimplicialFunctor(S, T, {
                n: Functor.from_numbered(S.levels[n], T.levels[n], f[(0, n)],
                                         f[(1, n)])
                for n in range(bound + 1)})
            for f in maps]
