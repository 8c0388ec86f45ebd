"""Truncated simplicial categories and the pointed tensor calculus.

A simplicial category is a finite family of composition-table
categories with face and degeneracy functors.  On top of that this
module provides the levelwise fundamental groupoid of a bisimplicial
set, the levelwise nerve of the maximal subgroupoid with its diagonal
and codiagonal, levelwise colimits, tensors by a simplicial set through
a choice of rho, the smash product with the basepoint orbit collapsed,
suspension, and the pointed cotensor.
"""

from __future__ import annotations

from .bisset import BidegreeShape, TruncatedBisimplicialSet, d_star, dec, wbar
from .cat import (BoundExceeded, CapExceeded, CategoryError, FinCategory,
                  Functor, _materialize, colimit_record, coproduct_cat,
                  enumerate_functors, enumerate_transformations,
                  fundamental_groupoid, iso_subgroupoid, product_cat,
                  terminal_cat)
from .names import sort_key
from .sset import (SimplicialMap, TruncatedSimplicialSet, _tuple_face, delta,
                   sphere, truncate)


def functors_equal(F, G):
    return F.obj_map == G.obj_map and F.mor_map == G.mor_map


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
        if basepoints is not None:
            cls = PointedSimplicialCategory
        return cls(bound, levels, faces, degens, basepoints, records)

    def level(self, n):
        return self.levels[n]

    def face(self, n, i):
        return self.faces[(n, i)]

    def degen(self, n, j):
        return self.degens[(n, j)]

    def table(self, n, m, k):
        """Structure functor d_k (m = n - 1) or s_k (m = n + 1)."""
        return self.faces[(n, k)] if m < n else self.degens[(n, k)]

    def is_pointed(self):
        return self.basepoints is not None

    def audit(self, max_violations=20):
        v = []

        def report(msg):
            if len(v) < max_violations:
                v.append(msg)

        for n in range(self.bound + 1):
            for msg in self.levels[n].validate():
                report(f"level {n}: {msg}")
        for (n, i), F in list(self.faces.items()) + list(self.degens.items()):
            for msg in F.validate():
                report(f"structure functor at {(n, i)}: {msg}")
        if v:
            return v
        for n in range(2, self.bound + 1):
            for j in range(n + 1):
                for i in range(j):
                    lhs = self.face(n - 1, i).compose(self.face(n, j))
                    rhs = self.face(n - 1, j - 1).compose(self.face(n, i))
                    if not functors_equal(lhs, rhs):
                        report(f"d_{i} d_{j} fails at level {n}")
        for n in range(self.bound):
            for j in range(n + 1):
                s = self.degen(n, j)
                for i in range(n + 2):
                    got = self.face(n + 1, i).compose(s)
                    if i in (j, j + 1):
                        want = Functor.identity(self.levels[n])
                    elif i < j:
                        want = self.degen(n - 1, j - 1).compose(self.face(n, i))
                    else:
                        want = self.degen(n - 1, j).compose(self.face(n, i - 1))
                    if not functors_equal(got, want):
                        report(f"d_{i} s_{j} fails at level {n}")
            for j in range(n + 1):
                for i in range(j + 1):
                    if n + 1 < self.bound:
                        lhs = self.degen(n + 1, i).compose(self.degen(n, j))
                        rhs = self.degen(n + 1, j + 1).compose(self.degen(n, i))
                        if not functors_equal(lhs, rhs):
                            report(f"s_{i} s_{j} fails at level {n}")
        if self.basepoints is not None:
            for n in range(self.bound + 1):
                if self.basepoints[n] not in self.levels[n].objects:
                    report(f"missing basepoint object at level {n}")
            for (n, i), F in self.faces.items():
                if F.obj_map[self.basepoints[n]] != self.basepoints[n - 1]:
                    report(f"basepoint not stable under face {(n, i)}")
            for (n, j), F in self.degens.items():
                if F.obj_map[self.basepoints[n]] != self.basepoints[n + 1]:
                    report(f"basepoint not stable under degeneracy {(n, j)}")
        return v

    def __repr__(self):
        kind = "PointedSimplicialCategory" if self.is_pointed() \
            else "SimplicialCategory"
        return (f"{kind}(bound {self.bound}, level sizes "
                f"{tuple(len(self.levels[n].objects) for n in range(self.bound + 1))})")


class PointedSimplicialCategory(SimplicialCategory):
    def __init__(self, bound, levels, faces, degens, basepoints, records=None):
        if basepoints is None:
            raise CategoryError("pointed simplicial category needs basepoints")
        super().__init__(bound, levels, faces, degens, basepoints, records)


class SimplicialFunctor:
    def __init__(self, source, target, levels):
        self.source = source
        self.target = target
        self.levels = {n: levels[n] for n in levels}

    def level(self, n):
        return self.levels[n]

    def validate(self, pointed=False, max_violations=20):
        v = []
        S, T = self.source, self.target
        bound = min(S.bound, T.bound)
        for n in range(bound + 1):
            for msg in self.levels[n].validate():
                v.append(f"level {n}: {msg}")
        for n in range(1, bound + 1):
            for i in range(n + 1):
                lhs = self.levels[n - 1].compose(S.face(n, i))
                rhs = T.face(n, i).compose(self.levels[n])
                if not functors_equal(lhs, rhs):
                    v.append(f"face commutation fails at {(n, i)}")
        for n in range(bound):
            for j in range(n + 1):
                lhs = self.levels[n + 1].compose(S.degen(n, j))
                rhs = T.degen(n, j).compose(self.levels[n])
                if not functors_equal(lhs, rhs):
                    v.append(f"degeneracy commutation fails at {(n, j)}")
        if pointed:
            for n in range(bound + 1):
                if self.levels[n].obj_map[S.basepoints[n]] != T.basepoints[n]:
                    v.append(f"basepoint not preserved at level {n}")
        return v[:max_violations]


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
    return PointedSimplicialCategory(C.bound, C.levels, C.faces, C.degens,
                                     {n: (1, "*") for n in range(C.bound + 1)})


def s0_scat(bound):
    """The pointed two-object constant simplicial category (*)_+."""
    return add_basepoint(terminal_scat(bound))


def constant_pointed_scat(C, basepoint, bound):
    S = constant_scat(C, bound)
    return PointedSimplicialCategory(bound, S.levels, S.faces, S.degens,
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
        vertices, edges = B.vtable(0, n, m, k), B.vtable(1, n, m, k)
        obj_map = {v: vertices[v] for v in B.simplices[(0, n)]}
        gen_map = {e: records[m].genmap[edges[e]] for e in B.simplices[(1, n)]}
        return records[n].induced_functor(levels[m], obj_map, gen_map)
    basepoints = None
    if B.is_pointed():
        basepoints = {0: B.basepoint}
        bp = B.basepoint
        for n in range(top):
            bp = B.vdegen(0, n, 0, bp)
            basepoints[n + 1] = bp
    return SimplicialCategory.from_operators(top, levels, table, basepoints,
                                             records=records)


def pi_functor(f, source_pi=None, target_pi=None, closure_bound=20000):
    """Levelwise fundamental-groupoid functor of a bisimplicial map."""
    S = source_pi if source_pi is not None else pi_levelwise(f.source, closure_bound)
    T = target_pi if target_pi is not None else pi_levelwise(f.target, closure_bound)
    bound = min(S.bound, T.bound)
    levels = {}
    for n in range(bound + 1):
        obj_map = {v: f(0, n, v) for v in f.source.simplices[(0, n)]}
        gen_map = {e: T.records[n].genmap[f(1, n, e)]
                   for e in f.source.simplices[(1, n)]}
        levels[n] = S.records[n].induced_functor(T.levels[n], obj_map, gen_map)
    return SimplicialFunctor(S, T, levels)


# ---------------------------------------------------------------------
# nerves of the maximal subgroupoid
# ---------------------------------------------------------------------

def nerve_iso_levelwise(S, depth=None):
    """Bidegree (p, n): p-chains of invertible morphisms of level n."""
    depth = S.bound if depth is None else depth
    shape = BidegreeShape.rectangle(depth, S.bound)
    groupoids = {n: iso_subgroupoid(S.levels[n]) for n in range(S.bound + 1)}
    simplices = {}
    for n, G in groupoids.items():
        for p, cells in G.chains(range(depth + 1)).items():
            simplices[(p, n)] = cells

    def htable(p, n, m, k):
        op = groupoids[n].chain_operator
        return {c: op(p, m, k, c) for c in simplices[(p, n)]}

    def vtable(p, n, m, k):
        image = S.table(n, m, k).on_chain
        return {c: image(p, c) for c in simplices[(p, n)]}
    bp = S.basepoints[0] if S.is_pointed() else None
    return TruncatedBisimplicialSet.from_operators(shape, simplices, htable,
                                                   vtable, basepoint=bp)


def diag_nerve_iso(S):
    """Diagonal of the levelwise nerve, built directly: degree n is the
    n-chains of invertible morphisms of level n."""
    groupoids = {n: iso_subgroupoid(S.levels[n]) for n in range(S.bound + 1)}
    simplices = {n: G.chains((n,))[n] for n, G in groupoids.items()}

    def table(n, m, k):
        op, image = groupoids[m].chain_operator, S.table(n, m, k).on_chain
        return {c: op(n, m, k, image(n, c)) for c in simplices[n]}
    bp = S.basepoints[0] if S.is_pointed() else None
    return TruncatedSimplicialSet.from_operators(S.bound, simplices, table,
                                                 basepoint=bp)


def diag_nerve_iso_map(SF):
    """Simplicial map induced on the diagonal nerves by a simplicial
    functor between levelwise groupoids."""
    X, Y = diag_nerve_iso(SF.source), diag_nerve_iso(SF.target)
    bound = min(X.bound, Y.bound)
    assign = {n: {c: SF.levels[n].on_chain(n, c) for c in X.simplices[n]}
              for n in range(bound + 1)}
    if bound < X.bound:
        X = truncate(X, bound)
        Y = truncate(Y, bound)
    return SimplicialMap(X, Y, assign)


def wbar_nerve_iso(S, depth=None):
    return wbar(nerve_iso_levelwise(S, depth))


# ---------------------------------------------------------------------
# levelwise colimits
# ---------------------------------------------------------------------

def _induced_colimit_functor(rec, target_cat, target_cocones, leg_functors):
    obj_map = {}
    for rep in rec.presentation.objects:
        k, orig = rep
        obj_map[rep] = target_cocones[k].obj_map[leg_functors[k].obj_map[orig]]
    gen_map = {}
    for (k, m) in rec.presentation.generators:
        gen_map[(k, m)] = target_cocones[k].mor_map[leg_functors[k].mor_map[m]]
    return rec.induced_functor(target_cat, obj_map, gen_map)


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
# rho and tensors
# ---------------------------------------------------------------------

def rho(X, tag="pi_dec", closure_bound=20000):
    """Simplicial-set-to-simplicial-category left adjoint candidate."""
    if tag == "pi_dec":
        return pi_levelwise(dec(X), closure_bound)
    if tag == "pi_dstar":
        return pi_levelwise(d_star(X), closure_bound)
    raise CategoryError(f"unknown rho choice {tag!r}")


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


def tensor_rho(S, X, tag="pi_dec", closure_bound=20000):
    """Levelwise product of S with rho(X)."""
    return product_scat(S, rho(X, tag, closure_bound))


# ---------------------------------------------------------------------
# smash and suspension
# ---------------------------------------------------------------------

def _point_functor(pt, C, obj):
    return Functor(pt, C, {"*": obj}, {("id", "*"): C.ident[obj]})


def _collapse_functor(C, pt):
    return Functor(C, pt, {o: "*" for o in C.objects},
                   {m: ("id", "*") for m in C.morphisms})


def smash(S, X, tag="pi_dec", closure_bound=20000, colim_bound=20000):
    """Smash of a pointed simplicial category with a pointed simplicial
    set: levelwise, collapse the wedge inside the product with rho(X)."""
    if not S.is_pointed():
        raise CategoryError("smash needs a pointed simplicial category")
    if not X.is_pointed():
        raise CategoryError("smash needs a pointed simplicial set")
    R = rho(X, tag, closure_bound)
    top = min(S.bound, R.bound)
    pt = terminal_cat()

    wedge_recs, wedge_cocones = {}, {}
    products, recs, cocones, levels = {}, {}, {}, {}
    for n in range(top + 1):
        C, K = S.levels[n], R.levels[n]
        bpC, bpK = S.basepoints[n], R.basepoints[n]
        if not C.is_groupoid():
            raise CategoryError("smash levels must be groupoids")
        wedge_recs[n], wedge_cocones[n] = colimit_record(
            [pt, C, K],
            [(0, 1, _point_functor(pt, C, bpC)),
             (0, 2, _point_functor(pt, K, bpK))], colim_bound)
        A = wedge_recs[n].category
        P = product_cat(C, K)
        products[n] = P
        obj_map = {}
        for rep in wedge_recs[n].presentation.objects:
            k, orig = rep
            obj_map[rep] = {0: (bpC, bpK), 1: (orig, bpK), 2: (bpC, orig)}[k]
        gen_map = {}
        for (k, m) in wedge_recs[n].presentation.generators:
            gen_map[(k, m)] = (m, K.ident[bpK]) if k == 1 else (C.ident[bpC], m)
        j = wedge_recs[n].induced_functor(P, obj_map, gen_map)
        recs[n], cocones[n] = colimit_record(
            [A, P, pt], [(0, 1, j), (0, 2, _collapse_functor(A, pt))],
            colim_bound)
        levels[n] = recs[n].category

    def table(n, m, k):
        FC, FK = S.table(n, m, k), R.table(n, m, k)
        wedge_leg = _induced_colimit_functor(
            wedge_recs[n], wedge_recs[m].category,
            wedge_cocones[m], [Functor.identity(pt), FC, FK])
        prod_leg = _product_functor(products[n], products[m], FC, FK)
        return _induced_colimit_functor(
            recs[n], levels[m], cocones[m],
            [wedge_leg, prod_leg, Functor.identity(pt)])

    basepoints = {n: cocones[n][2].obj_map["*"] for n in range(top + 1)}
    out = SimplicialCategory.from_operators(top, levels, table, basepoints,
                                            records=recs)
    out.smash_cocones = cocones
    out.smash_products = products
    out.smash_rho = R
    return out


def suspend(S, tag="pi_dec", closure_bound=20000, colim_bound=20000):
    """Smash with a circle model (an interval with its ends glued)."""
    return smash(S, sphere(1, S.bound + 3), tag, closure_bound, colim_bound)


# ---------------------------------------------------------------------
# pointed cotensor
# ---------------------------------------------------------------------

def _pointed_level_functors(R, S, m, cap):
    """Functors R_m -> S_m carrying the basepoint object to the
    basepoint object."""
    out = enumerate_functors(R.levels[m], S.levels[m], cap)
    return [F for F in out
            if F.obj_map[R.basepoints[m]] == S.basepoints[m]]


def _delta_compose(alpha, i):
    """alpha followed by the coface skipping i."""
    return tuple(v if v < i else v + 1 for v in alpha)


def _sigma_compose(alpha, j):
    """alpha followed by the codegeneracy collapsing j, j+1."""
    return tuple(v if v <= j else v - 1 for v in alpha)


def _grid_functor_families(R, S, n, top, cands, cap):
    """Assignments alpha |-> (functor R_m -> S_m), for alpha running
    over the m-simplices of Delta^n for m <= top, commuting with the
    structure maps on both sides.  These are exactly the simplicial
    functors R x (discrete Delta^n grid) -> S."""
    A = delta(n, top)
    cells = [(m, a) for m in range(top + 1)
             for a in sorted(A.simplices[m], key=sort_key)]
    out = []

    def consistent(m, a, F, chosen):
        for i in range(m + 1) if m >= 1 else ():
            prev = chosen[(m - 1, _tuple_face(a, i))]
            if not functors_equal(prev.compose(R.face(m, i)),
                                  S.face(m, i).compose(F)):
                return False
        for j in range(m):
            if a[j] == a[j + 1]:
                prev = chosen[(m - 1, a[:j] + a[j + 1:])]
                if not functors_equal(F.compose(R.degen(m - 1, j)),
                                      S.degen(m - 1, j).compose(prev)):
                    return False
        return True

    def extend(k, chosen):
        if len(out) > cap:
            raise CapExceeded("cotensor enumeration cap exceeded")
        if k == len(cells):
            out.append(dict(chosen))
            return
        m, a = cells[k]
        for F in cands[m]:
            if consistent(m, a, F, chosen):
                chosen[(m, a)] = F
                extend(k + 1, chosen)
                del chosen[(m, a)]

    extend(0, {})
    return cells, out


def _grid_transformations(R, S, top, cells, Fd, Gd, cap):
    """Families of natural transformations Fd[(m, a)] -> Gd[(m, a)],
    with identity components over the basepoint object, commuting with
    the structure maps in both directions."""
    pools = {}
    for (m, a) in cells:
        opts = []
        for nt in enumerate_transformations(Fd[(m, a)], Gd[(m, a)]):
            bp = R.basepoints[m]
            if nt.components[bp] == S.levels[m].ident[S.basepoints[m]]:
                opts.append(nt.components)
        pools[(m, a)] = opts
    out = []

    def consistent(m, a, comps, chosen):
        for i in range(m + 1) if m >= 1 else ():
            prev = chosen[(m - 1, _tuple_face(a, i))]
            F = R.face(m, i)
            D = S.face(m, i)
            for o in R.levels[m].objects:
                if D.mor_map[comps[o]] != prev[F.obj_map[o]]:
                    return False
        for j in range(m):
            if a[j] == a[j + 1]:
                prev = chosen[(m - 1, a[:j] + a[j + 1:])]
                F = R.degen(m - 1, j)
                D = S.degen(m - 1, j)
                for o in R.levels[m - 1].objects:
                    if comps[F.obj_map[o]] != D.mor_map[prev[o]]:
                        return False
        return True

    def extend(k, chosen):
        if len(out) > cap:
            raise CapExceeded("cotensor enumeration cap exceeded")
        if k == len(cells):
            out.append(dict(chosen))
            return
        m, a = cells[k]
        for comps in pools[(m, a)]:
            if consistent(m, a, comps, chosen):
                chosen[(m, a)] = comps
                extend(k + 1, chosen)
                del chosen[(m, a)]

    extend(0, {})
    return out


def cotensor(S, X, tag="pi_dec", closure_bound=20000, cap=100000):
    """Pointed cotensor: level n holds the simplicial functors from
    rho(X) x (discrete Delta^n grid) into S whose restriction to the
    basepoint object is constant at the basepoint (objects), and the
    matching transformation families with identity basepoint components
    (morphisms).  Structure maps act by reindexing the grid."""
    if not S.is_pointed():
        raise CategoryError("cotensor needs a pointed simplicial category")
    if not X.is_pointed():
        raise CategoryError("cotensor needs a pointed simplicial set")
    R = rho(X, tag, closure_bound)
    top = min(S.bound, R.bound)
    cands = {m: _pointed_level_functors(R, S, m, cap) for m in range(top + 1)}

    levels, level_data = {}, {}
    for n in range(top + 1):
        cells, fams = _grid_functor_families(R, S, n, top, cands, cap)

        def obj_name(d):
            return tuple(d[c].signature() for c in cells)

        objects, obj_data = [], {}
        for d in fams:
            nm = obj_name(d)
            objects.append(nm)
            obj_data[nm] = d
        objects.sort(key=sort_key)

        morphisms, src, tgt, mor_data = [], {}, {}, {}
        for fo in objects:
            for go in objects:
                for comps in _grid_transformations(R, S, top, cells,
                                                   obj_data[fo], obj_data[go],
                                                   cap):
                    nm = (fo, go,
                          tuple(tuple(comps[c][o]
                                      for o in R.levels[c[0]].objects)
                                for c in cells))
                    morphisms.append(nm)
                    src[nm], tgt[nm] = fo, go
                    mor_data[nm] = comps
                    if len(morphisms) > cap:
                        raise CapExceeded("cotensor enumeration cap exceeded")
        ident, comp = {}, {}
        for o in objects:
            comps = {c: {v: S.levels[c[0]].ident[obj_data[o][c].obj_map[v]]
                         for v in R.levels[c[0]].objects} for c in cells}
            ident[o] = (o, o, tuple(tuple(comps[c][v]
                                          for v in R.levels[c[0]].objects)
                                    for c in cells))
        for g in morphisms:
            for f in morphisms:
                if tgt[f] != src[g]:
                    continue
                comps = {c: {v: S.levels[c[0]].comp[(mor_data[g][c][v],
                                                     mor_data[f][c][v])]
                             for v in R.levels[c[0]].objects} for c in cells}
                comp[(g, f)] = (src[f], tgt[g],
                                tuple(tuple(comps[c][v]
                                            for v in R.levels[c[0]].objects)
                                      for c in cells))
        levels[n] = FinCategory(objects, morphisms, src, tgt, ident, comp)
        level_data[n] = (cells, obj_data, mor_data)

    def reindex(n, m, alpha_fn):
        cells_n, obj_n, mor_n = level_data[n]
        cells_m, _, _ = level_data[m]
        obj_map, mor_map = {}, {}
        for o, d in obj_n.items():
            obj_map[o] = tuple(d[(deg, alpha_fn(a))].signature()
                               for (deg, a) in cells_m)
        for w, comps in mor_n.items():
            mor_map[w] = (obj_map[levels[n].src[w]],
                          obj_map[levels[n].tgt[w]],
                          tuple(tuple(comps[(deg, alpha_fn(a))][v]
                                      for v in R.levels[deg].objects)
                                for (deg, a) in cells_m))
        return Functor(levels[n], levels[m], obj_map, mor_map)

    def table(n, m, k):
        compose = _delta_compose if m < n else _sigma_compose
        return reindex(n, m, lambda a: compose(a, k))
    basepoints = {}
    for n in range(top + 1):
        cells, obj_data, _ = level_data[n]
        const = None
        for o, d in obj_data.items():
            if all(set(d[c].obj_map.values()) == {S.basepoints[c[0]]}
                   for c in cells):
                const = o
                break
        if const is None:
            raise CategoryError("constant basepoint functor missing")
        basepoints[n] = const
    out = SimplicialCategory.from_operators(top, levels, table, basepoints)
    out.cotensor_rho = R
    return out


def loop_space(S, tag="pi_dec", closure_bound=20000, cap=100000):
    """Pointed cotensor by a circle model."""
    return cotensor(S, sphere(1, S.bound + 3), tag, closure_bound, cap)


# ---------------------------------------------------------------------
# simplicial functor enumeration
# ---------------------------------------------------------------------

def enumerate_simplicial_functors(S, T, cap=10 ** 6, pointed=False):
    """All simplicial functors S -> T up to the shared bound, found by
    extending level by level with commutation filtering."""
    bound = min(S.bound, T.bound)
    per_level = {n: enumerate_functors(S.levels[n], T.levels[n], cap)
                 for n in range(bound + 1)}
    if pointed:
        per_level = {n: [F for F in per_level[n]
                         if F.obj_map[S.basepoints[n]] == T.basepoints[n]]
                     for n in per_level}
    def signature(F):
        return (frozenset(F.obj_map.items()), frozenset(F.mor_map.items()))

    partials = [[F] for F in per_level[0]]
    for n in range(1, bound + 1):
        # bucket the level-n candidates by what they look like after the
        # face and degeneracy operators, so each partial needs one lookup
        buckets = {}
        for F in per_level[n]:
            key = (tuple(signature(T.face(n, i).compose(F))
                         for i in range(n + 1)),
                   tuple(signature(F.compose(S.degen(n - 1, j)))
                         for j in range(n)))
            buckets.setdefault(key, []).append(F)
        nxt = []
        for chosen in partials:
            prev = chosen[n - 1]
            key = (tuple(signature(prev.compose(S.face(n, i)))
                         for i in range(n + 1)),
                   tuple(signature(T.degen(n - 1, j).compose(prev))
                         for j in range(n)))
            for F in buckets.get(key, ()):
                nxt.append(chosen + [F])
                if len(nxt) > cap:
                    raise CapExceeded("simplicial functor cap exceeded")
        partials = nxt
    return [SimplicialFunctor(S, T, dict(enumerate(levels)))
            for levels in partials]
