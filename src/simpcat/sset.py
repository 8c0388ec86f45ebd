"""Truncated simplicial sets with explicit face/degeneracy tables.

A `TruncatedSimplicialSet` stores every simplex up to a dimension bound
together with total face and degeneracy tables.  Eilenberg-Zilber data
(each simplex as an iterated degeneracy of a unique nondegenerate base)
is derived from the degeneracy tables at construction time, which keeps
the stored canonical forms consistent with the tables by construction.

Simplex names are ints, strings, or nested tuples of those; see
:mod:`simpcat.names` for the ordering used to pick quotient
representatives.
"""

from __future__ import annotations

import itertools

from .names import least, sort_key


class SimplicialError(Exception):
    pass


class BoundMismatch(SimplicialError):
    pass


def normalize_word(word):
    """Rewrite a degeneracy composition (outermost index first) into the
    unique strictly decreasing form, using s_i s_j = s_{j+1} s_i (i <= j)."""
    out = ()
    for j in reversed(word):
        out = _push(j, out)
    return out


def _push(j, word):
    if not word or j > word[0]:
        return (j,) + word
    return (word[0] + 1,) + _push(j, word[1:])


class TruncatedSimplicialSet:
    def __init__(self, bound, simplices, faces, degens, basepoint=None):
        self.bound = bound
        self.simplices = {n: tuple(simplices.get(n, ())) for n in range(bound + 1)}
        self.faces = faces        # {(n, i): {name: name}}, 1 <= n <= bound
        self.degens = degens      # {(n, j): {name: name}}, 0 <= n < bound
        self.basepoint = basepoint
        self._index = {n: frozenset(self.simplices[n]) for n in self.simplices}
        self._ez = self._compute_ez()

    @classmethod
    def from_operators(cls, bound, simplices, table, basepoint=None):
        """Build from one callback: `table(n, m, k)` returns the table of
        the operator from degree n to degree m, d_k when m = n - 1 and
        s_k when m = n + 1."""
        faces = {(n, i): table(n, n - 1, i)
                 for n in range(1, bound + 1) for i in range(n + 1)}
        degens = {(n, j): table(n, n + 1, j)
                  for n in range(bound) for j in range(n + 1)}
        return cls(bound, simplices, faces, degens, basepoint)

    # -- basic access -------------------------------------------------

    def degrees(self):
        return range(self.bound + 1)

    def size(self, n):
        return len(self.simplices[n])

    def face(self, n, i, x):
        return self.faces[(n, i)][x]

    def degen(self, n, j, x):
        return self.degens[(n, j)][x]

    def table(self, n, m, k):
        """Table of d_k (m = n - 1) or s_k (m = n + 1) on degree n."""
        return self.faces[(n, k)] if m < n else self.degens[(n, k)]

    def has(self, n, x):
        return n <= self.bound and x in self._index[n]

    def is_pointed(self):
        return self.basepoint is not None

    def with_basepoint(self, v):
        if v not in self._index[0]:
            raise SimplicialError(f"basepoint {v!r} is not a 0-simplex")
        return TruncatedSimplicialSet(self.bound, self.simplices, self.faces,
                                      self.degens, basepoint=v)

    # -- Eilenberg-Zilber data ----------------------------------------

    def _compute_ez(self):
        ez = {0: {x: (x, ()) for x in self.simplices[0]}}
        for n in range(1, self.bound + 1):
            witness = {}
            for j in range(n):
                table = self.degens[(n - 1, j)]
                for y, x in table.items():
                    witness.setdefault(x, (j, y))
            level = {}
            for x in self.simplices[n]:
                if x not in witness:
                    level[x] = (x, ())
                else:
                    j, y = witness[x]
                    base, word = ez[n - 1][y]
                    level[x] = (base, normalize_word((j,) + word))
            ez[n] = level
        return ez

    def ez(self, n, x):
        """Return (base, word): x = s_{w_0} ... s_{w_k} base, word strictly
        decreasing, base nondegenerate of degree n - len(word)."""
        return self._ez[n][x]

    def is_degenerate(self, n, x):
        return bool(self._ez[n][x][1])

    def nondegenerate(self, n):
        return tuple(x for x in self.simplices[n] if not self._ez[n][x][1])

    def apply_word(self, n, x, word):
        """Apply a degeneracy word (outermost first) to a degree-n simplex."""
        for pos, j in enumerate(reversed(word)):
            x = self.degen(n + pos, j, x)
        return x

    # -- audits -------------------------------------------------------

    def audit(self, max_violations=20):
        """Exhaustive check of totality and all simplicial identities.
        Returns a list of violation descriptions (empty = valid)."""
        v = []

        def report(msg):
            if len(v) < max_violations:
                v.append(msg)

        for n in range(1, self.bound + 1):
            for i in range(n + 1):
                table = self.faces.get((n, i))
                if table is None:
                    report(f"missing face table d_{i} at degree {n}")
                    continue
                for x in self.simplices[n]:
                    if x not in table:
                        report(f"d_{i} undefined on {x!r} at degree {n}")
                    elif not self.has(n - 1, table[x]):
                        report(f"d_{i}({x!r}) not a ({n-1})-simplex")
        for n in range(self.bound):
            for j in range(n + 1):
                table = self.degens.get((n, j))
                if table is None:
                    report(f"missing degeneracy table s_{j} at degree {n}")
                    continue
                for x in self.simplices[n]:
                    if x not in table:
                        report(f"s_{j} undefined on {x!r} at degree {n}")
                    elif not self.has(n + 1, table[x]):
                        report(f"s_{j}({x!r}) not a ({n+1})-simplex")
        if v:
            return v

        for n in range(2, self.bound + 1):
            for x in self.simplices[n]:
                for j in range(n + 1):
                    for i in range(j):
                        lhs = self.face(n - 1, i, self.face(n, j, x))
                        rhs = self.face(n - 1, j - 1, self.face(n, i, x))
                        if lhs != rhs:
                            report(f"d_{i} d_{j} != d_{j-1} d_{i} on {x!r} (degree {n})")
        for n in range(self.bound - 1):
            for x in self.simplices[n]:
                for i in range(n + 1):
                    for j in range(i, n + 1):
                        lhs = self.degen(n + 1, j + 1, self.degen(n, i, x))
                        rhs = self.degen(n + 1, i, self.degen(n, j, x))
                        if lhs != rhs:
                            report(f"s_{j+1} s_{i} != s_{i} s_{j} on {x!r} (degree {n})")
        for n in range(self.bound):
            for x in self.simplices[n]:
                for j in range(n + 1):
                    sx = self.degen(n, j, x)
                    for i in range(n + 2):
                        got = self.face(n + 1, i, sx)
                        if i == j or i == j + 1:
                            want = x
                        elif i < j:
                            want = self.degen(n - 1, j - 1, self.face(n, i, x))
                        else:
                            want = self.degen(n - 1, j, self.face(n, i - 1, x))
                        if got != want:
                            report(f"d_{i} s_{j} identity fails on {x!r} (degree {n})")
        if self.basepoint is not None and self.basepoint not in self._index[0]:
            report("basepoint is not a 0-simplex")
        return v

    def audit_or_raise(self):
        v = self.audit()
        if v:
            raise SimplicialError("; ".join(v))

    # -- misc ---------------------------------------------------------

    def degree_sizes(self):
        return tuple(self.size(n) for n in self.degrees())

    def __repr__(self):
        pt = ", pointed" if self.is_pointed() else ""
        return f"TruncatedSimplicialSet(bound={self.bound}, sizes={self.degree_sizes()}{pt})"


class SimplicialMap:
    """Degreewise assignment commuting with faces and degeneracies."""

    def __init__(self, source, target, assign):
        self.source = source
        self.target = target
        self.assign = {n: dict(assign[n]) for n in assign}

    def __call__(self, n, x):
        return self.assign[n][x]

    @classmethod
    def identity(cls, X):
        return cls(X, X, {n: {x: x for x in X.simplices[n]} for n in X.degrees()})

    @classmethod
    def from_nondegenerate(cls, X, Y, partial):
        """Extend an assignment on nondegenerate simplices canonically."""
        assign = {}
        for n in X.degrees():
            level = {}
            for x in X.simplices[n]:
                base, word = X.ez(n, x)
                y = partial[(n - len(word), base)]
                level[x] = Y.apply_word(n - len(word), y, word)
            assign[n] = level
        return cls(X, Y, assign)

    def compose(self, other):
        """self after other."""
        if other.target is not self.source:
            raise SimplicialError("composition endpoint mismatch")
        assign = {n: {x: self.assign[n][y] for x, y in other.assign[n].items()}
                  for n in other.assign}
        return SimplicialMap(other.source, self.target, assign)

    def validate(self, pointed=False, max_violations=20):
        v = []
        X, Y = self.source, self.target
        for n in X.degrees():
            for x in X.simplices[n]:
                y = self.assign[n].get(x)
                if y is None or not Y.has(n, y):
                    v.append(f"no valid image for {x!r} at degree {n}")
        if v:
            return v[:max_violations]
        for n in range(1, X.bound + 1):
            for x in X.simplices[n]:
                for i in range(n + 1):
                    if self.assign[n - 1][X.face(n, i, x)] != Y.face(n, i, self.assign[n][x]):
                        v.append(f"d_{i} not preserved on {x!r} at degree {n}")
        for n in range(X.bound):
            for x in X.simplices[n]:
                for j in range(n + 1):
                    if self.assign[n + 1][X.degen(n, j, x)] != Y.degen(n, j, self.assign[n][x]):
                        v.append(f"s_{j} not preserved on {x!r} at degree {n}")
        if pointed:
            if not (X.is_pointed() and Y.is_pointed()):
                v.append("pointed validation on unpointed object")
            elif self.assign[0][X.basepoint] != Y.basepoint:
                v.append("basepoint not preserved")
        return v[:max_violations]

    def is_pointed(self):
        return (self.source.is_pointed() and self.target.is_pointed()
                and self.assign[0][self.source.basepoint] == self.target.basepoint)

    def __eq__(self, other):
        return (isinstance(other, SimplicialMap)
                and self.assign == other.assign)

    def __hash__(self):
        return hash(tuple(tuple(sorted(self.assign[n].items(), key=lambda kv: sort_key(kv[0])))
                          for n in sorted(self.assign)))


# ---------------------------------------------------------------------
# standard objects
# ---------------------------------------------------------------------

def _monotone_maps(k, n):
    """Nondecreasing maps [k] -> [n] as (k+1)-tuples."""
    return [t for t in itertools.combinations_with_replacement(range(n + 1), k + 1)]


def _tuple_face(t, i):
    return t[:i] + t[i + 1:]


def _tuple_degen(t, j):
    return t[:j + 1] + t[j:]


def _from_tuples(bound, level_sets):
    """Build a simplicial set whose degree-n simplices are vertex tuples."""
    simplices = {n: tuple(sorted(level_sets[n])) for n in range(bound + 1)}

    def table(n, m, k):
        op = _tuple_face if m < n else _tuple_degen
        return {t: op(t, k) for t in simplices[n]}
    return TruncatedSimplicialSet.from_operators(bound, simplices, table)


def truncate(X, bound):
    """Restriction to a smaller dimension bound."""
    if bound > X.bound:
        raise BoundMismatch(f"cannot extend bound {X.bound} to {bound}")
    simplices = {n: X.simplices[n] for n in range(bound + 1)}
    return TruncatedSimplicialSet.from_operators(bound, simplices, X.table,
                                                 basepoint=X.basepoint)


def delta(n, bound):
    """Standard n-simplex truncated at `bound`."""
    return _from_tuples(bound, {k: _monotone_maps(k, n) for k in range(bound + 1)})


def boundary(n, bound):
    """Boundary of the n-simplex: non-surjective vertex tuples."""
    full = set(range(n + 1))
    return _from_tuples(bound, {
        k: [t for t in _monotone_maps(k, n) if set(t) != full]
        for k in range(bound + 1)})


def horn(n, i, bound):
    """i-th horn of the n-simplex: tuples missing some vertex other than i."""
    if not 0 <= i <= n:
        raise SimplicialError(f"horn index {i} out of range for n={n}")
    full = set(range(n + 1))
    return _from_tuples(bound, {
        k: [t for t in _monotone_maps(k, n) if set(t) | {i} != full]
        for k in range(bound + 1)})


def point(bound):
    return delta(0, bound)


def two_point(bound):
    """S^0: two disjoint points, pointed at the first."""
    X, _ = coproduct([point(bound), point(bound)])
    return X.with_basepoint(least(X.simplices[0]))


def sphere(n, bound):
    """Delta^n / boundary, pointed at its unique vertex."""
    B, D, P = boundary(n, bound), delta(n, bound), point(bound)
    incl = SimplicialMap(B, D, {k: {t: t for t in B.simplices[k]} for k in B.degrees()})
    collapse = SimplicialMap(B, P, {k: {t: (0,) * (k + 1) for t in B.simplices[k]}
                                    for k in B.degrees()})
    S, cocone = colimit_sset([B, D, P], [(0, 1, incl), (0, 2, collapse)])
    return S.with_basepoint(cocone[2](0, (0,)))


# ---------------------------------------------------------------------
# colimits, products, subcomplexes
# ---------------------------------------------------------------------

def coproduct(objects):
    """Disjoint union with tagged names; returns (X, injections)."""
    bounds = {X.bound for X in objects}
    if len(bounds) != 1:
        raise BoundMismatch(f"mixed bounds {sorted(bounds)}")
    bound = bounds.pop()
    simplices = {n: tuple((i, x) for i, X in enumerate(objects) for x in X.simplices[n])
                 for n in range(bound + 1)}

    def table(n, m, k):
        tables = [X.table(n, m, k) for X in objects]
        return {(t, x): (t, tables[t][x])
                for t, X in enumerate(objects) for x in X.simplices[n]}
    total = TruncatedSimplicialSet.from_operators(bound, simplices, table)
    injections = [SimplicialMap(X, total, {n: {x: (i, x) for x in X.simplices[n]}
                                           for n in X.degrees()})
                  for i, X in enumerate(objects)]
    return total, injections


def quotient(X, pairs):
    """Quotient by the congruence generated by `pairs` (list of
    (degree, a, b)).  Closure propagates identifications along all faces
    and degeneracies; representatives are least class members."""
    parent = {}

    def find(k):
        root = k
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(k, k) != k:
            parent[k], k = root, parent[k]
        return root

    work = [((n, a), (n, b)) for n, a, b in pairs]
    while work:
        ka, kb = work.pop()
        ra, rb = find(ka), find(kb)
        if ra == rb:
            continue
        if sort_key(rb[1]) < sort_key(ra[1]):
            ra, rb = rb, ra
        parent[rb] = ra
        (n, a), (_, b) = ka, kb
        for i in range(n + 1) if n >= 1 else ():
            work.append(((n - 1, X.face(n, i, a)), (n - 1, X.face(n, i, b))))
        if n < X.bound:
            for j in range(n + 1):
                work.append(((n + 1, X.degen(n, j, a)), (n + 1, X.degen(n, j, b))))

    classes = {n: {} for n in X.degrees()}
    for n in X.degrees():
        for x in X.simplices[n]:
            classes[n].setdefault(find((n, x)), []).append(x)
    rep = {n: {root: least(members) for root, members in classes[n].items()}
           for n in X.degrees()}
    proj = {n: {x: rep[n][find((n, x))] for x in X.simplices[n]} for n in X.degrees()}

    simplices = {n: tuple(sorted(set(proj[n].values()), key=sort_key)) for n in X.degrees()}

    def table(n, m, k):
        t = X.table(n, m, k)
        return {proj[n][x]: proj[m][t[x]] for x in X.simplices[n]}
    bp = proj[0][X.basepoint] if X.is_pointed() else None
    Q = TruncatedSimplicialSet.from_operators(X.bound, simplices, table,
                                              basepoint=bp)
    return Q, SimplicialMap(X, Q, proj)


def colimit_sset(objects, edges):
    """Colimit of a finite diagram.  `edges` is a list of
    (source_index, target_index, map) triples.  Returns the colimit and
    the cocone maps, one per diagram object."""
    total, injections = coproduct(objects)
    pairs = []
    for src, tgt, f in edges:
        if f.source is not objects[src] or f.target is not objects[tgt]:
            raise SimplicialError("diagram edge endpoints not in object list")
        for n in f.source.degrees():
            for x in f.source.simplices[n]:
                pairs.append((n, (src, x), (tgt, f(n, x))))
    colim, proj = quotient(total, pairs)
    return colim, [proj.compose(inj) for inj in injections]


def product_sset(X, Y):
    """Degreewise cartesian product with componentwise structure maps."""
    if X.bound != Y.bound:
        raise BoundMismatch(f"{X.bound} != {Y.bound}")
    bound = X.bound
    simplices = {n: tuple((x, y) for x in X.simplices[n] for y in Y.simplices[n])
                 for n in range(bound + 1)}

    def table(n, m, k):
        tx, ty = X.table(n, m, k), Y.table(n, m, k)
        return {(x, y): (tx[x], ty[y]) for x, y in simplices[n]}
    bp = (X.basepoint, Y.basepoint) if X.is_pointed() and Y.is_pointed() else None
    return TruncatedSimplicialSet.from_operators(bound, simplices, table,
                                                 basepoint=bp)


def generated_subcomplex(X, generators):
    """Smallest subcomplex of X containing `generators` (list of
    (degree, simplex)), closed under faces and degeneracies up to the bound."""
    keep = {n: set() for n in X.degrees()}
    work = list(generators)
    while work:
        n, x = work.pop()
        if x in keep[n]:
            continue
        keep[n].add(x)
        if n >= 1:
            for i in range(n + 1):
                work.append((n - 1, X.face(n, i, x)))
        if n < X.bound:
            for j in range(n + 1):
                work.append((n + 1, X.degen(n, j, x)))
    simplices = {n: tuple(sorted(keep[n], key=sort_key)) for n in X.degrees()}

    def table(n, m, k):
        t = X.table(n, m, k)
        return {x: t[x] for x in simplices[n]}
    bp = X.basepoint if X.is_pointed() and X.basepoint in keep[0] else None
    return TruncatedSimplicialSet.from_operators(X.bound, simplices, table,
                                                 basepoint=bp)


def c_sigma(n, sigma, bound=None):
    """Subcomplex of the boundary of the n-simplex generated by the
    codimension-1 faces containing `sigma` (a vertex tuple)."""
    bound = n if bound is None else bound
    full = set(range(n + 1))
    if set(sigma) == full:
        raise SimplicialError(f"{sigma!r} is not a simplex of the boundary")
    B = boundary(n, bound)
    missing = [i for i in range(n + 1) if i not in set(sigma)]
    gens = [(n - 1, tuple(v for v in range(n + 1) if v != i)) for i in missing]
    if bound < n - 1:
        raise SimplicialError("bound too small to hold the generating faces")
    return generated_subcomplex(B, gens)


# ---------------------------------------------------------------------
# map enumeration
# ---------------------------------------------------------------------

def enumerate_maps(X, Y, pointed=False, limit=None, fixed=None):
    """All simplicial maps X -> Y, by backtracking over the nondegenerate
    simplices of X in degree order.  With `pointed`, only basepoint
    preserving maps are returned.  `fixed` pins images of selected
    nondegenerate cells, keyed by (degree, simplex)."""
    if Y.bound < X.bound:
        raise BoundMismatch(f"target bound {Y.bound} < source bound {X.bound}")
    fixed = fixed or {}
    cells = [(n, x) for n in X.degrees() for x in X.nondegenerate(n)]
    cells.sort(key=lambda c: (c[0], sort_key(c[1])))

    def image_of(partial, n, x):
        base, word = X.ez(n, x)
        return Y.apply_word(n - len(word), partial[(n - len(word), base)], word)

    results = []
    partial = {}

    def extend(k):
        if limit is not None and len(results) >= limit:
            return
        if k == len(cells):
            results.append(SimplicialMap.from_nondegenerate(X, Y, dict(partial)))
            return
        n, x = cells[k]
        if (n, x) in fixed:
            candidates = [fixed[(n, x)]]
        elif pointed and n == 0 and x == X.basepoint:
            candidates = [Y.basepoint]
        else:
            candidates = Y.simplices[n]
        for y in candidates:
            ok = True
            for i in range(n + 1) if n >= 1 else ():
                fx = X.face(n, i, x)
                if image_of(partial, n - 1, fx) != Y.face(n, i, y):
                    ok = False
                    break
            if ok:
                partial[(n, x)] = y
                extend(k + 1)
                del partial[(n, x)]

    extend(0)
    return results
