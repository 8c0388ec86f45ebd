"""Truncated bisimplicial sets and the four comparison functors.

Data lives over a downward-closed finite set of bidegrees.  Horizontal
operators move the first index, vertical operators the second, and the
two kinds commute (audited exhaustively).

The left adjoint of the diagonal is computed by a confluent normal form
on coend generators rather than a global union-find pass: every class
of (simplex, pair of operators) has a unique representative whose
simplex is nondegenerate and whose operator pair is jointly surjective.
The small-scale union-find quotient is kept in the test suite as an
independent oracle for this normalization.
"""

from __future__ import annotations

import itertools

from .sset import (MAX_VIOLATIONS, SimplicialError, SimplicialMap,
                   TruncatedSimplicialSet, _monotone_maps, _tuple_degen,
                   _tuple_face)


class BidegreeShape:
    def __init__(self, support):
        self.support = frozenset(support)
        if not self.support:
            raise SimplicialError("empty bidegree support")
        for (p, q) in self.support:
            if p > 0 and (p - 1, q) not in self.support:
                raise SimplicialError(f"support not downward closed at {(p, q)}")
            if q > 0 and (p, q - 1) not in self.support:
                raise SimplicialError(f"support not downward closed at {(p, q)}")
        # row q is p = 0..row_top[q], column p is q = 0..column_top[p]
        self.row_top, self.column_top = {}, {}
        for (p, q) in self.support:
            self.row_top[q] = max(self.row_top.get(q, 0), p)
            self.column_top[p] = max(self.column_top.get(p, 0), q)

    def __contains__(self, pq):
        return pq in self.support

    def sorted(self):
        return sorted(self.support)

    @classmethod
    def rectangle(cls, pmax, qmax):
        return cls({(p, q) for p in range(pmax + 1) for q in range(qmax + 1)})

    @classmethod
    def staircase(cls, total):
        """All (p, q) with p + q <= total."""
        return cls({(p, q) for p in range(total + 1) for q in range(total + 1 - p)})


class TruncatedBisimplicialSet:
    """Cells per bidegree, with horizontal and vertical operator tables.

    Invariant: each bidegree's cells are stored in strictly increasing
    canonical name order (:mod:`simpcat.names`).  Every constructor
    builds them from ordered simplicial sets by lexicographic extension
    or reindexing, which keeps that order."""

    def __init__(self, shape, simplices, hfaces, hdegens, vfaces, vdegens,
                 basepoint=None):
        self.shape = shape
        self.simplices = {pq: tuple(simplices.get(pq, ())) for pq in shape.support}
        self.hfaces = hfaces      # {(p, q, i): {x: y}} to (p-1, q)
        self.hdegens = hdegens    # {(p, q, j): {x: y}} to (p+1, q)
        self.vfaces = vfaces      # {(p, q, j): {x: y}} to (p, q-1)
        self.vdegens = vdegens    # {(p, q, j): {x: y}} to (p, q+1)
        self.basepoint = basepoint
        self._index = {pq: frozenset(self.simplices[pq]) for pq in self.simplices}

    @classmethod
    def from_operators(cls, shape, simplices, htable, vtable, basepoint=None):
        """Build from two callbacks: `htable(p, q, m, k)` returns the
        table of the horizontal operator from (p, q) to (m, q), d_k when
        m = p - 1 and s_k when m = p + 1; `vtable(p, q, m, k)` likewise
        to (p, m).  A degeneracy table exists exactly where its target
        bidegree is in the shape."""
        hfaces, hdegens, vfaces, vdegens = {}, {}, {}, {}
        for (p, q) in shape.support:
            for i in range(p + 1) if p >= 1 else ():
                hfaces[(p, q, i)] = htable(p, q, p - 1, i)
            if (p + 1, q) in shape:
                for j in range(p + 1):
                    hdegens[(p, q, j)] = htable(p, q, p + 1, j)
            for j in range(q + 1) if q >= 1 else ():
                vfaces[(p, q, j)] = vtable(p, q, q - 1, j)
            if (p, q + 1) in shape:
                for j in range(q + 1):
                    vdegens[(p, q, j)] = vtable(p, q, q + 1, j)
        return cls(shape, simplices, hfaces, hdegens, vfaces, vdegens,
                   basepoint)

    def hface(self, p, q, i, x):
        return self.hfaces[(p, q, i)][x]

    def hdegen(self, p, q, j, x):
        return self.hdegens[(p, q, j)][x]

    def vface(self, p, q, j, x):
        return self.vfaces[(p, q, j)][x]

    def vdegen(self, p, q, j, x):
        return self.vdegens[(p, q, j)][x]

    def htable(self, p, q, m, k):
        """Table of the horizontal d_k (m = p - 1) or s_k (m = p + 1), or
        None when it is missing."""
        return (self.hfaces if m < p else self.hdegens).get((p, q, k))

    def vtable(self, p, q, m, k):
        """Table of the vertical d_k (m = q - 1) or s_k (m = q + 1), or
        None when it is missing."""
        return (self.vfaces if m < q else self.vdegens).get((p, q, k))

    def size(self, p, q):
        return len(self.simplices[(p, q)])

    def is_pointed(self):
        return self.basepoint is not None

    def row(self, q):
        """Horizontal simplicial set p -> B_{p,q}."""
        if q not in self.shape.row_top:
            raise SimplicialError(f"no bidegrees with vertical index {q}")
        bound = self.shape.row_top[q]
        simplices = {p: self.simplices[(p, q)] for p in range(bound + 1)}
        return TruncatedSimplicialSet.from_names(
            bound, simplices, lambda p, m, k: self.htable(p, q, m, k))

    def _row(self, q):
        """Cells and horizontal tables of row q, as checker callbacks."""
        return (lambda p: self.simplices[(p, q)],
                lambda p, m, k: self.htable(p, q, m, k))

    def _column(self, p):
        """Cells and vertical tables of column p, as checker callbacks."""
        return (lambda q: self.simplices[(p, q)],
                lambda q, m, k: self.vtable(p, q, m, k))

    def audit(self):
        """Rows and columns are simplicial sets, and each horizontal
        operator is a map of simplicial sets from column p to column m."""
        rows, columns = self.shape.row_top, self.shape.column_top
        v = []
        for q, top in sorted(rows.items()):
            v += _prefixed(f"row {q}: ", TruncatedSimplicialSet.identity_failures(
                top, *self._row(q)))
        for p, top in sorted(columns.items()):
            v += _prefixed(f"column {p}: ", TruncatedSimplicialSet.identity_failures(
                top, *self._column(p)))
        if not v:
            for p, top in sorted(columns.items()):
                for m in (p - 1, p + 1):
                    for k in range(p + 1) if m in columns else ():
                        op = f"d_{k}" if m < p else f"s_{k}"
                        v += _prefixed(
                            f"horizontal {op} from column {p}: ",
                            SimplicialMap.commutation_failures(
                                min(top, columns[m]), *self._column(p),
                                *self._column(m),
                                lambda q: self.htable(p, q, m, k)))
        if self.basepoint is not None and self.basepoint not in self._index[(0, 0)]:
            v.append("basepoint is not a (0,0)-simplex")
        return v[:MAX_VIOLATIONS]

    def __repr__(self):
        return (f"TruncatedBisimplicialSet({len(self.shape.support)} bidegrees, "
                f"total {sum(len(s) for s in self.simplices.values())} simplices)")


class BisimplicialMap:
    def __init__(self, source, target, assign):
        self.source = source
        self.target = target
        self.assign = {pq: dict(assign[pq]) for pq in assign}

    def __call__(self, p, q, x):
        return self.assign[(p, q)][x]

    def validate(self):
        """Each row and each column of the assignment is a map of
        simplicial sets, on the bidegrees both shapes share."""
        B, C = self.source, self.target
        v = []
        for q, top in sorted(B.shape.row_top.items()):
            if q in C.shape.row_top:
                v += _prefixed(f"row {q}: ", SimplicialMap.commutation_failures(
                    min(top, C.shape.row_top[q]), *B._row(q), *C._row(q),
                    lambda p: self.assign.get((p, q))))
        for p, top in sorted(B.shape.column_top.items()):
            if p in C.shape.column_top:
                v += _prefixed(f"column {p}: ", SimplicialMap.commutation_failures(
                    min(top, C.shape.column_top[p]), *B._column(p), *C._column(p),
                    lambda q: self.assign.get((p, q))))
        return v[:MAX_VIOLATIONS]


def _prefixed(prefix, failures):
    """The first `MAX_VIOLATIONS` failure messages, each after `prefix`."""
    return [prefix + msg for msg in itertools.islice(failures, MAX_VIOLATIONS)]


# ---------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------

def box_product(X, Y):
    """External product: (X box Y)_{p,q} = X_p x Y_q on the full rectangle."""
    shape = BidegreeShape.rectangle(X.bound, Y.bound)
    simplices = {(p, q): tuple((x, y) for x in X.simplices[p] for y in Y.simplices[q])
                 for (p, q) in shape.support}

    def htable(p, q, m, k):
        t = X.table(p, m, k)
        return {(x, y): (t[x], y) for x, y in simplices[(p, q)]}

    def vtable(p, q, m, k):
        t = Y.table(q, m, k)
        return {(x, y): (x, t[y]) for x, y in simplices[(p, q)]}
    bp = (X.basepoint, Y.basepoint) if X.is_pointed() and Y.is_pointed() else None
    return TruncatedBisimplicialSet.from_operators(shape, simplices, htable,
                                                   vtable, basepoint=bp)


def diag(B):
    """Diagonal simplicial set: degree n is the bidegree (n, n) data."""
    ns = [p for (p, q) in B.shape.support if p == q]
    if not ns:
        raise SimplicialError("shape has empty diagonal")
    bound = max(ns)
    simplices = {n: B.simplices[(n, n)] for n in range(bound + 1)}

    def table(n, m, k):
        v, h = B.vtable(n, n, m, k), B.htable(n, m, m, k)
        return {x: h[v[x]] for x in simplices[n]}
    return TruncatedSimplicialSet.from_names(bound, simplices, table,
                                                 basepoint=B.basepoint)


def dec(Y):
    """Illusie decalage: Dec(Y)_{p,q} = Y_{p+q+1}, horizontal operators are
    the front ones, vertical operators the back ones."""
    if Y.bound < 1:
        raise SimplicialError("decalage needs bound >= 1")
    shape = BidegreeShape.staircase(Y.bound - 1)
    simplices = {(p, q): Y.simplices[p + q + 1] for (p, q) in shape.support}

    def named(n, m, k):
        return dict(zip(Y.simplices[n],
                        map(Y.simplices[m].__getitem__, Y.positions(n, m, k))))
    bp = None
    if Y.is_pointed():
        bp = Y.simplices[1][Y.positions(0, 1, 0)[Y.simplices[0].index(Y.basepoint)]]
    return TruncatedBisimplicialSet.from_operators(
        shape, simplices,
        lambda p, q, m, k: named(p + q + 1, m + q + 1, k),
        lambda p, q, m, k: named(p + q + 1, p + m + 1, p + 1 + k),
        basepoint=bp)


# ---------------------------------------------------------------------
# left adjoint of the diagonal
# ---------------------------------------------------------------------

def _codegen_compose(t, j):
    """Postcompose a vertex tuple with the codegeneracy [n] -> [n-1]
    collapsing j, j+1."""
    return tuple(v if v <= j else v - 1 for v in t)


def dstar_normalize(X, n, x, alpha, beta):
    """Canonical representative of the coend class of (x, alpha, beta):
    shrink to the joint image, strip degeneracies of x, repeat."""
    while True:
        img = sorted(set(alpha) | set(beta))
        if len(img) != n + 1:
            pos = {v: k for k, v in enumerate(img)}
            missing = [i for i in range(n + 1) if i not in pos]
            for i in reversed(missing):
                x = X.face(n, i, x)
                n -= 1
            alpha = tuple(pos[v] for v in alpha)
            beta = tuple(pos[v] for v in beta)
            continue
        base, word = X.ez(n, x)
        if word:
            j = word[0]
            x = X.face(n, j, x)
            n -= 1
            alpha = _codegen_compose(alpha, j)
            beta = _codegen_compose(beta, j)
            continue
        return (n, x, alpha, beta)


def d_star(X):
    """Left adjoint of diag, on the staircase where bound-D data
    determines it: cells at (p, q) are (n, x, alpha, beta) with x a
    nondegenerate n-simplex and alpha: [p] -> [n], beta: [q] -> [n]
    jointly surjective."""
    if X.bound < 0:
        raise SimplicialError("invalid bound")
    shape = BidegreeShape.staircase(X.bound - 1) if X.bound >= 1 \
        else BidegreeShape.rectangle(0, 0)
    simplices = {}
    for (p, q) in shape.support:
        cells = []
        for n in range(min(X.bound, p + q + 1) + 1):
            for x in X.nondegenerate(n):
                for alpha in _monotone_maps(p, n):
                    aset = set(alpha)
                    if len(aset) + q + 1 < n + 1:
                        continue
                    for beta in _monotone_maps(q, n):
                        if aset | set(beta) == set(range(n + 1)):
                            cells.append((n, x, alpha, beta))
        simplices[(p, q)] = tuple(cells)

    def htable(p, q, m, k):
        cells = simplices[(p, q)]
        if m < p:
            return {c: dstar_normalize(X, c[0], c[1], _tuple_face(c[2], k), c[3])
                    for c in cells}
        return {c: (c[0], c[1], _tuple_degen(c[2], k), c[3]) for c in cells}

    def vtable(p, q, m, k):
        cells = simplices[(p, q)]
        if m < q:
            return {c: dstar_normalize(X, c[0], c[1], c[2], _tuple_face(c[3], k))
                    for c in cells}
        return {c: (c[0], c[1], c[2], _tuple_degen(c[3], k)) for c in cells}
    bp = None
    if X.is_pointed():
        bp = (0, X.basepoint, (0,), (0,))
    return TruncatedBisimplicialSet.from_operators(shape, simplices, htable,
                                                   vtable, basepoint=bp)


def d_star_map(f):
    """Functoriality of d_star on simplicial maps."""
    B, C = d_star(f.source), d_star(f.target)
    Y = f.target
    assign = {}
    for (p, q) in B.shape.support:
        level = {}
        for (n, x, alpha, beta) in B.simplices[(p, q)]:
            level[(n, x, alpha, beta)] = dstar_normalize(Y, n, f(n, x), alpha, beta)
        assign[(p, q)] = level
    return BisimplicialMap(B, C, assign)


# ---------------------------------------------------------------------
# codiagonal
# ---------------------------------------------------------------------

def wbar(B):
    """Right adjoint of the decalage.  Degree-n simplices are tuples
    (x_0, ..., x_n) with x_p at bidegree (p, n-p), matched by
    dv_0 x_p = dh_{p+1} x_{p+1}."""
    bound = -1
    while all((p, bound + 1 - p) in B.shape for p in range(bound + 2)):
        bound += 1
    if bound < 0:
        raise SimplicialError("shape does not contain the (0,0) antidiagonal")

    simplices = {}
    for n in range(bound + 1):
        tuples = [(x,) for x in B.simplices[(0, n)]]
        for p in range(1, n + 1):
            by_hface = {}
            for y in B.simplices[(p, n - p)]:
                by_hface.setdefault(B.hface(p, n - p, p, y), []).append(y)
            tuples = [t + (y,)
                      for t in tuples
                      for y in by_hface.get(B.vface(p - 1, n - p + 1, 0, t[-1]), [])]
        simplices[n] = tuple(tuples)
    index = {n: frozenset(simplices[n]) for n in simplices}

    def face(n, i, t):
        out = []
        for p in range(n):
            if p < i:
                out.append(B.vface(p, n - p, i - p, t[p]))
            else:
                out.append(B.hface(p + 1, n - p - 1, i, t[p + 1]))
        cell = tuple(out)
        if cell not in index[n - 1]:
            raise SimplicialError(f"codiagonal face left the matching set at degree {n}")
        return cell

    def degen(n, j, t):
        out = []
        for p in range(n + 2):
            if p <= j:
                out.append(B.vdegen(p, n - p, j - p, t[p]))
            else:
                out.append(B.hdegen(p - 1, n - p + 1, j, t[p - 1]))
        cell = tuple(out)
        if cell not in index[n + 1]:
            raise SimplicialError(f"codiagonal degeneracy left the matching set at degree {n}")
        return cell

    def table(n, m, k):
        op = face if m < n else degen
        return {t: op(n, k, t) for t in simplices[n]}
    bp = (B.basepoint,) if B.is_pointed() else None
    return TruncatedSimplicialSet.from_names(bound, simplices, table,
                                                 basepoint=bp)
