"""Truncated bisimplicial sets and the four comparison functors.

Data lives over a downward-closed finite set of bidegrees.  Horizontal
operators move the first index, vertical operators the second, and the
two kinds commute (audited exhaustively).  The rows and columns are
simplicial sets on shared cells, and every construction here builds or
reads their position lists.

The left adjoint of the diagonal is computed by a confluent normal form
on coend generators rather than a global union-find pass: every class
of (simplex, pair of operators) has a unique representative whose
simplex is nondegenerate and whose operator pair is jointly surjective.
The small-scale union-find quotient is kept in the test suite as an
independent oracle for this normalization.
"""

from __future__ import annotations

import itertools
import weakref

from .sset import (MAX_VIOLATIONS, SimplicialError, SimplicialMap,
                   TruncatedSimplicialSet, _monotone_maps, _operator_keys,
                   _tuple_degen)


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
    """`rows[q]` is the simplicial set p -> B_{p,q} with the horizontal
    operators, `columns[p]` is q -> B_{p,q} with the vertical ones; both
    hold the tuple `simplices[(p, q)]` of cells at (p, q).

    Invariant: each bidegree's cells are stored in strictly increasing
    canonical name order (:mod:`simpcat.names`).  Every constructor
    builds them from ordered simplicial sets by lexicographic extension
    or reindexing, which keeps that order."""

    def __init__(self, shape, rows, columns, basepoint=None):
        self.shape = shape
        self.rows = rows
        self.columns = columns
        self.simplices = {(p, q): rows[q].simplices[p] for (p, q) in shape.support}
        self.basepoint = basepoint

    @classmethod
    def from_operators(cls, shape, simplices, horizontal, vertical, basepoint=None):
        """Build from two callbacks that return position lists:
        `horizontal(p, q, m, k)` the horizontal operator from (p, q) to
        (m, q), d_k when m = p - 1 and s_k when m = p + 1;
        `vertical(p, q, m, k)` likewise to (p, m).  A degeneracy table
        exists exactly where its target bidegree is in the shape."""
        rows = {q: TruncatedSimplicialSet.from_operators(
                    top, {p: simplices[(p, q)] for p in range(top + 1)},
                    lambda p, m, k, q=q: horizontal(p, q, m, k))
                for q, top in shape.row_top.items()}
        columns = {p: TruncatedSimplicialSet.from_operators(
                       top, {q: rows[q].simplices[p] for q in range(top + 1)},
                       lambda q, m, k, p=p: vertical(p, q, m, k))
                   for p, top in shape.column_top.items()}
        return cls(shape, rows, columns, basepoint)

    # the names view {(p, q, k): {x: y}}, read off the rows' and columns' own
    hfaces = property(lambda self: _joined(self.rows, "faces", True))
    hdegens = property(lambda self: _joined(self.rows, "degens", True))
    vfaces = property(lambda self: _joined(self.columns, "faces", False))
    vdegens = property(lambda self: _joined(self.columns, "degens", False))

    def is_pointed(self):
        return self.basepoint is not None

    def row(self, q):
        """Horizontal simplicial set p -> B_{p,q}."""
        if q not in self.rows:
            raise SimplicialError(f"no bidegrees with vertical index {q}")
        return self.rows[q]

    def _row(self, q):
        """Cells and horizontal tables of row q, as checker callbacks."""
        return self.rows[q].simplices.__getitem__, self.rows[q].table

    def _column(self, p):
        """Cells and vertical tables of column p, as checker callbacks."""
        return self.columns[p].simplices.__getitem__, self.columns[p].table

    def audit(self):
        """Rows and columns are simplicial sets, and each horizontal
        operator is a map of simplicial sets from column p to column m."""
        v = []
        for q, row in sorted(self.rows.items()):
            v += [f"row {q}: {msg}" for msg in row.audit()]
        for p, column in sorted(self.columns.items()):
            v += [f"column {p}: {msg}" for msg in column.audit()]
        if not v:
            for p in sorted(self.columns):
                for m in (p - 1, p + 1):
                    for k in range(p + 1) if m in self.columns else ():
                        op = f"d_{k}" if m < p else f"s_{k}"
                        v += _prefixed(f"horizontal {op} from column {p}: ",
                                       self._commutation_failures(p, m, k))
        if self.basepoint is not None and not self.rows[0].has(0, self.basepoint):
            v.append("basepoint is not a (0,0)-simplex")
        return v[:MAX_VIOLATIONS]

    def _commutation_failures(self, p, m, k):
        """Each vertical operator, and each column-p cell, on which the
        horizontal d_k (m = p - 1) or s_k (m = p + 1) from column p to
        column m does not commute with it, compared as composed lists."""
        source, target = self.columns[p], self.columns[m]
        h = [self.rows[q].positions(p, m, k)
             for q in range(min(source.bound, target.bound) + 1)]
        for q, q2, j in _operator_keys(len(h) - 1):
            left = list(map(h[q2].__getitem__, source.positions(q, q2, j)))
            right = list(map(target.positions(q, q2, j).__getitem__, h[q]))
            if left != right:
                op = "d" if q2 < q else "s"
                yield from (f"{op}_{j} not preserved on {x!r} at degree {q}"
                            for x, a, b in zip(source.simplices[q], left, right)
                            if a != b)

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


def _joined(lines, part, horizontal):
    """The names view `part` ("faces" or "degens") of each row or column
    in `lines`, keyed by (p, q, k)."""
    return {(n, i, k) if horizontal else (i, n, k): t
            for i, X in lines.items() for (n, k), t in getattr(X, part).items()}


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

    # (x, y) at (p, q) sits at position x * Y.size(q) + y
    def horizontal(p, q, m, k):
        width = Y.size(q)
        return [a * width + b for a in X.positions(p, m, k) for b in range(width)]

    def vertical(p, q, m, k):
        t, width = Y.positions(q, m, k), Y.size(m)
        return [a * width + b for a in range(X.size(p)) for b in t]
    bp = (X.basepoint, Y.basepoint) if X.is_pointed() and Y.is_pointed() else None
    return TruncatedBisimplicialSet.from_operators(shape, simplices, horizontal,
                                                   vertical, basepoint=bp)


def diag(B):
    """Diagonal simplicial set: degree n is the bidegree (n, n) data."""
    ns = [p for (p, q) in B.shape.support if p == q]
    if not ns:
        raise SimplicialError("shape has empty diagonal")
    bound = max(ns)

    def table(n, m, k):
        v, h = B.columns[n].positions(n, m, k), B.rows[m].positions(n, m, k)
        return list(map(h.__getitem__, v))
    return TruncatedSimplicialSet.from_operators(
        bound, {n: B.simplices[(n, n)] for n in range(bound + 1)}, table,
        basepoint=B.basepoint)


def dec(Y):
    """Illusie decalage: Dec(Y)_{p,q} = Y_{p+q+1}, horizontal operators are
    the front ones, vertical operators the back ones."""
    if Y.bound < 1:
        raise SimplicialError("decalage needs bound >= 1")
    shape = BidegreeShape.staircase(Y.bound - 1)
    simplices = {(p, q): Y.simplices[p + q + 1] for (p, q) in shape.support}
    bp = None
    if Y.is_pointed():
        bp = Y.simplices[1][Y.positions(0, 1, 0)[Y.simplices[0].index(Y.basepoint)]]
    return TruncatedBisimplicialSet.from_operators(
        shape, simplices,
        lambda p, q, m, k: Y.positions(p + q + 1, m + q + 1, k),
        lambda p, q, m, k: Y.positions(p + q + 1, p + m + 1, p + 1 + k),
        basepoint=bp)


# ---------------------------------------------------------------------
# left adjoint of the diagonal
# ---------------------------------------------------------------------

def _last_degeneracies(X):
    """{n: list}: for each degree-n position, the largest j whose s_j has
    that cell in its image (the first letter of its Eilenberg-Zilber
    word), or -1 for a nondegenerate cell."""
    last = {n: [-1] * X.size(n) for n in X.degrees()}
    for n in range(1, X.bound + 1):
        for j in range(n):
            for q in X.positions(n - 1, n, j):
                last[n][q] = j
    return last


def dstar_normalize(X, last, n, x, alpha, beta):
    """Canonical representative of the coend class of (x, alpha, beta),
    x a position in degree n of X and `last` its
    `_last_degeneracies`: shrink to the joint image, strip degeneracies
    of x, repeat."""
    while True:
        img = set(alpha) | set(beta)
        if len(img) != n + 1:
            pos = {v: k for k, v in enumerate(sorted(img))}
            for i in reversed(range(n + 1)):
                if i not in img:
                    x = X.positions(n, n - 1, i)[x]
                    n -= 1
            alpha = tuple(pos[v] for v in alpha)
            beta = tuple(pos[v] for v in beta)
            continue
        j = last[n][x]
        if j >= 0:
            x = X.positions(n, n - 1, j)[x]
            n -= 1
            # postcompose with the codegeneracy [n] -> [n-1] collapsing j, j+1
            alpha = tuple(v - (v > j) for v in alpha)
            beta = tuple(v - (v > j) for v in beta)
            continue
        return (n, x, alpha, beta)


def d_star(X):
    """Left adjoint of diag, on the staircase where bound-D data
    determines it: cells at (p, q) are (n, x, alpha, beta) with x a
    nondegenerate n-simplex and alpha: [p] -> [n], beta: [q] -> [n]
    jointly surjective.  Built once per set."""
    return _d_star(X)[0]


_D_STARS = weakref.WeakKeyDictionary()


def _d_star(X):
    """`_build_d_star(X)`, built on the first call for X and kept in
    `_D_STARS` only as long as X lives."""
    if X not in _D_STARS:
        _D_STARS[X] = _build_d_star(X)
    return _D_STARS[X]


def _build_d_star(X):
    """d_star(X), per bidegree its cells with x given by its position
    in X, and `_last_degeneracies(X)`."""
    if X.bound < 0:
        raise SimplicialError("invalid bound")
    shape = BidegreeShape.staircase(X.bound - 1) if X.bound >= 1 \
        else BidegreeShape.rectangle(0, 0)
    cells = {}
    degrees = [n for n in X.degrees() if X.nondegenerate_positions(n)]
    for (p, q) in shape.support:
        level = cells[(p, q)] = []
        for n in [n for n in degrees if n <= p + q + 1]:
            onto = [(a, b) for a in _monotone_maps(p, n) if len(set(a)) + q >= n
                    for b in _monotone_maps(q, n) if len(set(a) | set(b)) == n + 1]
            level += [(n, x, a, b) for x in X.nondegenerate_positions(n) for a, b in onto]
    index = {pq: {c: i for i, c in enumerate(level)} for pq, level in cells.items()}
    last = _last_degeneracies(X)

    def faces(at, triples):
        # the positions in `at` of faces not yet normalized; a face that
        # is still a representative is found there as it is
        return [at[c if c in at else dstar_normalize(X, last, *c)] for c in triples]

    def horizontal(p, q, m, k):
        if m < p:
            return faces(index[(m, q)], [(n, x, a[:k] + a[k + 1:], b)
                                         for n, x, a, b in cells[(p, q)]])
        return [index[(m, q)][n, x, _tuple_degen(a, k), b] for n, x, a, b in cells[(p, q)]]

    def vertical(p, q, m, k):
        if m < q:
            return faces(index[(p, m)], [(n, x, a, b[:k] + b[k + 1:])
                                         for n, x, a, b in cells[(p, q)]])
        return [index[(p, m)][n, x, a, _tuple_degen(b, k)] for n, x, a, b in cells[(p, q)]]
    simplices = {pq: tuple([(n, X.simplices[n][x], a, b) for n, x, a, b in level])
                 for pq, level in cells.items()}
    bp = (0, X.basepoint, (0,), (0,)) if X.is_pointed() else None
    return TruncatedBisimplicialSet.from_operators(shape, simplices, horizontal,
                                                   vertical, basepoint=bp), cells, last


def d_star_map(f):
    """Functoriality of d_star on simplicial maps."""
    B, cells, _ = _d_star(f.source)
    C, _, last = _d_star(f.target)
    Y = f.target

    def image(n, x, alpha, beta):
        m, y, a, b = dstar_normalize(Y, last, n, f.positions(n)[x], alpha, beta)
        return (m, Y.simplices[m][y], a, b)
    return BisimplicialMap(B, C, {
        pq: dict(zip(B.simplices[pq], itertools.starmap(image, level)))
        for pq, level in cells.items()})


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
    rows, columns = B.rows, B.columns

    # each simplex as the tuple of the positions of its cells
    tuples = {}
    for n in range(bound + 1):
        level = [(x,) for x in range(len(B.simplices[(0, n)]))]
        for p in range(1, n + 1):
            by_hface = {}
            for y, x in enumerate(rows[n - p].positions(p, p - 1, p)):
                by_hface.setdefault(x, []).append(y)
            dv0 = columns[p - 1].positions(n - p + 1, n - p, 0)
            level = [t + (y,) for t in level for y in by_hface.get(dv0[t[-1]], ())]
        tuples[n] = level
    index = {n: {t: i for i, t in enumerate(level)} for n, level in tuples.items()}

    def table(n, m, k):
        # entry p of the image of t is op[t[a]], for (op, a) = parts[p]:
        # a vertical operator on t[p] up to index k, a horizontal one after
        step = n - m
        parts = [(columns[p].positions(n - p, m - p, k - p), p) if p < k + (step < 0)
                 else (rows[m - p].positions(p + step, p, k), p + step)
                 for p in range(m + 1)]
        try:
            return [index[m][tuple([op[t[a]] for op, a in parts])] for t in tuples[n]]
        except KeyError:
            kind = "face" if m < n else "degeneracy"
            raise SimplicialError(
                f"codiagonal {kind} left the matching set at degree {n}") from None
    simplices = {n: tuple([tuple([B.simplices[(p, n - p)][x] for p, x in enumerate(t)])
                           for t in level])
                 for n, level in tuples.items()}
    bp = (B.basepoint,) if B.is_pointed() else None
    return TruncatedSimplicialSet.from_operators(bound, simplices, table,
                                                 basepoint=bp)
