"""Truncated bisimplicial sets and the four comparison functors.

Data lives over a downward-closed finite set of bidegrees.  Horizontal
operators move the first index, vertical operators the second, and the
two kinds commute (audited exhaustively).  The rows and columns are
simplicial sets on shared cells, and every construction here builds or
reads their position lists.

The left adjoint of the diagonal is computed from the normal form of
coend generators rather than a global union-find pass: every class of
(simplex, pair of operators) has a unique representative whose simplex
is nondegenerate and whose operator pair is jointly surjective.  Its
cells sit in blocks, one per nondegenerate simplex, each listing the
jointly surjective pairs.  Where each operator sends a pair, and how an
Eilenberg-Zilber word collapses it, depends only on small integers and
is computed once per process (the skeleton); every table is block
arithmetic on it.  The small-scale union-find quotient and a
construction that normalizes every face are kept in the test suite as
independent oracles.
"""

from __future__ import annotations

import functools
import itertools
import weakref

from .sset import (MAX_VIOLATIONS, SimplicialError, SimplicialMap,
                   TruncatedSimplicialSet, _monotone_maps)


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

    def is_pointed(self):
        return self.basepoint is not None

    def row(self, q):
        """Horizontal simplicial set p -> B_{p,q}."""
        if q not in self.rows:
            raise SimplicialError(f"no bidegrees with vertical index {q}")
        return self.rows[q]

    def audit(self):
        """Rows and columns are simplicial sets, and each horizontal
        operator is a map of simplicial sets from column p to column m."""
        v = []
        for q, row in sorted(self.rows.items()):
            v += [f"row {q}: {msg}" for msg in row.audit()]
        for p, column in sorted(self.columns.items()):
            v += [f"column {p}: {msg}" for msg in column.audit()]
        if not v:
            for p, X in sorted(self.columns.items()):
                for m in (p - 1, p + 1):
                    for k in range(p + 1) if m in self.columns else ():
                        op = f"d_{k}" if m < p else f"s_{k}"
                        v += _prefixed(
                            f"horizontal {op} from column {p}: ",
                            _between(X, self.columns[m],
                                     lambda q: self.rows[q].positions(p, m, k)))
        if self.basepoint is not None and not self.rows[0].has(0, self.basepoint):
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
        images = {(p, q): [C.rows[q]._index(p).get(level.get(x))
                           for x in B.simplices[(p, q)]]
                  for (p, q), level in self.assign.items()
                  if (p, q) in B.shape and (p, q) in C.shape}
        v = []
        for name, lines, others, at in (
                ("row", B.rows, C.rows, lambda q, p: (p, q)),
                ("column", B.columns, C.columns, lambda p, q: (p, q))):
            for i, X in sorted(lines.items()):
                if i in others:
                    v += _prefixed(f"{name} {i}: ", _between(
                        X, others[i], lambda n: images.get(at(i, n))))
        return v[:MAX_VIOLATIONS]


def _between(X, Y, image):
    """What `SimplicialMap.commutation_failures` finds for the images
    `image(n)` from X to Y, up to the smaller of their bounds."""
    bound = min(X.bound, Y.bound)
    return SimplicialMap.commutation_failures(
        bound, X.simplices.__getitem__, X.positions, Y.positions,
        [image(n) for n in range(bound + 1)])


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

@functools.lru_cache(maxsize=None)
def _pairs(p, q, n):
    """The jointly surjective pairs (alpha: [p] -> [n], beta: [q] -> [n])
    of monotone maps, in cell order."""
    return tuple((a, b) for a in _monotone_maps(p, n) if len(set(a)) + q >= n
                 for missing in [set(range(n + 1)).difference(a)]
                 for b in _monotone_maps(q, n) if missing.issubset(b))


@functools.lru_cache(maxsize=None)
def _places(p, q, n):
    """{pair: its index in `_pairs(p, q, n)`}."""
    return {pair: i for i, pair in enumerate(_pairs(p, q, n))}


def _step(pq, horizontal, step):
    """The bidegree `step` away from pq in the given direction."""
    return (pq[0] + step, pq[1]) if horizontal else (pq[0], pq[1] + step)


@functools.lru_cache(maxsize=None)
def _skeletons(p, q, n, horizontal, step):
    """Where d_k (step -1) or s_k (step 1) from (p, q), horizontal or
    vertical, sends the pairs of `_pairs(p, q, n)`: per k, the pairs'
    images, their vertices, and the vertices other than -1 among them.
    A pair whose joint image stays onto [n] has vertex -1 and image its
    index among the target's pairs into [n].  Under a face, the value v
    of entry k of the moved map drops out when neither a monotone
    neighbour of that entry nor the other map has it; then the pair has
    vertex v, and image the index, among the target's pairs into
    [n - 1], of the pair with the values above v lowered."""
    target = _step((p, q), horizontal, step)
    stay, drop = _places(*target, n), _places(*target, n - 1)
    lowered = [tuple(u - (u > v) for u in range(n + 1)).__getitem__
               for v in range(n + 1)]
    moves, skeletons = {}, [([], []) for _ in range((p if horizontal else q) + 1)]
    for a, b in _pairs(p, q, n):
        t, other = (a, b) if horizontal else (b, a)
        if t not in moves:
            moves[t] = [(v, t[:k + 1] + t[k:], True) if step > 0 else
                        (v, t[:k] + t[k + 1:], v in t[k - 1:k] + t[k + 1:k + 2])
                        for k, v in enumerate(t)]
        for (images, vertices), (v, moved, covered) in zip(skeletons, moves[t]):
            if covered or v in other:
                vertices.append(-1)
                images.append(stay[(moved, other) if horizontal else (other, moved)])
            else:
                vertices.append(v)
                low = tuple(map(lowered[v], moved)), tuple(map(lowered[v], other))
                images.append(drop[low if horizontal else low[::-1]])
    return tuple((tuple(images), tuple(vertices), tuple(sorted(set(vertices) - {-1})))
                 for images, vertices in skeletons)


@functools.lru_cache(maxsize=None)
def _collapse(p, q, n, word):
    """The index, among `_pairs(p, q, n - len(word))`, of each pair of
    `_pairs(p, q, n)` after the codegeneracies of the Eilenberg-Zilber
    word `word`, its first letter first."""
    down = list(range(n + 1))
    for j in word:
        down = [v - (v > j) for v in down]
    places, down = _places(p, q, n - len(word)), down.__getitem__
    return tuple(places[tuple(map(down, a)), tuple(map(down, b))]
                 for a, b in _pairs(p, q, n))


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


class _Blocks:
    """Where the cells of d_star(X) sit: (n, x, alpha, beta) at pq is at
    `start(pq, n, x)` plus the index of (alpha, beta) in
    `_pairs(*pq, n)`.  It holds no reference to X, beside which
    `_D_STARS` keeps it."""

    def __init__(self, X, shape):
        # cells[n]: X's nondegenerate positions; place[n][x]: x's index
        # among them; base[pq][n]: the position of the first n-cell
        self.cells = {n: X.nondegenerate_positions(n) for n in X.degrees()}
        self.place = {n: [-1] * X.size(n) for n in X.degrees()}
        for n, cells in self.cells.items():
            for i, x in enumerate(cells):
                self.place[n][x] = i
        self.base = {}
        for pq in shape.support:
            self.base[pq] = offsets = {}
            total = 0
            for n in range(min(X.bound, sum(pq) + 1) + 1):
                if self.cells[n]:
                    offsets[n] = total
                    total += len(self.cells[n]) * len(_pairs(*pq, n))

    def start(self, pq, n, x):
        return self.base[pq][n] + self.place[n][x] * len(_pairs(*pq, n))

    def table(self, X, pq, horizontal, step, k):
        """The position list of d_k (step -1) or s_k (step 1) from pq."""
        target, out = _step(pq, horizontal, step), []
        for n in self.base[pq]:
            images, vertices, dropped = _skeletons(*pq, n, horizontal, step)[k]
            # no pair stays onto [n] when [n] is past the target's reach
            width, start = len(_pairs(*target, n)), self.base[target].get(n, 0)
            if not dropped:
                for i in range(len(self.cells[n])):
                    out += map((start + i * width).__add__, images)
                continue
            # slot -1 holds the pairs that stay onto [n]
            starts, indices = [0] * (n + 2), [range(width)] * (n + 2)
            faces = [X.positions(n, n - 1, v) for v in range(n + 1)]
            for i, x in enumerate(self.cells[n]):
                starts[-1] = start + i * width
                for v in dropped:
                    y, word = X.ez_positions[n - 1][faces[v][x]]
                    starts[v] = self.start(target, n - 1 - len(word), y)
                    indices[v] = _collapse(*target, n - 1, word)
                out += [starts[v] + indices[v][j] for v, j in zip(vertices, images)]
        return out


def _build_d_star(X):
    """d_star(X) and the `_Blocks` of its cells."""
    if X.bound < 0:
        raise SimplicialError("invalid bound")
    shape = BidegreeShape.staircase(X.bound - 1) if X.bound >= 1 \
        else BidegreeShape.rectangle(0, 0)
    blocks = _Blocks(X, shape)
    simplices = {pq: tuple([(n, name) + pair for n in offsets
                            for name in map(X.simplices[n].__getitem__,
                                            blocks.cells[n])
                            for pair in _pairs(*pq, n)])
                 for pq, offsets in blocks.base.items()}
    bp = (0, X.basepoint, (0,), (0,)) if X.is_pointed() else None
    return TruncatedBisimplicialSet.from_operators(
        shape, simplices,
        lambda p, q, m, k: blocks.table(X, (p, q), True, m - p, k),
        lambda p, q, m, k: blocks.table(X, (p, q), False, m - q, k),
        basepoint=bp), blocks


def d_star_map(f):
    """Functoriality of d_star on simplicial maps: (n, x, alpha, beta)
    goes to f(x) = s_w y in Eilenberg-Zilber form, with alpha and beta
    collapsed by w."""
    (B, source), (C, target) = _d_star(f.source), _d_star(f.target)
    ez, assign = f.target.ez_positions, {}
    for pq in source.base.keys() & target.base.keys():
        cells, images = [], C.simplices[pq]
        for n in source.base[pq]:
            image = f.positions(n)
            for x in source.cells[n]:
                y, word = ez[n][image[x]]
                start = target.start(pq, n - len(word), y)
                cells += [images[start + j] for j in _collapse(*pq, n, word)]
        assign[pq] = dict(zip(B.simplices[pq], cells))
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
