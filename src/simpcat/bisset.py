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

from .names import sort_key
from .sset import (SimplicialError, TruncatedSimplicialSet, _monotone_maps,
                   _tuple_degen, _tuple_face)


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
        """Table of the horizontal d_k (m = p - 1) or s_k (m = p + 1)."""
        return self.hfaces[(p, q, k)] if m < p else self.hdegens[(p, q, k)]

    def vtable(self, p, q, m, k):
        """Table of the vertical d_k (m = q - 1) or s_k (m = q + 1)."""
        return self.vfaces[(p, q, k)] if m < q else self.vdegens[(p, q, k)]

    def size(self, p, q):
        return len(self.simplices[(p, q)])

    def is_pointed(self):
        return self.basepoint is not None

    def row(self, q):
        """Horizontal simplicial set p -> B_{p,q}."""
        ps = [p for (p, qq) in self.shape.support if qq == q]
        if not ps:
            raise SimplicialError(f"no bidegrees with vertical index {q}")
        bound = max(ps)
        simplices = {p: self.simplices[(p, q)] for p in range(bound + 1)}
        return TruncatedSimplicialSet.from_operators(
            bound, simplices, lambda p, m, k: self.htable(p, q, m, k))

    def audit(self, max_violations=20):
        v = []

        def report(msg):
            if len(v) < max_violations:
                v.append(msg)

        for (p, q) in self.shape.sorted():
            cells = self.simplices[(p, q)]
            for i in range(p + 1) if p >= 1 else ():
                t = self.hfaces.get((p, q, i))
                if t is None or any(x not in t for x in cells):
                    report(f"horizontal face d_{i} incomplete at {(p, q)}")
            for j in range(q + 1) if q >= 1 else ():
                t = self.vfaces.get((p, q, j))
                if t is None or any(x not in t for x in cells):
                    report(f"vertical face d_{j} incomplete at {(p, q)}")
        if v:
            return v

        for (p, q) in self.shape.sorted():
            for x in self.simplices[(p, q)]:
                # horizontal simplicial identities
                if p >= 2:
                    for j in range(p + 1):
                        for i in range(j):
                            if (self.hface(p - 1, q, i, self.hface(p, q, j, x))
                                    != self.hface(p - 1, q, j - 1, self.hface(p, q, i, x))):
                                report(f"h-face identity fails at {(p, q)} on {x!r}")
                if q >= 2:
                    for j in range(q + 1):
                        for i in range(j):
                            if (self.vface(p, q - 1, i, self.vface(p, q, j, x))
                                    != self.vface(p, q - 1, j - 1, self.vface(p, q, i, x))):
                                report(f"v-face identity fails at {(p, q)} on {x!r}")
                # horizontal/vertical commutation
                if p >= 1 and q >= 1:
                    for i in range(p + 1):
                        for j in range(q + 1):
                            if (self.vface(p - 1, q, j, self.hface(p, q, i, x))
                                    != self.hface(p, q - 1, i, self.vface(p, q, j, x))):
                                report(f"dh_{i} dv_{j} do not commute at {(p, q)}")
                if (p + 1, q) in self.shape and q >= 1:
                    for i in range(p + 1):
                        for j in range(q + 1):
                            if (self.vface(p + 1, q, j, self.hdegen(p, q, i, x))
                                    != self.hdegen(p, q - 1, i, self.vface(p, q, j, x))):
                                report(f"sh_{i} dv_{j} do not commute at {(p, q)}")
                if (p, q + 1) in self.shape and p >= 1:
                    for i in range(p + 1):
                        for j in range(q + 1):
                            if (self.hface(p, q + 1, i, self.vdegen(p, q, j, x))
                                    != self.vdegen(p - 1, q, j, self.hface(p, q, i, x))):
                                report(f"dh_{i} sv_{j} do not commute at {(p, q)}")
                if (p + 1, q + 1) in self.shape:
                    for i in range(p + 1):
                        for j in range(q + 1):
                            if (self.vdegen(p + 1, q, j, self.hdegen(p, q, i, x))
                                    != self.hdegen(p, q + 1, i, self.vdegen(p, q, j, x))):
                                report(f"sh_{i} sv_{j} do not commute at {(p, q)}")
                # degeneracy-side identities along each direction
                if (p + 1, q) in self.shape:
                    for j in range(p + 1):
                        sx = self.hdegen(p, q, j, x)
                        for i in range(p + 2):
                            got = self.hface(p + 1, q, i, sx)
                            if i in (j, j + 1):
                                want = x
                            elif i < j:
                                want = self.hdegen(p - 1, q, j - 1, self.hface(p, q, i, x))
                            else:
                                want = self.hdegen(p - 1, q, j, self.hface(p, q, i - 1, x))
                            if got != want:
                                report(f"h d_{i} s_{j} identity fails at {(p, q)}")
                if (p, q + 1) in self.shape:
                    for j in range(q + 1):
                        sx = self.vdegen(p, q, j, x)
                        for i in range(q + 2):
                            got = self.vface(p, q + 1, i, sx)
                            if i in (j, j + 1):
                                want = x
                            elif i < j:
                                want = self.vdegen(p, q - 1, j - 1, self.vface(p, q, i, x))
                            else:
                                want = self.vdegen(p, q - 1, j, self.vface(p, q, i - 1, x))
                            if got != want:
                                report(f"v d_{i} s_{j} identity fails at {(p, q)}")
        if self.basepoint is not None and self.basepoint not in self._index[(0, 0)]:
            report("basepoint is not a (0,0)-simplex")
        return v

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

    def validate(self, max_violations=20):
        v = []
        B, C = self.source, self.target
        for (p, q) in B.shape.sorted():
            if (p, q) not in C.shape:
                continue
            for x in B.simplices[(p, q)]:
                y = self.assign[(p, q)][x]
                for i in range(p + 1) if p >= 1 else ():
                    if self.assign[(p - 1, q)][B.hface(p, q, i, x)] != C.hface(p, q, i, y):
                        v.append(f"dh_{i} not preserved at {(p, q)}")
                for j in range(q + 1) if q >= 1 else ():
                    if self.assign[(p, q - 1)][B.vface(p, q, j, x)] != C.vface(p, q, j, y):
                        v.append(f"dv_{j} not preserved at {(p, q)}")
                if (p + 1, q) in B.shape:
                    for i in range(p + 1):
                        if self.assign[(p + 1, q)][B.hdegen(p, q, i, x)] != C.hdegen(p, q, i, y):
                            v.append(f"sh_{i} not preserved at {(p, q)}")
                if (p, q + 1) in B.shape:
                    for j in range(q + 1):
                        if self.assign[(p, q + 1)][B.vdegen(p, q, j, x)] != C.vdegen(p, q, j, y):
                            v.append(f"sv_{j} not preserved at {(p, q)}")
        return v[:max_violations]


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
    return TruncatedSimplicialSet.from_operators(bound, simplices, table,
                                                 basepoint=B.basepoint)


def dec(Y):
    """Illusie decalage: Dec(Y)_{p,q} = Y_{p+q+1}, horizontal operators are
    the front ones, vertical operators the back ones."""
    if Y.bound < 1:
        raise SimplicialError("decalage needs bound >= 1")
    shape = BidegreeShape.staircase(Y.bound - 1)
    simplices = {(p, q): Y.simplices[p + q + 1] for (p, q) in shape.support}

    def restrict(n, m, k):
        t = Y.table(n, m, k)
        return {x: t[x] for x in Y.simplices[n]}
    bp = None
    if Y.is_pointed():
        bp = Y.degen(0, 0, Y.basepoint)
    return TruncatedBisimplicialSet.from_operators(
        shape, simplices,
        lambda p, q, m, k: restrict(p + q + 1, m + q + 1, k),
        lambda p, q, m, k: restrict(p + q + 1, p + m + 1, p + 1 + k),
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
        simplices[(p, q)] = tuple(sorted(cells, key=sort_key))

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
        simplices[n] = tuple(sorted(tuples, key=sort_key))
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
    return TruncatedSimplicialSet.from_operators(bound, simplices, table,
                                                 basepoint=bp)
