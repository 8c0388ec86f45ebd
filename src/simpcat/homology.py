"""Exact integral homology, components, edge-path groups, and the
weak-equivalence probe.

All arithmetic is arbitrary-precision integer.  Cells are read by
position only: chains, chain maps, components and edge-path groups take
the position lists of `TruncatedSimplicialSet.positions` and
`SimplicialMap.positions`, and names appear only in what is returned.
Boundary matrices are kept sparse (column dicts).  `smith_invariants`
first sweeps the transpose, whose rows are the short per-cell columns,
and splits off a unit pivot from each row that has a +-1 entry, in the
shortest column; then one sparse elimination loop reduces what is left,
taking each pivot from a lazy heap of candidates instead of rescanning
the matrix.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .sset import SimplicialError


class CertificationError(SimplicialError):
    """Requested degree exceeds what the truncation certifies."""


@dataclass(frozen=True)
class AbelianGroupDescriptor:
    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion coefficients must form a divisibility chain")
        if any(t <= 1 for t in self.torsion):
            raise ValueError("torsion coefficients must exceed 1")

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def order(self):
        """Number of elements, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for t in self.torsion:
            n *= t
        return n

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class PresentedGroup:
    """Generators are names; relators are tuples of nonzero signed
    1-based generator indices."""
    generators: tuple
    relators: tuple

    def __post_init__(self):
        n = len(self.generators)
        for word in self.relators:
            for letter in word:
                if letter == 0 or abs(letter) > n:
                    raise ValueError(f"malformed relator letter {letter}")


@dataclass(frozen=True)
class ProbeVerdict:
    kind: str            # "confirmed" | "refuted" | "inconclusive"
    degree: int = -1     # certified degree, or witness degree when refuted
    detail: str = ""

    @classmethod
    def confirmed(cls, k):
        return cls("confirmed", k)

    @classmethod
    def refuted(cls, degree, detail):
        return cls("refuted", degree, detail)

    @classmethod
    def inconclusive(cls, reason):
        return cls("inconclusive", -1, reason)

    def __str__(self):
        if self.kind == "confirmed":
            return f"ConfirmedUpTo({self.degree})"
        if self.kind == "refuted":
            return f"Refuted(degree {self.degree}: {self.detail})"
        return f"Inconclusive({self.detail})"


class ChainComplex:
    """Finitely generated free integral complex.  `boundaries[i]` maps
    degree i to degree i-1 as a column-sparse matrix {col: {row: coeff}}.
    Each boundary is reduced at most once: `invariants(i)` keeps the
    Smith invariants of every boundary it has computed."""

    def __init__(self, ranks, boundaries):
        self.ranks = dict(ranks)
        self.boundaries = {i: {c: dict(col) for c, col in m.items() if col}
                           for i, m in boundaries.items()}
        self.top = max(self.ranks) if self.ranks else -1
        self._invariants = {}

    def rank(self, i):
        return self.ranks.get(i, 0)

    def boundary(self, i):
        return self.boundaries.get(i, {})

    def invariants(self, i):
        """Smith invariants of the boundary out of degree i."""
        if i not in self._invariants:
            self._invariants[i] = smith_invariants(self.boundary(i))
        return self._invariants[i]

    def check_dd_zero(self):
        for i in sorted(self.boundaries):
            if i - 1 not in self.boundaries:
                continue
            lower = self.boundaries[i - 1]
            for c, col in self.boundaries[i].items():
                acc = {}
                for r, v in col.items():
                    for r2, w in lower.get(r, {}).items():
                        acc[r2] = acc.get(r2, 0) + v * w
                if any(acc.values()):
                    raise SimplicialError(f"boundary composite nonzero at degree {i}")


def _basis(X, n):
    """The positions of the nondegenerate degree-n cells of X, and the
    basis index of each degree-n cell, -1 for a degenerate one."""
    cells = X.nondegenerate_positions(n)
    index = [-1] * X.size(n)
    for k, p in enumerate(cells):
        index[p] = k
    return cells, index


def normalized_chains(X):
    """Chains on nondegenerate simplices; degenerate face images vanish.
    Cells are read by position only."""
    cells, index = _basis(X, 0)
    ranks = {0: len(cells)}
    boundaries = {}
    for n in range(1, X.bound + 1):
        below = index
        cells, index = _basis(X, n)
        ranks[n] = len(cells)
        faces = [(X.positions(n, n - 1, i), 1 if i % 2 == 0 else -1)
                 for i in range(n + 1)]
        cols = {}
        for c, x in enumerate(cells):
            acc = {}
            for face, sign in faces:
                r = below[face[x]]
                if r >= 0:
                    acc[r] = acc.get(r, 0) + sign
            cols[c] = {r: v for r, v in acc.items() if v}
        boundaries[n] = cols
    complex_ = ChainComplex(ranks, boundaries)
    complex_.check_dd_zero()
    return complex_


# ---------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------

def smith_invariants(cols):
    """Invariant factors d1 | d2 | ... of a column-sparse integer matrix
    {col: {row: value}}.

    First a sweep splits off unit pivots.  It works on the transpose: a
    boundary matrix's column lists the faces of one cell, so the
    transpose has short rows, one per cell, and one column per face.
    The sweep takes the rows by increasing length.  A row with an entry
    +-1 takes as pivot the one whose column is shortest, clears that
    column by subtracting the pivot row times (entry * pivot) from every
    other row in it (a unit is its own inverse), and is split off with
    the column.  A row without a unit entry waits for the loop below.

    Then one elimination loop reduces what is left: the pivot is an
    entry of least absolute value, ties broken by Markowitz cost.
    Candidates wait in a lazy min-heap of
    (|value|, cost, row, col) records, built once and pushed again each
    time an entry's value changes.  A popped record whose entry is gone
    or has another absolute value is dropped; one whose cost has moved
    goes back with the new cost, and so does a pivot that is not split
    off.  Every live entry keeps a record of its
    current absolute value, so the popped pivot is an entry of least
    absolute value.  Column operations with floor quotients clear its
    row; once the row is clear, reducing its column modulo the pivot
    touches only that column.  A pivot alone in its row and column is
    split off.  Each pass either splits a pivot or leaves an entry
    smaller than the pivot, so the loop ends.  A gcd/lcm pass over the
    split pivots greater than 1 puts them in divisibility order."""
    cols = {c: dict(col) for c, col in cols.items() if col}
    rows = {}
    for c, col in cols.items():
        for r in col:
            rows.setdefault(r, set()).add(c)

    # The sweep: a column of `cols` is a row of the transpose, and
    # rows[r] the transpose's column of face r.
    units = 0
    for c0 in sorted(cols, key=lambda c: len(cols[c])):
        pivot_row = cols.get(c0)
        if pivot_row is None:
            continue
        r0 = min((r for r, v in pivot_row.items() if v == 1 or v == -1),
                 key=lambda r: len(rows[r]), default=None)
        if r0 is None:
            continue
        p = pivot_row[r0]
        for c in list(rows[r0]):
            if c == c0:
                continue
            row = cols[c]
            q = row[r0] * p
            for r, v in pivot_row.items():
                nv = row.get(r, 0) - q * v
                if nv:
                    row[r] = nv
                    rows[r].add(c)
                elif r in row:
                    del row[r]
                    rows[r].discard(c)
            if not row:
                del cols[c]
        for r in pivot_row:
            rows[r].discard(c0)
        del rows[r0]
        del cols[c0]
        units += 1

    def cost(r, c):
        return (len(cols[c]) - 1) * (len(rows[r]) - 1)

    heap = [(abs(v), cost(r, c), r, c)
            for c, col in cols.items() for r, v in col.items()]
    heapq.heapify(heap)
    torsion = []
    while cols:
        least, stale, r0, c0 = heapq.heappop(heap)
        pivot_col = cols.get(c0, {})
        p = pivot_col.get(r0)
        if p is None or abs(p) != least:
            continue
        now = cost(r0, c0)
        if now != stale:
            heapq.heappush(heap, (least, now, r0, c0))
            continue
        for c in list(rows[r0]):
            if c == c0:
                continue
            col = cols[c]
            q = col[r0] // p
            for r, v in pivot_col.items():
                nv = col.get(r, 0) - q * v
                if nv:
                    col[r] = nv
                    rows[r].add(c)
                    heapq.heappush(heap, (abs(nv), cost(r, c), r, c))
                elif r in col:
                    del col[r]
                    rows[r].discard(c)
            if not col:
                del cols[c]
        if len(rows[r0]) == 1:
            for r in list(pivot_col):
                if r != r0:
                    v = pivot_col[r] % p
                    if not v:
                        del pivot_col[r]
                        rows[r].discard(c0)
                    elif v != pivot_col[r]:
                        pivot_col[r] = v
                        heapq.heappush(heap, (abs(v), cost(r, c0), r, c0))
            if len(pivot_col) == 1:
                del cols[c0]
                del rows[r0]
                if least == 1:
                    units += 1
                else:
                    torsion.append(least)
                continue
        heapq.heappush(heap, (least, now, r0, c0))
    for i in range(len(torsion)):
        for j in range(i + 1, len(torsion)):
            g = math.gcd(torsion[i], torsion[j])
            torsion[i], torsion[j] = g, torsion[i] // g * torsion[j]
    return [1] * units + torsion


def _homology_from_complex(complex_, i):
    inv_i = complex_.invariants(i) if i >= 1 else []
    inv_next = complex_.invariants(i + 1)
    free = complex_.rank(i) - len(inv_i) - len(inv_next)
    torsion = tuple(d for d in inv_next if d > 1)
    return AbelianGroupDescriptor(free, torsion)


def homology(X, i):
    """H_i of the normalized chains.  Certified only below the bound."""
    if i < 0 or i > X.bound - 1:
        raise CertificationError(
            f"degree {i} not certified at truncation bound {X.bound}")
    return _homology_from_complex(normalized_chains(X), i)


def homology_list(X, up_to=None):
    top = X.bound - 1 if up_to is None else min(up_to, X.bound - 1)
    complex_ = normalized_chains(X)
    return [_homology_from_complex(complex_, i) for i in range(top + 1)]


# ---------------------------------------------------------------------
# components and edge paths
# ---------------------------------------------------------------------

def _components(X):
    """The components of X as lists of vertex positions, in order of
    their first vertex, and the component of each vertex."""
    parent = list(range(X.size(0)))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    if X.bound >= 1:
        for a, b in zip(X.positions(1, 0, 1), X.positions(1, 0, 0)):
            a, b = find(a), find(b)
            if a != b:
                parent[a] = b
    classes = {}
    for v in range(X.size(0)):
        classes.setdefault(find(v), []).append(v)
    comps = list(classes.values())
    label = [0] * X.size(0)
    for k, comp in enumerate(comps):
        for v in comp:
            label[v] = k
    return comps, label


def _vertex_names(X, comps):
    return tuple(tuple(map(X.simplices[0].__getitem__, comp)) for comp in comps)


def pi0(X):
    """Components as sorted vertex tuples, themselves sorted."""
    return _vertex_names(X, _components(X)[0])


def _pi0_images(f):
    """The components of f's source and of its target, and the target
    component that each source component maps to."""
    src, _ = _components(f.source)
    tgt, label = _components(f.target)
    image = f.positions(0)
    return src, tgt, [label[image[comp[0]]] for comp in src]


def pi0_map(f):
    """Induced component map as a dict, plus whether it is a bijection."""
    src, tgt, images = _pi0_images(f)
    names = _vertex_names(f.target, tgt)
    induced = dict(zip(_vertex_names(f.source, src),
                       map(names.__getitem__, images)))
    return induced, _bijective(images, tgt)


def _bijective(images, tgt):
    return len(images) == len(tgt) and len(set(images)) == len(tgt)


def edge_path_group(X, v):
    """Spanning-tree presentation of the fundamental group at vertex v."""
    if X.bound < 2:
        raise CertificationError("edge-path group needs bound >= 2")
    if not X.has(0, v):
        raise SimplicialError(f"no vertex {v!r}")
    # read by position: positions follow the canonical name order, so the
    # spanning tree and the presentation are those of the names
    v = X.simplices[0].index(v)
    target, source = X.positions(1, 0, 0), X.positions(1, 0, 1)
    edges = X.nondegenerate_positions(1)
    adj = {}
    for e in edges:
        a, b = source[e], target[e]
        adj.setdefault(a, []).append((b, e))
        adj.setdefault(b, []).append((a, e))
    tree_edges = set()
    reached = {v}
    frontier = [v]
    while frontier:
        a = frontier.pop()
        for b, e in sorted(adj.get(a, [])):
            if b not in reached:
                reached.add(b)
                tree_edges.add(e)
                frontier.append(b)
    generators = [e for e in edges
                  if e not in tree_edges
                  and target[e] in reached and source[e] in reached]
    gindex = {e: k + 1 for k, e in enumerate(generators)}

    def letter(e):
        """Word of a 1-simplex: empty for degenerate or tree edges."""
        return (gindex[e],) if e in gindex else ()

    last, long_edge, first = (X.positions(2, 1, i) for i in range(3))
    relators = []
    for t in X.nondegenerate_positions(2):
        if source[first[t]] not in reached:
            continue
        word = (tuple(-g for g in reversed(letter(long_edge[t])))
                + letter(last[t]) + letter(first[t]))
        if word:
            relators.append(word)
    return PresentedGroup(tuple(map(X.simplices[1].__getitem__, generators)),
                          tuple(sorted(set(relators))))


def abelianization(G):
    """SNF of the exponent matrix of the relators."""
    n = len(G.generators)
    cols = {}
    for k, word in enumerate(G.relators):
        col = {}
        for letter in word:
            g = abs(letter) - 1
            col[g] = col.get(g, 0) + (1 if letter > 0 else -1)
        col = {g: v for g, v in col.items() if v}
        if col:
            cols[k] = col
    inv = smith_invariants(cols)
    free = n - len(inv)
    return AbelianGroupDescriptor(free, tuple(d for d in inv if d > 1))


# ---------------------------------------------------------------------
# weak-equivalence probe
# ---------------------------------------------------------------------

def _chain_map(f):
    """Induced map on normalized chains, column-sparse per degree."""
    X, Y = f.source, f.target
    matrices = {}
    for n in X.degrees():
        if n > Y.bound:
            continue
        _, index = _basis(Y, n)
        image = f.positions(n)
        cols = {}
        for c, x in enumerate(X.nondegenerate_positions(n)):
            r = index[image[x]]
            if r >= 0:
                cols[c] = {r: 1}
        matrices[n] = cols
    return matrices


def mapping_cone(f):
    """Cone of the induced chain map: degree n is X_{n-1} + Y_n."""
    return _cone(normalized_chains(f.source), normalized_chains(f.target), f)


def _cone(cx, cy, f):
    """Mapping cone of f from the normalized chains of its two ends."""
    fm = _chain_map(f)
    top = min(cx.top, cy.top)
    ranks = {n: cx.rank(n - 1) + cy.rank(n) for n in range(top + 2)}
    boundaries = {}
    for n in range(1, top + 2):
        cols = {}
        shift = cx.rank(n - 1)
        for c in range(cx.rank(n - 1)):
            col = {}
            if n - 1 >= 1:
                for r, v in cx.boundary(n - 1).get(c, {}).items():
                    col[r] = -v
            for r, v in fm.get(n - 1, {}).get(c, {}).items():
                col[cx.rank(n - 2) + r] = col.get(cx.rank(n - 2) + r, 0) + v
            cols[c] = {r: v for r, v in col.items() if v}
        for c in range(cy.rank(n)):
            col = {cx.rank(n - 2) + r: v
                   for r, v in cy.boundary(n).get(c, {}).items()}
            cols[shift + c] = col
        boundaries[n] = cols
    cone = ChainComplex(ranks, boundaries)
    cone.check_dd_zero()
    return cone


def weak_equivalence_probe(f, k):
    """Decidable surrogate for weak equivalence on truncations.

    Refutes on a component-count mismatch or a homology-group or
    induced-map failure up to degree k; otherwise confirms up to k.  A
    surjection between isomorphic finitely generated abelian groups is
    an isomorphism, so vanishing of the mapping cone through degree k
    certifies the induced maps exactly.

    Abelianized fundamental groups need no check of their own: with pi0
    bijective, equal H_1 and an acyclic cone in degree 1, the map on H_1
    is a surjection between isomorphic groups, hence an isomorphism; it
    is the direct sum of its maps between matched components, so each
    of those is an isomorphism too, and a component's H_1 is its
    abelianized edge-path group.
    """
    X, Y = f.source, f.target
    cert = min(X.bound, Y.bound) - 1
    if k > cert or k < 0:
        return ProbeVerdict.inconclusive(
            f"degree {k} beyond certified range {cert}")
    comps, tgt, images = _pi0_images(f)
    if not _bijective(images, tgt):
        return ProbeVerdict.refuted(
            0, f"pi0 not bijective: {len(comps)} vs {len(tgt)} components")
    cx, cy = normalized_chains(X), normalized_chains(Y)
    for i in range(k + 1):
        hx = _homology_from_complex(cx, i)
        hy = _homology_from_complex(cy, i)
        if hx != hy:
            return ProbeVerdict.refuted(i, f"H_{i}: {hx} vs {hy}")
    cone = _cone(cx, cy, f)
    for i in range(1, k + 1):
        hc = _homology_from_complex(cone, i)
        if not hc.is_trivial():
            return ProbeVerdict.refuted(
                i, f"induced map not an isomorphism near degree {i}: cone H = {hc}")
    return ProbeVerdict.confirmed(k)
