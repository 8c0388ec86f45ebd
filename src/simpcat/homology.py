"""Exact integral homology, components, edge-path groups, and the
weak-equivalence probe.

All arithmetic is arbitrary-precision integer.  Boundary matrices are
kept sparse (column dicts), and `smith_invariants` reduces them in one
sparse elimination loop, unit and non-unit pivots alike, that takes each
pivot from a lazy heap of candidates instead of rescanning the matrix.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .names import ordered
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


def normalized_chains(X):
    """Chains on nondegenerate simplices; degenerate face images vanish."""
    basis = {n: {x: k for k, x in enumerate(X.nondegenerate(n))}
             for n in X.degrees()}
    ranks = {n: len(basis[n]) for n in basis}
    boundaries = {}
    for n in range(1, X.bound + 1):
        cols = {}
        for x, c in basis[n].items():
            acc = {}
            for i in range(n + 1):
                y = X.face(n, i, x)
                r = basis[n - 1].get(y)
                if r is not None:
                    acc[r] = acc.get(r, 0) + (1 if i % 2 == 0 else -1)
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

    One elimination loop: the pivot is an entry of least absolute value,
    ties broken by Markowitz cost.  Candidates wait in a lazy min-heap of
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

    def cost(r, c):
        return (len(cols[c]) - 1) * (len(rows[r]) - 1)

    heap = [(abs(v), cost(r, c), r, c)
            for c, col in cols.items() for r, v in col.items()]
    heapq.heapify(heap)
    units = 0
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

def pi0(X):
    """Components as sorted vertex tuples, themselves sorted."""
    parent = {v: v for v in X.simplices[0]}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    if X.bound >= 1:
        for e in X.simplices[1]:
            a, b = find(X.face(1, 1, e)), find(X.face(1, 0, e))
            if a != b:
                parent[a] = b
    classes = {}
    for v in X.simplices[0]:
        classes.setdefault(find(v), []).append(v)
    return tuple(tuple(c) for c in classes.values())


def pi0_map(f):
    """Induced component map as a dict, plus whether it is a bijection."""
    src, tgt = pi0(f.source), pi0(f.target)
    locate = {v: comp for comp in tgt for v in comp}
    induced = {}
    for comp in src:
        induced[comp] = locate[f(0, comp[0])]
    bijective = (len(src) == len(tgt)
                 and len(set(induced.values())) == len(tgt))
    return induced, bijective


def edge_path_group(X, v):
    """Spanning-tree presentation of the fundamental group at vertex v."""
    if X.bound < 2:
        raise CertificationError("edge-path group needs bound >= 2")
    if not X.has(0, v):
        raise SimplicialError(f"no vertex {v!r}")
    adj = {}
    for e in X.nondegenerate(1):
        a, b = X.face(1, 1, e), X.face(1, 0, e)
        adj.setdefault(a, []).append((b, e))
        adj.setdefault(b, []).append((a, e))
    tree_edges = set()
    reached = {v}
    frontier = [v]
    while frontier:
        a = frontier.pop()
        for b, e in ordered(adj.get(a, [])):
            if b not in reached:
                reached.add(b)
                tree_edges.add(e)
                frontier.append(b)
    generators = tuple(e for e in X.nondegenerate(1)
                       if e not in tree_edges
                       and X.face(1, 0, e) in reached and X.face(1, 1, e) in reached)
    gindex = {e: k + 1 for k, e in enumerate(generators)}

    def letter(e):
        """Word of a 1-simplex: empty for degenerate or tree edges."""
        if X.is_degenerate(1, e) or e in tree_edges:
            return ()
        return (gindex[e],)

    relators = []
    for t in X.nondegenerate(2):
        if X.face(1, 1, X.face(2, 2, t)) not in reached:
            continue
        a = letter(X.face(2, 2, t))   # first leg
        b = letter(X.face(2, 0, t))   # second leg
        c = letter(X.face(2, 1, t))   # long edge
        word = tuple(-g for g in reversed(c)) + b + a
        if word:
            relators.append(word)
    return PresentedGroup(generators, tuple(sorted(set(relators))))


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
    basis_y = {n: {y: k for k, y in enumerate(Y.nondegenerate(n))}
               for n in Y.degrees()}
    matrices = {}
    for n in X.degrees():
        if n not in basis_y:
            continue
        cols = {}
        for c, x in enumerate(X.nondegenerate(n)):
            r = basis_y[n].get(f(n, x))
            if r is not None:
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
    """
    X, Y = f.source, f.target
    cert = min(X.bound, Y.bound) - 1
    if k > cert or k < 0:
        return ProbeVerdict.inconclusive(
            f"degree {k} beyond certified range {cert}")
    _, bijective = pi0_map(f)
    if not bijective:
        return ProbeVerdict.refuted(
            0, f"pi0 not bijective: {len(pi0(X))} vs {len(pi0(Y))} components")
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
    if k >= 1 and X.bound >= 2 and Y.bound >= 2:
        for comp in pi0(X):
            a = abelianization(edge_path_group(X, comp[0]))
            b = abelianization(edge_path_group(Y, f(0, comp[0])))
            if a != b:
                return ProbeVerdict.refuted(
                    1, f"abelianized pi_1 mismatch on a component: {a} vs {b}")
    return ProbeVerdict.confirmed(k)
