"""Exact integral homology, components, edge-path groups, and the
weak-equivalence probe.

All arithmetic is arbitrary-precision integer.  Boundary matrices are
kept sparse (column dicts); Smith invariants are computed by splitting
off unit pivots sparsely and finishing the small residue with the
classic dense reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .names import sort_key
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
    degree i to degree i-1 as a column-sparse matrix {col: {row: coeff}}."""

    def __init__(self, ranks, boundaries):
        self.ranks = dict(ranks)
        self.boundaries = {i: {c: dict(col) for c, col in m.items() if col}
                           for i, m in boundaries.items()}
        self.top = max(self.ranks) if self.ranks else -1

    def rank(self, i):
        return self.ranks.get(i, 0)

    def boundary(self, i):
        return self.boundaries.get(i, {})

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
    basis = {n: {x: k for k, x in enumerate(sorted(X.nondegenerate(n), key=sort_key))}
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

def _sparse_from_dense(rows):
    cols = {}
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v:
                cols.setdefault(c, {})[r] = int(v)
    return cols


def _dense_smith(entries):
    """Classic in-place Smith reduction of a small dense matrix given as
    a list of row lists.  Returns the nontrivial diagonal."""
    m = [list(row) for row in entries]
    nr, nc = len(m), len(m[0]) if m else 0
    out = []
    top = 0
    while top < min(nr, nc):
        pivot = None
        for r in range(top, nr):
            for c in range(top, nc):
                if m[r][c] and (pivot is None or abs(m[r][c]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (r, c)
        if pivot is None:
            break
        r0, c0 = pivot
        m[top], m[r0] = m[r0], m[top]
        for row in m:
            row[top], row[c0] = row[c0], row[top]
        p = m[top][top]
        dirty = False
        for r in range(top + 1, nr):
            if m[r][top]:
                q = m[r][top] // p
                if q:
                    m[r] = [a - q * b for a, b in zip(m[r], m[top])]
                if m[r][top]:
                    dirty = True
        for c in range(top + 1, nc):
            if m[top][c]:
                q = m[top][c] // p
                if q:
                    for row in m:
                        row[c] -= q * row[top]
                if m[top][c]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the remaining block by the pivot
        bad = None
        for r in range(top + 1, nr):
            for c in range(top + 1, nc):
                if m[r][c] % p:
                    bad = r
                    break
            if bad is not None:
                break
        if bad is not None:
            m[top] = [a + b for a, b in zip(m[top], m[bad])]
            continue
        out.append(abs(p))
        top += 1
    return out


def _sparse_smith(cols):
    """Invariant factors of a column-sparse integer matrix: peel off
    unit pivots with sparse elimination, then densify the residue."""
    cols = {c: dict(col) for c, col in cols.items() if col}
    rows = {}
    for c, col in cols.items():
        for r in col:
            rows.setdefault(r, set()).add(c)
    units = 0
    while True:
        best = None
        for c, col in cols.items():
            cheap_col = len(col) - 1
            for r, v in col.items():
                if v in (1, -1):
                    cost = cheap_col * (len(rows[r]) - 1)
                    if best is None or cost < best[0]:
                        best = (cost, r, c)
                        if cost == 0:
                            break
            if best and best[0] == 0:
                break
        if best is None:
            break
        _, r0, c0 = best
        eps = cols[c0][r0]
        pivot_col = cols.pop(c0)
        for r in pivot_col:
            rows[r].discard(c0)
        for c in list(rows.get(r0, ())):
            col = cols[c]
            factor = col[r0] * eps
            for r, v in pivot_col.items():
                nv = col.get(r, 0) - factor * v
                if nv:
                    col[r] = nv
                    rows.setdefault(r, set()).add(c)
                else:
                    if r in col:
                        del col[r]
                        rows[r].discard(c)
            if not col:
                del cols[c]
        rows.pop(r0, None)
        units += 1
    invariants = [1] * units
    if cols:
        live_rows = sorted({r for col in cols.values() for r in col})
        rindex = {r: k for k, r in enumerate(live_rows)}
        dense = [[0] * len(cols) for _ in live_rows]
        for k, c in enumerate(sorted(cols)):
            for r, v in cols[c].items():
                dense[rindex[r]][k] = v
        invariants.extend(_dense_smith(dense))
    return invariants


def smith_invariants(matrix):
    """Elementary divisors d1 | d2 | ... of an integer matrix, given
    either densely (list of rows) or column-sparsely ({col: {row: v}})."""
    if isinstance(matrix, dict):
        cols = matrix
    else:
        cols = _sparse_from_dense(matrix)
    return _sparse_smith(cols)


def _homology_from_complex(complex_, i):
    inv_i = smith_invariants(complex_.boundary(i)) if i >= 1 else []
    inv_next = smith_invariants(complex_.boundary(i + 1))
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
    return tuple(sorted((tuple(sorted(c, key=sort_key)) for c in classes.values()),
                        key=sort_key))


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
        for b, e in sorted(adj.get(a, []), key=lambda t: sort_key((t[0], t[1]))):
            if b not in reached:
                reached.add(b)
                tree_edges.add(e)
                frontier.append(b)
    generators = tuple(sorted(
        (e for e in X.nondegenerate(1)
         if e not in tree_edges
         and X.face(1, 0, e) in reached and X.face(1, 1, e) in reached),
        key=sort_key))
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
    inv = _sparse_smith(cols)
    free = n - len(inv)
    return AbelianGroupDescriptor(free, tuple(d for d in inv if d > 1))


# ---------------------------------------------------------------------
# weak-equivalence probe
# ---------------------------------------------------------------------

def _chain_map(f):
    """Induced map on normalized chains, column-sparse per degree."""
    X, Y = f.source, f.target
    basis_x = {n: sorted(X.nondegenerate(n), key=sort_key) for n in X.degrees()}
    basis_y = {n: {y: k for k, y in enumerate(sorted(Y.nondegenerate(n), key=sort_key))}
               for n in Y.degrees()}
    matrices = {}
    for n in basis_x:
        if n not in basis_y:
            continue
        cols = {}
        for c, x in enumerate(basis_x[n]):
            r = basis_y[n].get(f(n, x))
            if r is not None:
                cols[c] = {r: 1}
        matrices[n] = cols
    return matrices


def mapping_cone(f):
    """Cone of the induced chain map: degree n is X_{n-1} + Y_n."""
    cx = normalized_chains(f.source)
    cy = normalized_chains(f.target)
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
    cone = mapping_cone(f)
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
