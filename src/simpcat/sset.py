"""Truncated simplicial sets with explicit face/degeneracy tables.

A `TruncatedSimplicialSet` stores every simplex up to a dimension bound
together with total face and degeneracy tables, each a position list:
the position of each image in its degree's stored order, indexed by the
position of the cell.  `positions` reads them, and `faces`, `degens`,
`table`, `face` and `degen` read a names view built from them on first
read.  Documents decode their tables straight into position lists, and
dicts of names enter only through `from_names` (mapping spaces, and
documents whose tables do not convert), which converts each table once
and keeps what did not convert for the audit.  A `SimplicialMap` holds its
images as dicts of names or as position lists.  Eilenberg-Zilber data
(each simplex as an iterated degeneracy of a unique nondegenerate base)
and the nondegenerate cells (those outside every degeneracy's image)
are derived from the degeneracy lists on first use, by `ez`,
`is_degenerate`, `nondegenerate` or `nondegenerate_positions`, so they
always agree with the tables and a set that is never asked for them
never computes them.

A bisimplicial set stores its rows and columns as such sets.

Homs are enumerated by one search on position lists,
`SimplicialMap.commuting_maps`, which `enumerate_maps` runs on two
simplicial sets and `cat` and `scat` on numbered nerves.

Simplex names are ints, strings, or nested tuples of those; see
:mod:`simpcat.names` for their canonical order.
"""

from __future__ import annotations

import functools
import itertools

# the most failures that an audit or a validation lists
MAX_VIOLATIONS = 20


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


def _operator_keys(bound):
    """(n, m, k) for each operator of a set truncated at `bound`, in
    audit order: per degree n, the faces d_k into m = n - 1, then the
    degeneracies s_k into m = n + 1."""
    return [(n, m, k) for n in range(bound + 1) for m in (n - 1, n + 1)
            if 0 <= m <= bound for k in range(n + 1)]


class TruncatedSimplicialSet:
    """Simplices per degree, with total face and degeneracy tables.

    Invariant: each degree's simplices are stored in strictly increasing
    canonical name order (:mod:`simpcat.names`).  `_from_tuples` and
    `document._decode_sset` sort their cells; every other constructor
    keeps the order of its ordered inputs.

    `tables` holds each operator's position list, keyed by (n, m, k) as
    in `positions`; the document loader writes them directly."""

    def __init__(self, bound, simplices, tables, basepoint=None):
        self.bound = bound
        self.simplices = {n: tuple(simplices.get(n, ())) for n in range(bound + 1)}
        self._lists = tables
        self._failed = {}
        self._indices = {}
        self._nondegenerate = {}
        self.basepoint = basepoint

    @classmethod
    def from_operators(cls, bound, simplices, table, basepoint=None):
        """Build from one callback: `table(n, m, k)` returns the position
        list of the operator from degree n to degree m, d_k when
        m = n - 1 and s_k when m = n + 1."""
        return cls(bound, simplices,
                   {key: table(*key) for key in _operator_keys(bound)},
                   basepoint)

    @classmethod
    def from_names(cls, bound, simplices, table, basepoint=None):
        """Build from tables of names: `table(n, m, k)` returns the
        operator as a dict {cell: cell}, or None when it is missing.
        Each table is converted once; the dicts are kept as the names
        view, and what did not convert as failures for `audit` and
        `positions`."""
        given = {key: table(*key) for key in _operator_keys(bound)}
        cells = {n: tuple(simplices.get(n, ())) for n in range(bound + 1)}
        lists, failed = _convert(cells, given)
        X = cls(bound, cells, lists, basepoint)
        X._failed = failed
        X.faces, X.degens = ({(n, k): t for (n, m, k), t in given.items()
                              if m == n + step and t is not None}
                             for step in (-1, 1))
        return X

    # -- basic access -------------------------------------------------

    @functools.cached_property
    def faces(self):
        return self._named(-1)

    @functools.cached_property
    def degens(self):
        return self._named(1)

    def _named(self, step):
        """The position lists into degree n + step as dicts of names,
        keyed by (n, k)."""
        cells = self.simplices
        return {(n, k): dict(zip(cells[n], map(cells[m].__getitem__, t)))
                for (n, m, k), t in self._lists.items() if m == n + step}

    def degrees(self):
        return range(self.bound + 1)

    def size(self, n):
        return len(self.simplices[n])

    def face(self, n, i, x):
        return self.faces[(n, i)][x]

    def degen(self, n, j, x):
        return self.degens[(n, j)][x]

    def table(self, n, m, k):
        """Table of d_k (m = n - 1) or s_k (m = n + 1) on degree n, or
        None when it is missing."""
        return (self.faces if m < n else self.degens).get((n, k))

    def positions(self, n, m, k):
        """The table of d_k (m = n - 1) or s_k (m = n + 1) on degree n as
        a list: the position in degree m of the image of each degree-n
        cell, indexed by its position.  A table that did not convert
        raises SimplicialError with the audit's message."""
        try:
            return self._lists[n, m, k]
        except KeyError:
            raise SimplicialError(self._failed[n, m, k][0]) from None

    def _operators(self, n, top):
        """The operators out of degree n into degrees up to `top`, as
        (m, position list) in `positions` order."""
        return [(m, self.positions(n, m, k))
                for j, m, k in _operator_keys(top) if j == n]

    def _index(self, n):
        """{cell: position} for degree n, built on first use."""
        if n not in self._indices:
            self._indices[n] = {x: p for p, x in enumerate(self.simplices[n])}
        return self._indices[n]

    def has(self, n, x):
        return n <= self.bound and x in self._index(n)

    def is_pointed(self):
        return self.basepoint is not None

    def with_basepoint(self, v):
        if v not in self._index(0):
            raise SimplicialError(f"basepoint {v!r} is not a 0-simplex")
        return TruncatedSimplicialSet.from_operators(
            self.bound, self.simplices, self.positions, basepoint=v)

    # -- Eilenberg-Zilber data ----------------------------------------

    @functools.cached_property
    def _ez(self):
        """{n: {x: (base, word)}}, computed from the degeneracy lists on
        the first `ez` or `is_degenerate` call."""
        below = [(p, ()) for p in range(self.size(0))]
        ez = {0: below}
        for n in range(1, self.bound + 1):
            # witness[q] = (j, p): the cell at position q is s_j of the
            # cell at position p of degree n - 1
            witness = [None] * self.size(n)
            for j in range(n):
                for p, q in enumerate(self.positions(n - 1, n, j)):
                    if witness[q] is None:
                        witness[q] = (j, p)
            level = []
            for q, w in enumerate(witness):
                if w is None:
                    level.append((q, ()))
                else:
                    j, p = w
                    base, word = below[p]
                    level.append((base, normalize_word((j,) + word)))
            ez[n] = below = level
        cells = self.simplices
        return {n: dict(zip(cells[n], [(cells[n - len(word)][base], word)
                                       for base, word in level]))
                for n, level in ez.items()}

    def ez(self, n, x):
        """Return (base, word): x = s_{w_0} ... s_{w_k} base, word strictly
        decreasing, base nondegenerate of degree n - len(word)."""
        return self._ez[n][x]

    def is_degenerate(self, n, x):
        return bool(self._ez[n][x][1])

    def nondegenerate_positions(self, n):
        """The positions of the nondegenerate degree-n cells, in order:
        the cells outside the image of every degeneracy into degree n."""
        if n not in self._nondegenerate:
            hit = set()
            for j in range(n):
                hit.update(self.positions(n - 1, n, j))
            self._nondegenerate[n] = tuple(
                q for q in range(self.size(n)) if q not in hit)
        return self._nondegenerate[n]

    def nondegenerate(self, n):
        return tuple(map(self.simplices[n].__getitem__,
                         self.nondegenerate_positions(n)))

    # -- audits -------------------------------------------------------

    @staticmethod
    def identity_failures(bound, cells, table):
        """Yield every way the operators fail to make a simplicial set.

        `cells(n)` lists the degree-n cells and `table(n, m, k)` is the
        operator dict as in `from_names`, or None when it is missing.
        What does not convert to position lists comes first; the
        simplicial identities are checked on the lists only when every
        table converts, and only a block whose composed lists differ is
        walked to name its cells."""
        names = [cells(n) for n in range(bound + 1)]
        return _failures(names, *_convert(
            names, {key: table(*key) for key in _operator_keys(bound)}))

    def audit(self):
        """Exhaustive check of totality and all simplicial identities.
        Returns a list of violation descriptions (empty = valid)."""
        v = list(itertools.islice(_failures(self.simplices, self._lists,
                                            self._failed), MAX_VIOLATIONS))
        if (self.basepoint is not None
                and self.basepoint not in self._index(0)):
            v.append("basepoint is not a 0-simplex")
        return v[:MAX_VIOLATIONS]

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


def _convert(names, tables):
    """The dicts of names `tables` {(n, m, k): table or None} over the
    cells `names[n]` of each degree, as (lists, failed): the position
    list of each table with an image in degree m for every cell, and the
    failures of each table that is missing, partial, sends a cell to a
    non-cell or has a key that is not a cell, both keyed by (n, m, k) in
    the order of `tables`."""
    index = [{x: p for p, x in enumerate(names[n])} for n in range(len(names))]
    lists, failed = {}, {}
    for (n, m, k), t in tables.items():
        kind, op = ("face", "d") if m < n else ("degeneracy", "s")
        if t is None:
            failed[n, m, k] = [f"missing {kind} table {op}_{k} at degree {n}"]
            continue
        cells, bad = names[n], []
        try:
            lists[n, m, k] = list(map(index[m].__getitem__,
                                      map(t.__getitem__, cells)))
        except KeyError:
            bad = list(_entry_failures(t, cells, index[m], f"{op}_{k}", n, m))
        if bad or len(t) != len(cells):
            bad += [f"{op}_{k} defined on non-cell {x!r} at degree {n}"
                    for x in t if x not in index[n]]
        if bad:
            failed[n, m, k] = bad
    return lists, failed


def _failures(names, lists, failed):
    """The failures of the tables that did not convert, in order; when
    there are none, every simplicial identity that the position lists
    `lists` {(n, m, k): list} on the cells `names[n]` break."""
    if failed:
        for messages in failed.values():
            yield from messages
        return
    bound = len(names) - 1

    def d(n, k):
        return lists[n, n - 1, k]

    def s(n, k):
        return lists[n, n + 1, k]

    for n in range(2, bound + 1):
        for j in range(1, n + 1):
            dj, ddj = d(n, j), d(n - 1, j - 1).__getitem__
            for i in range(j):
                left = list(map(d(n - 1, i).__getitem__, dj))
                right = list(map(ddj, d(n, i)))
                if left != right:
                    yield from _differences(n, names[n], left, right,
                                            f"d_{i} d_{j} != d_{j-1} d_{i}")
    for n in range(bound - 1):
        for i in range(n + 1):
            si, ssi = s(n, i), s(n + 1, i).__getitem__
            for j in range(i, n + 1):
                left = list(map(s(n + 1, j + 1).__getitem__, si))
                right = list(map(ssi, s(n, j)))
                if left != right:
                    yield from _differences(n, names[n], left, right,
                                            f"s_{j+1} s_{i} != s_{i} s_{j}")
    for n in range(bound):
        identity = list(range(len(names[n])))
        for j in range(n + 1):
            sj = s(n, j)
            for i in range(n + 2):
                left = list(map(d(n + 1, i).__getitem__, sj))
                if i in (j, j + 1):     # d_i s_j = identity
                    right = identity
                elif i < j:             # d_i s_j = s_{j-1} d_i
                    right = list(map(s(n - 1, j - 1).__getitem__, d(n, i)))
                else:                   # d_i s_j = s_j d_{i-1}
                    right = list(map(s(n - 1, j).__getitem__, d(n, i - 1)))
                if left != right:
                    yield from _differences(n, names[n], left, right,
                                            f"d_{i} s_{j} identity fails")


class SimplicialMap:
    """Degreewise assignment commuting with faces and degeneracies.

    `assign` gives each degree's images as a dict of names {cell: image}
    or as a positional list, the target position of the image of each
    source cell, indexed by its position; all degrees one way.
    `positions(n)` reads either as a list, and `assign` reads either as
    dicts, each converting on first read."""

    def __init__(self, source, target, assign):
        self.source = source
        self.target = target
        if isinstance(next(iter(assign.values()), None), list):
            self._positions = dict(assign)
        else:
            self._positions = {}
            self.assign = {n: dict(assign[n]) for n in assign}

    @functools.cached_property
    def assign(self):
        cells, images = self.source.simplices, self.target.simplices
        return {n: dict(zip(cells[n], map(images[n].__getitem__, level)))
                for n, level in self._positions.items()}

    def positions(self, n):
        """The images of the degree-n cells as target positions, indexed
        by source position."""
        if n not in self._positions:
            level, cells = self.assign[n], self.source.simplices[n]
            index = self.target._index(n)
            try:
                self._positions[n] = list(map(index.__getitem__,
                                              map(level.__getitem__, cells)))
            except KeyError:
                raise SimplicialError(next(_entry_failures(
                    level, cells, index, "the map", n, n))) from None
        return self._positions[n]

    def __call__(self, n, x):
        return self.assign[n][x]

    @classmethod
    def identity(cls, X):
        return cls(X, X, {n: {x: x for x in X.simplices[n]} for n in X.degrees()})

    def compose(self, other):
        """self after other."""
        if other.target is not self.source:
            raise SimplicialError("composition endpoint mismatch")
        assign = {n: {x: self.assign[n][y] for x, y in other.assign[n].items()}
                  for n in other.assign}
        return SimplicialMap(other.source, self.target, assign)

    @staticmethod
    def commutation_failures(bound, source_cells, source_table, target_cells,
                             target_table, assign):
        """Yield every way `assign(n)` (a dict, or None when missing) fails
        to be a map of simplicial sets up to `bound`: cells without an
        image among the target's cells first, then each operator it does
        not commute with.  Cells and tables are given as for
        `TruncatedSimplicialSet.identity_failures`."""
        images = [assign(n) or {} for n in range(bound + 1)]
        clean = True
        for n in range(bound + 1):
            targets = frozenset(target_cells(n))
            for x in source_cells(n):
                if images[n].get(x) not in targets:
                    clean = False
                    yield f"no valid image for {x!r} at degree {n}"
        if not clean:
            return
        for n in range(bound + 1):
            for m in (n - 1, n + 1):
                if not 0 <= m <= bound:
                    continue
                f, g, op = images[n], images[m], "d" if m < n else "s"
                for k in range(n + 1):
                    s, t = source_table(n, m, k), target_table(n, m, k)
                    for x in source_cells(n):
                        if g[s[x]] != t[f[x]]:
                            yield f"{op}_{k} not preserved on {x!r} at degree {n}"

    @staticmethod
    def commuting_maps(keys, source, target, fixed=None):
        """Yield, depth first, each assignment {key: images} of source
        cells to target cells that commutes with every operator.  Cells
        are positions: `images` lists the target position of the image
        of each source cell.

        `keys` lists the cell keys, top key first.  `source` and `target`
        are pairs (size, operators): `size(key)` counts the cells at a
        key, `operators(key)` lists the operators out of it as (key2,
        position list), in the same order on both sides.  `fixed` pins
        images, {(key, position): position}; a pin outside the target's
        cells leaves nothing to yield.

        A binding pins its images under the operators, and so on; each
        free cell with an operator into a new binding is then checked
        against an index of the target's operator values, and pinned if
        one candidate is left.  A free cell is offered only the target
        cells that agree with its pinned images.  The stack is explicit,
        so a wide source does not deepen the Python call stack."""
        keys = list(keys)
        at = {key: a for a, key in enumerate(keys)}
        # ops[a] holds (b, s, t) per operator out of key a, its two sides
        # as position lists; image[a][x] is the image of cell x at key a,
        # or -1 while x is free.
        ops = [[(at[key2], s, t)
                for (key2, s), (_, t) in zip(source[1](key), target[1](key))]
               for key in keys]
        image = [[-1] * source[0](key) for key in keys]
        sizes = [target[0](key) for key in keys]    # target cells per key
        # up[b][x]: the cells (a, x2) that an operator takes to cell x at b
        up = [[[] for _ in row] for row in image]
        for a, row in enumerate(ops):
            for b, s, _ in row:
                for x2, x in enumerate(s):
                    up[b][x].append((a, x2))
        trail = []          # (image row, position) of each binding, in order
        index = {}          # (a, pinned operators): {their images: targets}

        def pin(a, x, y):
            work = [(a, x, y)]
            while work:
                a, x, y = work.pop()
                if image[a][x] >= 0:
                    if image[a][x] != y:
                        return False
                    continue
                image[a][x] = y
                trail.append((image[a], x))
                work += [(b, s[x], t[y]) for b, s, t in ops[a]
                         if image[b][s[x]] != t[y]]
                # check at once each free cell whose images are all pinned
                for a2, x2 in up[a][x]:
                    if image[a2][x2] >= 0:
                        continue
                    pinned = [image[b][s[x2]] for b, s, _ in ops[a2]]
                    if -1 not in pinned:
                        options = candidates(a2, pinned)
                        if not options:
                            return False
                        if len(options) == 1:
                            work.append((a2, x2, options[0]))
            return True

        def candidates(a, pinned):
            known = tuple([k for k, y in enumerate(pinned) if y >= 0])
            if (a, known) not in index:
                index[a, known] = {}
                for y in range(sizes[a]):
                    index[a, known].setdefault(
                        tuple([ops[a][k][2][y] for k in known]), []).append(y)
            return index[a, known].get(tuple([pinned[k] for k in known]), ())

        for (key, x), y in (fixed or {}).items():
            a = at[key]
            if not 0 <= y < sizes[a] or not pin(a, x, y):
                return
        cells = [(a, x) for a, row in enumerate(image) for x in range(len(row))]
        # one frame per open choice: (index into cells, the candidates
        # left, trail length before the choice)
        stack = []
        i = 0
        while True:
            while i < len(cells) and image[cells[i][0]][cells[i][1]] >= 0:
                i += 1
            if i == len(cells):
                yield dict(zip(keys, map(list, image)))
            else:
                a, x = cells[i]
                options = candidates(a, [image[b][s[x]] for b, s, _ in ops[a]])
                stack.append((i, iter(options), len(trail)))
            # backtrack to the innermost choice with a candidate left
            while stack:
                i, options, mark = stack[-1]
                while len(trail) > mark:
                    row, x = trail.pop()
                    row[x] = -1
                y = next(options, None)
                if y is None:
                    stack.pop()
                elif pin(*cells[i], y):
                    break
            else:
                return

    def validate(self, pointed=False):
        X, Y = self.source, self.target
        v = list(itertools.islice(self.commutation_failures(
            X.bound, X.simplices.__getitem__, X.table,
            lambda n: Y.simplices.get(n, ()), Y.table, self.assign.get),
            MAX_VIOLATIONS))
        if pointed:
            if not (X.is_pointed() and Y.is_pointed()):
                v.append("pointed validation on unpointed object")
            elif self.assign.get(0, {}).get(X.basepoint) != Y.basepoint:
                v.append("basepoint not preserved")
        return v[:MAX_VIOLATIONS]

    def is_pointed(self):
        return (self.source.is_pointed() and self.target.is_pointed()
                and self.assign[0][self.source.basepoint] == self.target.basepoint)

    def __eq__(self, other):
        return (isinstance(other, SimplicialMap)
                and self.assign == other.assign)

    def __hash__(self):
        return hash(frozenset((n, frozenset(level.items()))
                              for n, level in self.assign.items()))


def _entry_failures(table, cells, index, op, n, m):
    """One failure for each cell of degree n without an image under the
    operator `op`, or whose image is not a cell of degree m."""
    for x in cells:
        if x not in table:
            yield f"{op} undefined on {x!r} at degree {n}"
        elif table[x] not in index:
            yield f"{op}({x!r}) not a ({m})-simplex"


def _differences(n, cells, left, right, equation):
    """One failure of `equation` for each degree-n cell at whose position
    the composed position lists `left` and `right` differ."""
    for x, a, b in zip(cells, left, right):
        if a != b:
            yield f"{equation} on {x!r} (degree {n})"


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
    index = {n: {t: p for p, t in enumerate(cells)}
             for n, cells in simplices.items()}

    def table(n, m, k):
        op = _tuple_face if m < n else _tuple_degen
        return [index[m][op(t, k)] for t in simplices[n]]
    return TruncatedSimplicialSet.from_operators(bound, simplices, table)


def truncate(X, bound):
    """Restriction to a smaller dimension bound."""
    if bound > X.bound:
        raise BoundMismatch(f"cannot extend bound {X.bound} to {bound}")
    simplices = {n: X.simplices[n] for n in range(bound + 1)}
    return TruncatedSimplicialSet.from_operators(bound, simplices, X.positions,
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
    return X.with_basepoint(X.simplices[0][0])


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
    # offsets[n][i]: the position of the first cell of objects[i] in degree n
    offsets = {n: list(itertools.accumulate([X.size(n) for X in objects], initial=0))
               for n in range(bound + 1)}

    def table(n, m, k):
        return [offsets[m][i] + q for i, X in enumerate(objects)
                for q in X.positions(n, m, k)]
    total = TruncatedSimplicialSet.from_operators(bound, simplices, table)
    injections = [SimplicialMap(X, total, {
                      n: list(range(offsets[n][i], offsets[n][i + 1]))
                      for n in X.degrees()})
                  for i, X in enumerate(objects)]
    return total, injections


def _restricted(X, kept, to, basepoint):
    """The set on the cells of X at the positions `kept[n]`, in order,
    with each operator image q in degree m sent to `to[m][q]`."""
    simplices = {n: tuple(map(X.simplices[n].__getitem__, kept[n]))
                 for n in X.degrees()}

    def table(n, m, k):
        return list(map(to[m].__getitem__,
                        map(X.positions(n, m, k).__getitem__, kept[n])))
    return TruncatedSimplicialSet.from_operators(X.bound, simplices, table,
                                                 basepoint=basepoint)


def quotient(X, pairs):
    """Quotient by the congruence generated by `pairs` (list of
    (degree, a, b)).  Closure propagates identifications along all faces
    and degeneracies; each class is represented by its first member in
    X's stored order, which is its least member."""
    parent = [list(range(X.size(n))) for n in X.degrees()]
    ops = [X._operators(n, X.bound) for n in X.degrees()]

    def find(n, p):
        row, root = parent[n], p
        while row[root] != root:
            root = row[root]
        while row[p] != root:
            row[p], p = root, row[p]
        return root

    work = [(n, X._index(n)[a], X._index(n)[b]) for n, a, b in pairs]
    while work:
        n, a, b = work.pop()
        ra, rb = find(n, a), find(n, b)
        if ra == rb:
            continue
        parent[n][rb] = ra
        work += [(m, t[a], t[b]) for m, t in ops[n]]

    # least[n][p]: the least position in the class of p
    least = []
    for n in X.degrees():
        first = {}
        least.append([first.setdefault(find(n, p), p) for p in range(X.size(n))])
    kept = [[p for p, q in enumerate(row) if p == q] for row in least]
    proj = []
    for row, ks in zip(least, kept):
        new = dict(zip(ks, itertools.count()))
        proj.append(list(map(new.__getitem__, row)))
    bp = (X.simplices[0][least[0][X._index(0)[X.basepoint]]]
          if X.is_pointed() else None)
    Q = _restricted(X, kept, proj, bp)
    return Q, SimplicialMap(X, Q, dict(enumerate(proj)))


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
        # (x, y) sits at position x * Y.size(n) + y
        tx, ty, width = X.positions(n, m, k), Y.positions(n, m, k), Y.size(m)
        return [a * width + b for a in tx for b in ty]
    bp = (X.basepoint, Y.basepoint) if X.is_pointed() and Y.is_pointed() else None
    return TruncatedSimplicialSet.from_operators(bound, simplices, table,
                                                 basepoint=bp)


def generated_subcomplex(X, generators):
    """Smallest subcomplex of X containing `generators` (list of
    (degree, simplex)), closed under faces and degeneracies up to the bound."""
    keep = [set() for _ in X.degrees()]
    ops = [X._operators(n, X.bound) for n in X.degrees()]
    work = [(n, X._index(n)[x]) for n, x in generators]
    while work:
        n, p = work.pop()
        if p in keep[n]:
            continue
        keep[n].add(p)
        work += [(m, t[p]) for m, t in ops[n]]
    kept = [sorted(ps) for ps in keep]
    to = [dict(zip(ks, itertools.count())) for ks in kept]
    bp = (X.basepoint if X.is_pointed() and X._index(0)[X.basepoint] in keep[0]
          else None)
    return _restricted(X, kept, to, bp)


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

def enumerate_maps(X, Y, fixed=None):
    """All simplicial maps X -> Y.  `fixed` pins images of selected
    cells, keyed by (degree, simplex); pinning the basepoint,
    {(0, X.basepoint): Y.basepoint}, gives the pointed maps."""
    if Y.bound < X.bound:
        raise BoundMismatch(f"target bound {Y.bound} < source bound {X.bound}")
    pins = {(n, X._index(n)[x]): Y._index(n).get(y, -1)
            for (n, x), y in (fixed or {}).items()}
    return [SimplicialMap(X, Y, assign) for assign in SimplicialMap.commuting_maps(
        reversed(X.degrees()), (X.size, lambda n: X._operators(n, X.bound)),
        (Y.size, lambda n: Y._operators(n, X.bound)), pins)]
