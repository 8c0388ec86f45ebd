"""An independent oracle for `TruncatedSimplicialSet.identity_failures`.

`reference_identity_failures` is the checker as it was before tables
became position lists: it walks the operator dicts cell by cell for
every identity.  On the standard objects, and on copies of them with a
few table entries redirected, deleted or added, both checkers must yield
the same messages in the same order."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpcat.bisset import dec
from simpcat.sset import (TruncatedSimplicialSet, boundary, delta, horn,
                          sphere)


def reference_identity_failures(bound, cells, table):
    """Same contract as `TruncatedSimplicialSet.identity_failures`, one
    dict lookup at a time."""
    sets = [frozenset(cells(n)) for n in range(bound + 1)]
    ops, total = {}, True
    for n in range(bound + 1):
        for m in (n - 1, n + 1):
            if not 0 <= m <= bound:
                continue
            kind, op = ("face", "d") if m < n else ("degeneracy", "s")
            for k in range(n + 1):
                t = ops[n, m, k] = table(n, m, k)
                if t is None:
                    total = False
                    yield f"missing {kind} table {op}_{k} at degree {n}"
                    continue
                for x in cells(n):
                    if x not in t:
                        total = False
                        yield f"{op}_{k} undefined on {x!r} at degree {n}"
                    elif t[x] not in sets[m]:
                        total = False
                        yield f"{op}_{k}({x!r}) not a ({m})-simplex"
                for x in t:
                    if x not in sets[n]:
                        total = False
                        yield f"{op}_{k} defined on non-cell {x!r} at degree {n}"
    if not total:
        return
    for n in range(2, bound + 1):
        for j in range(1, n + 1):
            dj, ddj = ops[n, n - 1, j], ops[n - 1, n - 2, j - 1]
            for i in range(j):
                di, ddi = ops[n, n - 1, i], ops[n - 1, n - 2, i]
                for x in cells(n):
                    if ddi[dj[x]] != ddj[di[x]]:
                        yield f"d_{i} d_{j} != d_{j-1} d_{i} on {x!r} (degree {n})"
    for n in range(bound - 1):
        for i in range(n + 1):
            si, ssi = ops[n, n + 1, i], ops[n + 1, n + 2, i]
            for j in range(i, n + 1):
                sj, ssj = ops[n, n + 1, j], ops[n + 1, n + 2, j + 1]
                for x in cells(n):
                    if ssj[si[x]] != ssi[sj[x]]:
                        yield f"s_{j+1} s_{i} != s_{i} s_{j} on {x!r} (degree {n})"
    for n in range(bound):
        identity = {x: x for x in cells(n)}
        for j in range(n + 1):
            sj = ops[n, n + 1, j]
            for i in range(n + 2):
                di = ops[n + 1, n, i]
                if i in (j, j + 1):     # d_i s_j = identity
                    d = s = identity
                elif i < j:             # d_i s_j = s_{j-1} d_i
                    d, s = ops[n, n - 1, i], ops[n - 1, n, j - 1]
                else:                   # d_i s_j = s_j d_{i-1}
                    d, s = ops[n, n - 1, i - 1], ops[n - 1, n, j]
                for x in cells(n):
                    if di[sj[x]] != s[d[x]]:
                        yield f"d_{i} s_{j} identity fails on {x!r} (degree {n})"


def _sset(X):
    return X.bound, X.simplices.__getitem__, X.table


def _dec_parts(X):
    B = dec(X)
    return ([(top, *B._row(q)) for q, top in sorted(B.shape.row_top.items())]
            + [(top, *B._column(p))
               for p, top in sorted(B.shape.column_top.items())])


OBJECTS = ([_sset(X) for X in (delta(1, 3), delta(2, 4), boundary(2, 3),
                                horn(2, 1, 3), sphere(1, 3), sphere(2, 4))]
           + _dec_parts(delta(1, 3)) + _dec_parts(sphere(1, 2)))


def _tables(bound, cells, table):
    """Copies of every operator table, keyed by (n, m, k)."""
    return {(n, m, k): dict(table(n, m, k))
            for n in range(bound + 1) for m in (n - 1, n + 1)
            if 0 <= m <= bound for k in range(n + 1)}


def _both(bound, cells, tables):
    lookup = lambda n, m, k: tables.get((n, m, k))     # noqa: E731
    return (list(reference_identity_failures(bound, cells, lookup)),
            list(TruncatedSimplicialSet.identity_failures(bound, cells, lookup)))


def _agree(bound, cells, tables):
    reference, checker = _both(bound, cells, tables)
    assert checker == reference
    lookup = lambda n, m, k: tables.get((n, m, k))     # noqa: E731
    assert list(itertools.islice(TruncatedSimplicialSet.identity_failures(
        bound, cells, lookup), 20)) == reference[:20]
    return reference


@pytest.mark.parametrize("index", range(len(OBJECTS)))
def test_standard_objects_pass_both_checkers(index):
    bound, cells, table = OBJECTS[index]
    assert _agree(bound, cells, _tables(bound, cells, table)) == []


@st.composite
def redirected(draw):
    """A standard object with 1-3 table entries sent to another cell of
    the target degree."""
    bound, cells, table = draw(st.sampled_from(OBJECTS))
    tables = _tables(bound, cells, table)
    keys = sorted(key for key, t in tables.items()
                  if t and len(cells(key[1])) > 1)
    for _ in range(draw(st.integers(1, 3))):
        if not keys:
            break
        n, m, k = key = draw(st.sampled_from(keys))
        x = draw(st.sampled_from(cells(n)))
        targets = [y for y in cells(m) if y != tables[key][x]]
        tables[key][x] = draw(st.sampled_from(targets))
    return bound, cells, tables


@settings(max_examples=150, deadline=None)
@given(redirected())
def test_redirected_entries_give_the_reference_messages(case):
    _agree(*case)


@pytest.mark.parametrize("index", [i for i, (bound, _, _) in enumerate(OBJECTS)
                                   if bound >= 1])
def test_deleted_stray_and_missing_entries_give_the_reference_messages(index):
    bound, cells, table = OBJECTS[index]
    tables = _tables(bound, cells, table)
    faces = tables[1, 0, 1]
    del faces[cells(1)[-1]]
    tables[0, 1, 0]["stray"] = cells(1)[0]
    faces["stray"] = "no-such-vertex"
    del tables[bound, bound - 1, 0]
    reference = _agree(bound, cells, tables)
    assert any("defined on non-cell 'stray'" in msg for msg in reference)
    assert any("undefined" in msg for msg in reference)
    assert any(msg.startswith("missing face table") for msg in reference)
