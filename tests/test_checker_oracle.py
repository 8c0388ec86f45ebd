"""Independent oracles for `TruncatedSimplicialSet.identity_failures`
and `SimplicialMap.commutation_failures`.

`reference_identity_failures` is the checker as it was before tables
became position lists: it walks the operator dicts cell by cell for
every identity.  On the standard objects, and on copies of them with a
few table entries redirected, deleted or added, both checkers must yield
the same messages in the same order.

`reference_commutation_failures` is the map checker as it was before it
read position lists, one dict lookup per cell and operator.  On
simplicial maps, the rows and columns of a bisimplicial map and the two
parts of a simplicial functor, clean and with images redirected or
deleted, both must yield the same messages in the same order."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpcat.bisset import d_star_map, dec
from simpcat.cat import Functor, cyclic_group, enumerate_functors, nerve_functor
from simpcat.scat import constant_scat
from simpcat.sset import (SimplicialMap, TruncatedSimplicialSet,
                          _operator_keys, boundary, delta, horn, sphere)

from helpers import named_tables


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
    tables = named_tables(X)
    return X.bound, X.simplices.__getitem__, lambda *key: tables[key]


def _dec_parts(X):
    B = dec(X)
    return ([_sset(row) for _, row in sorted(B.rows.items())]
            + [_sset(column) for _, column in sorted(B.columns.items())])


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


# ---------------------------------------------------------------------
# the map checker
# ---------------------------------------------------------------------

def reference_commutation_failures(bound, source_cells, source_table,
                                   target_cells, target_table, assign):
    """The map checker as it was before it read position lists: `assign(n)`
    is a dict {cell: image}, or None when missing, and cells and tables
    are given as for `reference_identity_failures`."""
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


def _named_map(bound, X, Y, assign):
    """A map case: the bound, each side as (cells, name tables), and the
    assignment {n: {cell: image}}."""
    return (bound, (X.simplices.__getitem__, named_tables(X)),
            (Y.simplices.__getitem__, named_tables(Y)), assign)


def _sset_map(f):
    return _named_map(f.source.bound, f.source, f.target, f.assign)


def _bisset_map_lines(f):
    """The rows and the columns of a bisimplicial map, as map cases."""
    B, C = f.source, f.target
    return ([_named_map(min(X.bound, C.rows[q].bound), X, C.rows[q],
                        {p: f.assign[p, q] for p in X.degrees()})
             for q, X in sorted(B.rows.items()) if q in C.rows]
            + [_named_map(min(X.bound, C.columns[p].bound), X, C.columns[p],
                          {q: f.assign[p, q] for q in X.degrees()})
               for p, X in sorted(B.columns.items()) if p in C.columns])


def _scat_functor_parts(S):
    """The objects and the morphisms of the identity simplicial functor
    of S, as map cases."""
    out = []
    for cells, mapping in (("objects", "obj_map"), ("morphisms", "mor_map")):
        side = (lambda n, cells=cells: getattr(S.levels[n], cells),
                {key: getattr(S.table(*key), mapping)
                 for key in _operator_keys(S.bound)})
        F = [Functor.identity(S.levels[n]) for n in range(S.bound + 1)]
        out.append((S.bound, side, side,
                    {n: dict(getattr(F[n], mapping)) for n in range(S.bound + 1)}))
    return out


def _inclusion(X, Y):
    return SimplicialMap(X, Y, {n: {x: x for x in X.simplices[n]}
                                for n in X.degrees()})


SSET_MAPS = ([SimplicialMap.identity(X)
              for X in (delta(1, 3), delta(2, 4), boundary(2, 3),
                        horn(2, 1, 3), sphere(1, 3), sphere(2, 4))]
             + [_inclusion(boundary(2, 3), delta(2, 3)),
                _inclusion(horn(2, 1, 3), delta(2, 3)),
                _inclusion(horn(3, 0, 3), boundary(3, 3)),
                nerve_functor(enumerate_functors(cyclic_group(2),
                                                 cyclic_group(4))[-1], 3)])
MAPS = ([_sset_map(f) for f in SSET_MAPS]
        + _bisset_map_lines(d_star_map(_inclusion(horn(2, 1, 3), delta(2, 3))))
        + _scat_functor_parts(constant_scat(cyclic_group(3), 3)))


def _reference(case):
    bound, (cells, tables), (target_cells, target_tables), assign = case
    return list(reference_commutation_failures(
        bound, cells, lambda *key: tables[key], target_cells,
        lambda *key: target_tables[key], assign.get))


def _positional(case):
    """The positional checker's messages on `case`, its position lists
    and images read off its names."""
    bound, (cells, tables), (target_cells, target_tables), assign = case

    def positions(cells, tables, n, m, k):
        at = {y: p for p, y in enumerate(cells(m))}
        return [at[tables[n, m, k][x]] for x in cells(n)]
    index = [{y: p for p, y in enumerate(target_cells(n))}
             for n in range(bound + 1)]
    images = [None if n not in assign else
              [index[n].get(assign[n].get(x)) for x in cells(n)]
              for n in range(bound + 1)]
    return list(SimplicialMap.commutation_failures(
        bound, cells, lambda *key: positions(cells, tables, *key),
        lambda *key: positions(target_cells, target_tables, *key), images))


@pytest.mark.parametrize("index", range(len(MAPS)))
def test_clean_maps_pass_both_map_checkers(index):
    assert _reference(MAPS[index]) == _positional(MAPS[index]) == []


def _broken(draw, bound, target_cells, assign):
    """A copy of `assign` with 1-3 images redirected to another cell of
    the target degree, deleted, or missing with their whole degree."""
    assign = {n: dict(level) for n, level in assign.items()}
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, bound))
        if not assign.get(n):
            continue
        x = draw(st.sampled_from(list(assign[n])))
        others = [y for y in target_cells(n) if y != assign[n][x]]
        how = draw(st.sampled_from(["redirect", "delete", "degree"]))
        if how == "redirect" and others:
            assign[n][x] = draw(st.sampled_from(others))
        elif how == "delete":
            del assign[n][x]
        elif how == "degree":
            del assign[n]
    return assign


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_broken_maps_give_the_reference_messages(data):
    bound, source, target, assign = data.draw(st.sampled_from(MAPS))
    case = (bound, source, target,
            _broken(data.draw, bound, target[0], assign))
    assert _positional(case) == _reference(case)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_broken_simplicial_maps_validate_as_the_reference(data):
    """`SimplicialMap.validate` reads its images through the target's
    index, and lists what the reference lists, up to its limit."""
    f = data.draw(st.sampled_from(SSET_MAPS))
    assign = _broken(data.draw, f.source.bound, f.target.simplices.__getitem__,
                     f.assign)
    reference = _reference(_named_map(f.source.bound, f.source, f.target,
                                      assign))
    assert SimplicialMap(f.source, f.target, assign).validate() == reference[:20]
