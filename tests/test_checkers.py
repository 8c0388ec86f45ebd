"""The shared simplicial-identity checkers behind every audit and every
map validation: each single-entry corruption is reported, and the cases
the per-class checkers used to miss or crash on are reported too."""

import pytest

from simpcat.bisset import (BisimplicialMap, TruncatedBisimplicialSet,
                            box_product, dec)
from simpcat.cat import Functor
from simpcat.scat import SimplicialFunctor, s0_scat
from simpcat.sset import SimplicialMap, TruncatedSimplicialSet, delta


def _position_lists(X):
    """The stored position lists of X, each with the positions of its
    target degree."""
    return [(X.positions(n, m, k), range(X.size(m)))
            for n in X.degrees() for m in (n - 1, n + 1)
            if 0 <= m <= X.bound for k in range(n + 1)]


def _sset():
    X = delta(1, 3)
    return X.audit, _position_lists(X)


def _bisset():
    """Every row's and every column's position lists.  `dec` shares its
    lists with the set it shifts, so each table gets its own copy first."""
    D = dec(delta(1, 3))
    B = TruncatedBisimplicialSet.from_operators(
        D.shape, D.simplices,
        lambda p, q, m, k: list(D.rows[q].positions(p, m, k)),
        lambda p, q, m, k: list(D.columns[p].positions(q, m, k)))
    return B.audit, [table for X in (*B.rows.values(), *B.columns.values())
                     for table in _position_lists(X)]


def _functor_tables(functors):
    out = []
    for F in {id(F): F for F in functors}.values():
        out += [(F.obj_map, F.target.objects), (F.mor_map, F.target.morphisms)]
    return out


def _scat():
    S = s0_scat(2)
    return S.audit, _functor_tables(list(S.faces.values())
                                    + list(S.degens.values()))


def _sset_map():
    X = delta(1, 3)
    f = SimplicialMap.identity(X)
    return f.validate, [(f.assign[n], X.simplices[n]) for n in X.degrees()]


def _bisset_map():
    B = dec(delta(1, 3))
    f = BisimplicialMap(B, B, {pq: {x: x for x in cells}
                               for pq, cells in B.simplices.items()})
    return f.validate, [(f.assign[pq], B.simplices[pq]) for pq in B.simplices]


def _scat_functor():
    S = s0_scat(2)
    F = SimplicialFunctor(S, S, {n: Functor.identity(S.levels[n])
                                 for n in range(S.bound + 1)})
    return F.validate, _functor_tables(F.levels.values())


@pytest.mark.parametrize("make", [_sset, _bisset, _scat, _sset_map,
                                  _bisset_map, _scat_functor],
                         ids=["sset", "bisset", "scat", "sset-map",
                              "bisset-map", "scat-functor"])
def test_every_single_entry_corruption_is_reported(make):
    check, tables = make()
    assert check() == []
    missed, tried = [], 0
    for table, values in tables:
        for x in range(len(table)) if isinstance(table, list) else list(table):
            original = table[x]
            for y in values:
                if y != original:
                    table[x] = y
                    tried += 1
                    if not check():
                        missed.append((x, y))
            table[x] = original
    assert tried and not missed
    assert check() == []


def test_row_whose_twin_cell_breaks_s1_s0_is_reported():
    B = box_product(delta(0, 2), delta(0, 0))      # one row, p = 0..2
    R = B.row(0)
    v = R.simplices[0][0]
    s0v = R.degen(0, 0, v)
    twin = ("twin", 0)
    simplices = dict(R.simplices)
    simplices[2] = simplices[2] + (twin,)
    faces = {key: dict(t) for key, t in R.faces.items()}
    for i in range(3):
        faces[(2, i)][twin] = s0v                   # same faces as s_0 s_0 v
    degens = {key: dict(t) for key, t in R.degens.items()}
    degens[(1, 1)][s0v] = twin                      # s_1 s_0 v != s_0 s_0 v
    row = TruncatedSimplicialSet.from_names(
        R.bound, simplices, lambda n, m, k: (faces if m < n else degens)[n, k])
    column = TruncatedSimplicialSet(0, {0: simplices[2]}, {})
    C = TruncatedBisimplicialSet(B.shape, {0: row}, {**B.columns, 2: column})
    assert any("s_1 s_0 != s_0 s_0" in msg for msg in C.audit())


def test_missing_bisimplicial_degeneracy_entry_is_reported():
    B = dec(delta(1, 3))
    R = B.row(1)
    degens = {key: dict(t) for key, t in R.degens.items()}
    table = degens[(0, 0)]
    del table[next(iter(table))]
    row = TruncatedSimplicialSet.from_names(
        R.bound, R.simplices, lambda n, m, k: (R.faces if m < n else degens)[n, k])
    C = TruncatedBisimplicialSet(B.shape, {**B.rows, 1: row}, B.columns)
    assert any("undefined" in msg for msg in C.audit())


def test_bisimplicial_map_with_a_missing_image_is_reported():
    B = dec(delta(1, 3))
    assign = {pq: {x: x for x in cells} for pq, cells in B.simplices.items()}
    del assign[(1, 1)][B.simplices[(1, 1)][0]]
    bad = BisimplicialMap(B, B, assign).validate()
    assert any("no valid image" in msg for msg in bad)


@pytest.mark.parametrize("part, key, stray, value, message", [
    ("faces", (1, 0), (5, 5), (0,), "d_0 defined on non-cell (5, 5) at degree 1"),
    ("degens", (0, 0), (5,), (0, 1), "s_0 defined on non-cell (5,) at degree 0"),
], ids=["face", "degeneracy"])
def test_stray_table_key_is_reported(part, key, stray, value, message):
    """A table key that is not a cell of its degree, in an object built
    from names in code: the conversion keeps it, and the audit names it."""
    X = delta(1, 2)
    tables = {"faces": {k: dict(t) for k, t in X.faces.items()},
              "degens": {k: dict(t) for k, t in X.degens.items()}}
    tables[part][key][stray] = value
    Y = TruncatedSimplicialSet.from_names(
        X.bound, X.simplices,
        lambda n, m, k: tables["faces" if m < n else "degens"][n, k])
    assert Y.audit() == [message]
    assert Y.nondegenerate(1) == X.nondegenerate(1)
