"""Independent oracles for the positional homology path.

`normalized_chains` and `_chain_map` read cells by position only, and
`smith_invariants` splits off unit pivots before its heap loop.  Beside
them stand the forms they replaced, kept here as they were:

* `reference_chains` and `reference_chain_map`, which key cells by name
  and read faces and images through the name dicts;
* `reference_smith`, the heap loop alone.

On generated inputs the two sides must build equal chain complexes
(ranks and boundary dicts) and equal mapping cones, and every Smith
reduction must agree with the heap loop and with sympy.  The invariant
factors that a complex finds by its cleared coboundary reduction must
agree with the heap loop on each whole boundary."""

import heapq
import importlib
import math

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.matrices.normalforms import smith_normal_form

from simpcat.bisset import d_star, d_star_map, dec
from simpcat.cat import cyclic_group, nerve
from simpcat.homology import (ChainComplex, _chain_map, mapping_cone,
                              normalized_chains, smith_invariants)
from simpcat.scat import (diag_nerve_iso, diag_nerve_iso_map, pi_functor,
                          pi_levelwise, s0_scat, suspend)
from simpcat.sset import (SimplicialMap, boundary, delta, horn, sphere,
                          two_point)

from helpers import named_tables
from strategies import standard


# ---------------------------------------------------------------------
# the replaced forms
# ---------------------------------------------------------------------

def reference_chains(X):
    """Chains on nondegenerate simplices; degenerate face images vanish."""
    basis = {n: {x: k for k, x in enumerate(X.nondegenerate(n))}
             for n in X.degrees()}
    ranks = {n: len(basis[n]) for n in basis}
    boundaries, tables = {}, named_tables(X)
    for n in range(1, X.bound + 1):
        cols = {}
        for x, c in basis[n].items():
            acc = {}
            for i in range(n + 1):
                y = tables[n, n - 1, i][x]
                r = basis[n - 1].get(y)
                if r is not None:
                    acc[r] = acc.get(r, 0) + (1 if i % 2 == 0 else -1)
            cols[c] = {r: v for r, v in acc.items() if v}
        boundaries[n] = cols
    complex_ = ChainComplex(ranks, boundaries)
    complex_.check_dd_zero()
    return complex_


def reference_chain_map(f):
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


def reference_cone(f):
    """Mapping cone from the name-keyed chains and chain map."""
    cx, cy = reference_chains(f.source), reference_chains(f.target)
    fm = reference_chain_map(f)
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
            cols[shift + c] = {cx.rank(n - 2) + r: v
                               for r, v in cy.boundary(n).get(c, {}).items()}
        boundaries[n] = cols
    cone = ChainComplex(ranks, boundaries)
    cone.check_dd_zero()
    return cone


def reference_smith(cols):
    """Invariant factors by the heap loop alone: the pivot is an entry
    of least absolute value, ties broken by Markowitz cost, taken from a
    lazy min-heap."""
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


# ---------------------------------------------------------------------
# chain complexes
# ---------------------------------------------------------------------

def assert_same_complex(mine, theirs):
    assert mine.ranks == theirs.ranks
    assert mine.boundaries == theirs.boundaries
    for n, cols in theirs.boundaries.items():
        assert smith_invariants(cols) == reference_smith(cols)


@settings(max_examples=60, deadline=None)
@given(standard())
def test_chains_of_standard_sets_match_the_names(X):
    assert_same_complex(normalized_chains(X), reference_chains(X))


SMALL = {
    "delta(0)": lambda b: delta(0, b),
    "delta(1)": lambda b: delta(1, b),
    "boundary(1)": lambda b: boundary(1, b),
    "boundary(2)": lambda b: boundary(2, b),
    "horn(2,1)": lambda b: horn(2, 1, b),
    "sphere(1)": lambda b: sphere(1, b),
    "two_point": two_point,
}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(SMALL)), st.integers(min_value=4, max_value=6),
       st.sampled_from([dec, d_star]))
def test_chains_of_diagonal_nerves_match_the_names(shape, b, construction):
    D = diag_nerve_iso(pi_levelwise(construction(SMALL[shape](b))))
    assert_same_complex(normalized_chains(D), reference_chains(D))


def test_chains_of_the_suspended_point_match_the_names():
    D = diag_nerve_iso(suspend(s0_scat(2)))
    assert_same_complex(normalized_chains(D), reference_chains(D))


def _horn_probe_map(n, i, b):
    H, D = horn(n, i, b), delta(n, b)
    incl = SimplicialMap(H, D, {k: {x: x for x in H.simplices[k]}
                                for k in H.degrees()})
    return diag_nerve_iso_map(pi_functor(
        d_star_map(incl), target_pi=pi_levelwise(d_star(D))))


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=1, max_value=2).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n))),
    st.integers(min_value=5, max_value=6))
def test_cones_of_horn_probes_match_the_names(horn_index, b):
    f = _horn_probe_map(*horn_index, b)
    assert _chain_map(f) == reference_chain_map(f)
    assert_same_complex(mapping_cone(f), reference_cone(f))


# ---------------------------------------------------------------------
# Smith invariants
# ---------------------------------------------------------------------

@st.composite
def wide_matrices(draw):
    """Rows of a sparse 1-6 row matrix with at least five times as many
    columns as rows, each column with at most four entries drawn from
    +-1 and non-units."""
    nr = draw(st.integers(1, 6))
    nc = draw(st.integers(5 * nr, 8 * nr))
    entries = st.sampled_from([1, -1, 1, -1, 2, -2, 3, -4, 6])
    rows = [[0] * nc for _ in range(nr)]
    for c in range(nc):
        for r in draw(st.lists(st.integers(0, nr - 1), max_size=4,
                               unique=True)):
            rows[r][c] = draw(entries)
    return rows


def _columns(rows):
    return {c: {r: row[c] for r, row in enumerate(rows) if row[c]}
            for c in range(len(rows[0]))}


def _sympy_invariants(rows):
    return [abs(int(v)) for v in smith_normal_form(sympy.Matrix(rows)).diagonal()
            if v != 0]


@settings(max_examples=150, deadline=None)
@given(wide_matrices())
def test_smith_invariants_of_wide_matrices_match_sympy(rows):
    cols = _columns(rows)
    expected = _sympy_invariants(rows)
    assert smith_invariants(cols) == expected
    assert reference_smith(cols) == expected


@settings(max_examples=150, deadline=None)
@given(wide_matrices())
def test_smith_invariants_of_a_matrix_and_its_transpose(rows):
    transpose = [list(col) for col in zip(*rows)]
    assert smith_invariants(_columns(rows)) == \
        smith_invariants(_columns(transpose)) == _sympy_invariants(rows)


# ---------------------------------------------------------------------
# invariants by cleared coboundary reduction
# ---------------------------------------------------------------------

def assert_cleared_invariants(complex_):
    """Each degree's invariant factors, found in order of degree with
    clearing, equal the heap loop's on the whole boundary."""
    for i in range(complex_.top + 2):
        assert complex_.invariants(i) == reference_smith(complex_.boundary(i))


def _fallbacks(monkeypatch):
    """The boundaries that a complex hands to `smith_invariants`."""
    # the package's `homology` function shadows the submodule attribute
    module = importlib.import_module("simpcat.homology")
    calls, smith = [], module.smith_invariants
    monkeypatch.setattr(module, "smith_invariants",
                        lambda cols: calls.append(cols) or smith(cols))
    return calls


@settings(max_examples=60, deadline=None)
@given(standard())
def test_cleared_invariants_of_standard_sets(X):
    assert_cleared_invariants(normalized_chains(X))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(SMALL)), st.integers(min_value=4, max_value=6),
       st.sampled_from([dec, d_star]))
def test_cleared_invariants_of_diagonal_nerves(shape, b, construction):
    D = diag_nerve_iso(pi_levelwise(construction(SMALL[shape](b))))
    assert_cleared_invariants(normalized_chains(D))


def test_cleared_invariants_of_the_suspended_point():
    assert_cleared_invariants(normalized_chains(diag_nerve_iso(suspend(s0_scat(2)))))


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=1, max_value=2).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n))),
    st.integers(min_value=5, max_value=6))
def test_cleared_invariants_of_horn_probe_cones(horn_index, b):
    assert_cleared_invariants(mapping_cone(_horn_probe_map(*horn_index, b)))


@pytest.mark.parametrize("g", [2, 3, 4])
def test_cleared_invariants_of_cyclic_nerves_reach_the_fallback(g, monkeypatch):
    """BZ/g has H_i = Z/g in odd degrees, so some pivot is not +-1 there
    and that degree's boundary goes to `smith_invariants`."""
    calls = _fallbacks(monkeypatch)
    N = normalized_chains(nerve(cyclic_group(g), 5))
    assert_cleared_invariants(N)
    assert [N.invariants(i)[-1:] for i in (2, 4)] == [[g], [g]]
    assert calls


def test_clearing_skips_columns_of_a_horn_probe_cone(monkeypatch):
    """Some coboundary column with entries is cleared, and every pivot
    is a unit, so no degree reaches the fallback."""
    calls = _fallbacks(monkeypatch)
    cone = mapping_cone(_horn_probe_map(2, 1, 6))
    skipped = 0
    for i in range(1, cone.top + 2):
        # the columns of coboundary i - 1 that have entries
        cells = {r for col in cone.boundary(i).values() for r in col}
        skipped += len(cells & set(cone._cleared))
        cone.invariants(i)
    assert skipped and not calls
    assert_cleared_invariants(cone)


def test_a_complex_not_checked_for_dd_zero_is_not_cleared():
    complex_ = ChainComplex({0: 2, 1: 1}, {1: {0: {0: 1, 1: -1}}})
    assert complex_.invariants(1) == [1]
    assert complex_._cleared is None
