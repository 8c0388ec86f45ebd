"""Canonical cell order is a constructor invariant.

Every simplicial and bisimplicial set stores each degree's cells in
strictly increasing `sort_key` order, so no consumer sorts them again.
Explicit document data may list cells in any order and loads to the
same stored order, and hence to the same output, as sorted data.
"""

import json
import random

from hypothesis import given, settings, strategies as st

from simpcat.bisset import box_product, d_star, dec, diag, wbar
from simpcat.cat import NumberedNerve, nerve
from simpcat.cli import main
from simpcat.document import parse_document, sset_to_entry
from simpcat.names import sort_key
from simpcat.scat import constant_scat, diag_nerve_iso
from simpcat.sset import (boundary, c_sigma, coproduct, delta, product_sset,
                          quotient, two_point)

from strategies import bounds, categories, standard


def assert_canonical(cells):
    keys = [sort_key(c) for c in cells]
    assert all(a < b for a, b in zip(keys, keys[1:])), cells


def assert_sset_canonical(X):
    for n in X.degrees():
        assert_canonical(X.simplices[n])


def assert_bisset_canonical(B):
    for pq in B.shape.support:
        assert_canonical(B.simplices[pq])


@settings(max_examples=30, deadline=None)
@given(standard())
def test_standard_objects_are_canonical(X):
    assert_sset_canonical(X)


@settings(max_examples=30, deadline=None)
@given(st.data(), bounds)
def test_products_coproducts_and_quotients_are_canonical(data, b):
    X = data.draw(standard(st.just(b)))
    Y = data.draw(standard(st.just(b)))
    assert_sset_canonical(product_sset(X, Y))
    assert_sset_canonical(coproduct([X, Y])[0])
    assert_sset_canonical(coproduct([Y, X, Y])[0])
    n = data.draw(st.integers(min_value=0, max_value=b))
    if X.size(n):
        cell = st.sampled_from(X.simplices[n])
        pairs = data.draw(st.lists(st.tuples(cell, cell), max_size=3))
        assert_sset_canonical(quotient(X, [(n, a, c) for a, c in pairs])[0])


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_c_sigma_is_canonical(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    sigma = tuple(sorted(data.draw(st.sets(
        st.integers(min_value=0, max_value=n), min_size=1, max_size=n))))
    b = data.draw(st.integers(min_value=max(n - 1, 0), max_value=3))
    assert_sset_canonical(c_sigma(n, sigma, b))


@settings(max_examples=30, deadline=None)
@given(categories, bounds)
def test_nerves_and_chains_are_canonical(C, b):
    assert_canonical(C.objects)
    assert_canonical(C.morphisms)
    N = NumberedNerve(C, b)
    for k in range(b + 1):
        assert_canonical(N.names(k))
    assert_sset_canonical(nerve(C, b))
    assert_sset_canonical(diag_nerve_iso(constant_scat(C, b)))


@settings(max_examples=20, deadline=None)
@given(standard(st.integers(min_value=1, max_value=3)), standard())
def test_bisimplicial_constructions_are_canonical(X, Y):
    for B in (dec(X), d_star(X), box_product(X, Y)):
        assert_bisset_canonical(B)
        assert_sset_canonical(diag(B))
        assert_sset_canonical(wbar(B))


def _shuffled(entry, seed):
    """The same entry with its simplices and table rows listed in a
    random order."""
    rng = random.Random(seed)
    data = entry["data"]
    for cells in data["simplices"].values():
        rng.shuffle(cells)
    for kind in ("faces", "degens"):
        for key, table in data[kind].items():
            rows = list(table.items())
            rng.shuffle(rows)
            data[kind][key] = dict(rows)
    return entry


def _document(*entities):
    return json.dumps({"schema": "simpcat-document/1", "config": {},
                       "entities": list(entities)})


def _entities(shuffle):
    def entry(name, X):
        e = sset_to_entry(name, X)
        return _shuffled(e, seed=len(name)) if shuffle else e
    return (entry("annulus", product_sset(boundary(2, 3), delta(1, 3))),
            entry("basket", two_point(3)),
            {"name": "s0", "kind": "simplicial_category",
             "builder": {"type": "s0_scat", "bound": 2}})


def test_shuffled_data_loads_to_canonical_order():
    text = _document(*_entities(shuffle=True))
    assert text != _document(*_entities(shuffle=False))
    X = parse_document(text).entity("annulus")
    reference = product_sset(boundary(2, 3), delta(1, 3))
    assert X.simplices == reference.simplices
    assert_sset_canonical(X)


def test_shuffled_data_gives_identical_output(tmp_path, capsys):
    commands = [["homology", "annulus"], ["pi1", "annulus"],
                ["mapspace", "s0", "--source", "basket"]]
    outputs = []
    for shuffle in (False, True):
        path = tmp_path / f"doc-{shuffle}.json"
        path.write_text(_document(*_entities(shuffle)))
        for op, entity, *rest in commands:
            assert main(["compute", op, str(path), entity] + rest) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
