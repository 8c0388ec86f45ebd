"""`names.ordered` against its oracle, `sorted(..., key=sort_key)`.

Outputs are compared by `repr`, so 1 and True (equal, with equal keys)
must also come out in the same order: the stable input order.
"""

import pytest
from hypothesis import given, settings, strategies as st

from simpcat.names import ordered, sort_key

# few distinct atoms, so that ties and shared prefixes are common
atoms = st.one_of(st.integers(min_value=-2, max_value=3), st.booleans(),
                  st.sampled_from(["", "a", "b", "ab", "*"]))
names = st.recursive(atoms, lambda inner: st.tuples(inner)
                     | st.tuples(inner, inner) | st.tuples(inner, inner, inner),
                     max_leaves=6)

# ints and bools only, or tuples of them: the built-in sort never raises
homogeneous = st.one_of(
    st.lists(st.one_of(st.integers(min_value=-2, max_value=3), st.booleans())),
    st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                       st.one_of(st.integers(min_value=0, max_value=2),
                                 st.booleans()))))


def oracle(items):
    return sorted(items, key=sort_key)


def raises_type_error(items):
    try:
        sorted(items)
    except TypeError:
        return True
    return False


@settings(max_examples=150, deadline=None)
@given(st.lists(names, max_size=12))
def test_ordered_matches_sort_key(items):
    assert repr(ordered(items)) == repr(oracle(items))


@settings(max_examples=100, deadline=None)
@given(homogeneous)
def test_ordered_matches_sort_key_without_fallback(items):
    assert not raises_type_error(items)
    assert repr(ordered(items)) == repr(oracle(items))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(names, names), max_size=10))
def test_ordered_matches_sort_key_on_pairs(items):
    """Pairs such as the (vertex, edge) pairs that `edge_path_group`
    sorts and the (key, value) items of a composition table."""
    assert repr(ordered(items)) == repr(oracle(items))


@settings(max_examples=100, deadline=None)
@given(st.lists(names, max_size=8), st.sampled_from([list, tuple, set, iter]))
def test_ordered_reads_any_iterable(items, kind):
    """A set, or an iterator that the fallback could not read twice,
    gives the same list as its items."""
    given_items = kind(items)
    expected = oracle(set(items) if kind is set else items)
    assert repr(ordered(given_items)) == repr(expected)


@pytest.mark.parametrize("items", [
    [True, 1, False, 0, 1, True],
    [(0, "a"), (0, 1), (True, "b"), (1, 0)],
    ["b", 2, ("a",), 1, "a", (1,), (1, "x"), (1, 2)],
    [(("a",), 1), ((0,), 1), ((0,), "z"), (("a",), (0,))],
], ids=["bool-int-ties", "mixed-second-part", "mixed-top-level",
        "nested-mixtures"])
def test_ordered_on_fixed_mixtures(items):
    for seq in (items, list(reversed(items))):
        assert repr(ordered(seq)) == repr(oracle(seq))


def test_mixtures_take_the_fallback():
    """The fixed mixtures above that put an int against a str or a
    tuple at one position make the built-in sort raise, so the fallback
    is exercised; the bool and int ties do not."""
    assert not raises_type_error([True, 1, False, 0])
    assert raises_type_error([(0, "a"), (0, 1)])
    assert raises_type_error(["b", 2])
