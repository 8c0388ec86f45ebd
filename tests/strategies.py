"""Hypothesis strategies for small simplicial sets and finite categories,
shared by the property tests."""

from hypothesis import strategies as st

from simpcat.cat import (FinCategory, arrow_cat, chaotic, coproduct_cat,
                         cyclic_group, discrete, product_cat)
from simpcat.sset import boundary, delta, horn, sphere, two_point

bounds = st.integers(min_value=0, max_value=3)


def standard(bound=bounds):
    """delta, boundary, horn, sphere and two_point on small inputs."""
    return st.one_of(
        st.builds(delta, st.integers(min_value=0, max_value=2), bound),
        st.builds(boundary, st.integers(min_value=1, max_value=3), bound),
        st.integers(min_value=1, max_value=3).flatmap(
            lambda n: st.builds(horn, st.just(n),
                                st.integers(min_value=0, max_value=n), bound)),
        st.builds(sphere, st.integers(min_value=1, max_value=2), bound),
        st.builds(two_point, bound))


def _given_in_reverse(C):
    """The same category, handed to the constructor in reverse order."""
    return FinCategory(reversed(C.objects), reversed(C.morphisms),
                       C.src, C.tgt, C.ident, C.comp)


categories = st.recursive(
    st.one_of(st.integers(min_value=1, max_value=3).map(
                  lambda k: chaotic(range(k))),
              st.builds(cyclic_group, st.integers(min_value=1, max_value=3)),
              st.just(arrow_cat())),
    lambda inner: (st.builds(product_cat, inner, inner)
                   | inner.map(_given_in_reverse)),
    max_leaves=2)

# Groupoids with at most four objects and sixteen morphisms.
groupoids = st.recursive(
    st.one_of(st.integers(min_value=1, max_value=2).map(
                  lambda k: discrete(range(k))),
              st.integers(min_value=1, max_value=2).map(
                  lambda k: chaotic(range(k))),
              st.builds(cyclic_group, st.integers(min_value=1, max_value=3))),
    lambda inner: (st.builds(product_cat, inner, inner)
                   | st.builds(lambda C, D: coproduct_cat([C, D])[0],
                               inner, inner)),
    max_leaves=2)
