"""Deterministic ordering and canonical labels for simplex / object names.

Names are ints, strings, or (nested) tuples of those, totally ordered by
`sort_key`: ints (bools included) before strings before tuples, and
tuples lexicographically by that order.

`ordered` computes the order.  Python's own comparison of ints, strings
and nested tuples agrees with `sort_key` wherever it is defined, so
`ordered` runs the built-in sort, which compares in C, and calls
`sort_key` only when that sort raises TypeError: where an int meets a
string or a tuple at one position.  `sort_key` is that fallback, the
tests' oracle for `ordered`, and the key of one sort that keeps it on
purpose (`cat.PresentedGroupoid`, which says why).

Canonical order is a constructor invariant: every `TruncatedSimplicialSet`
and `TruncatedBisimplicialSet` stores each degree's cells in strictly
increasing `sort_key` order.  It is set only where cells come from an
unordered source: `sset._from_tuples`, `FinCategory.__init__` (objects
and morphisms), `PresentedGroupoid.__init__` (objects), the new names
that `spectra.mapping_space` makes, and `document._decode_sset`, which
writes a document's tables as positions in that order, not through
`from_names`.  Every other construction extends, tags or filters cells
that are already ordered, so consumers never sort stored cells again.
`cat._materialize` writes each morphism (a, e, b) straight to its
position in that order, computed from the ordered objects, and
`cat.colimit_record` numbers the classes of identified objects by their
least members, which is the order of their names; the presentations'
builders number generators in the order of their names too.
Results do not depend on the order; only the order of the output does.
"""


def sort_key(name):
    """Total order on the heterogeneous name universe."""
    if isinstance(name, bool):
        return (0, int(name))
    if isinstance(name, int):
        return (0, name)
    if isinstance(name, str):
        return (1, name)
    if isinstance(name, tuple):
        return (2, tuple(sort_key(part) for part in name))
    raise TypeError(f"unsupported name type: {type(name).__name__}")


def ordered(names):
    """The names of the iterable `names` as a list in `sort_key` order.
    The sort is stable, so equal names (1 and True) keep their order."""
    if iter(names) is names:
        names = tuple(names)        # the fallback reads `names` again
    try:
        return sorted(names)
    except TypeError:
        return sorted(names, key=sort_key)
