"""Deterministic ordering and canonical labels for simplex / object names.

Names are ints, strings, or (nested) tuples of those, totally ordered by
`sort_key`.

Canonical order is a constructor invariant: every `TruncatedSimplicialSet`
and `TruncatedBisimplicialSet` stores each degree's cells in strictly
increasing `sort_key` order.  It is set only where cells come from an
unordered source: `sset._from_tuples`, `FinCategory.__init__` and
`PresentedGroupoid.__init__` (objects and morphisms), the new names that
`spectra.mapping_space` makes, and `document._decode_sset`.  Every other
construction extends, tags or filters cells that are already ordered,
which keeps the order, so consumers never sort stored cells again.
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
