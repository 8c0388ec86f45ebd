"""The simplicial-set decoder against a reference that decodes by names.

`reference` is the decoder that built each table as a dict of names and
converted them all with `TruncatedSimplicialSet.from_names`.
`document._decode_sset` writes tables straight into position lists and
keeps its error messages, so on every input the two must give an equal
set (cells, every position list, basepoint, audit) or refuse with the
same text.  Inputs are valid encodings of standard sets, with key
spellings varied and table rows shuffled; those with one entry broken;
and the shapes that the fuzz test draws.
"""

import copy
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from simpcat.document import (DocumentError, _decode_sset, _field, _ints,
                              _need, _put, sset_to_entry)
from simpcat.names import ordered
from simpcat.sset import (SimplicialError, TruncatedSimplicialSet,
                          _operator_keys)
from strategies import standard
from test_document_fuzz import SSET_DATA

# -- the reference: every table a dict of names -------------------------


def _name(obj):
    kind = type(obj)
    if kind is list:
        return tuple(map(_name, obj))
    if kind is int or kind is str:
        return obj
    raise DocumentError(f"bad name payload {obj!r}")


def _table(table, what, memo):
    out = {}
    for key, value in _need(table, dict, what).items():
        cell = memo.get(key)
        if cell is None:
            try:
                cell = json.loads(key)
            except ValueError as e:
                raise DocumentError(f"{what}: bad cell key {key!r}") from e
            cell = memo[key] = _name(cell)
        _put(out, cell, _name(value), what)
    return out


def _tables(data, part, simplices):
    bound = len(simplices) - 1
    op, low, high = ("d", 1, bound) if part == "faces" else ("s", 0, bound - 1)
    out, memo = {}, {}
    for key, table in _need(_field(data, part), dict, repr(part)).items():
        n, k = _ints(key, 2, repr(part))
        if not (low <= n <= high and 0 <= k <= n):
            raise DocumentError(
                f"{part!r}: no {op}_{k} out of degree {n} at bound {bound} "
                f"(key {key!r})")
        table = _table(table, f"{part} {key!r}", memo)
        stray = ordered(table.keys() - simplices[n])
        if stray:
            raise DocumentError(f"{part} {key!r}: {stray[0]!r} is not a cell "
                                f"of degree {n}")
        _put(out, (n, k), table, repr(part))
    for n in range(low, high + 1):
        for k in range(n + 1):
            if (n, k) not in out:
                raise DocumentError(
                    f"{part!r}: missing table {op}_{k} out of degree {n}")
    return out


def reference(data):
    _need(data, dict, "'data'")
    bound = _need(_field(data, "bound"), int, "'bound'")
    if bound < 0:
        raise DocumentError(f"'bound' must be at least 0, so that degree 0 "
                            f"exists; got {bound}")
    simplices = {}
    for key, cells in _need(_field(data, "simplices"), dict,
                            "'simplices'").items():
        (n,) = _ints(key, 1, "'simplices'")
        if not 0 <= n <= bound:
            raise DocumentError(f"'simplices': degree {key!r} is outside "
                                f"0..{bound}")
        cells = [_name(x) for x in _need(cells, list, f"simplices {key!r}")]
        if len(set(cells)) != len(cells):
            raise DocumentError(f"a cell is listed twice in degree {n}")
        _put(simplices, n, tuple(ordered(cells)), "'simplices'")
    for n in range(bound + 1):
        if n not in simplices:
            raise DocumentError(f"'simplices': missing degree {n}")
    bp = _name(data["basepoint"]) if "basepoint" in data else None
    faces = _tables(data, "faces", simplices)
    degens = _tables(data, "degens", simplices)
    return TruncatedSimplicialSet.from_names(
        bound, simplices, lambda n, m, k: (faces if m < n else degens)[n, k],
        basepoint=bp)


# -- comparison ---------------------------------------------------------


def outcome(decode, data):
    """What `decode` makes of a copy of `data`, as text: the refusal, or
    the set's cells, position lists (or their error), basepoint and
    audit.  Text tells 1 from True, so a name of the wrong type shows."""
    try:
        X = decode(copy.deepcopy(data))
    except DocumentError as e:
        return f"refused: {e}"

    def positions(key):
        try:
            return X.positions(*key)
        except SimplicialError as e:
            return f"error: {e}"

    return repr((X.bound, X.simplices,
                 [positions(key) for key in _operator_keys(X.bound)],
                 X.basepoint, X.audit()))


def assert_agree(data):
    assert outcome(_decode_sset, data) == outcome(reference, data)


# -- inputs -------------------------------------------------------------

SPELLINGS = (json.dumps, lambda c: json.dumps(c, separators=(",", ":")),
             lambda c: " " + json.dumps(c))


@st.composite
def encodings(draw):
    """A standard set's data, perhaps pointed, its table keys spelled
    one of three ways each and every table's rows shuffled."""
    data = sset_to_entry("X", draw(standard()))["data"]
    rnd = draw(st.randoms(use_true_random=False))
    if data["simplices"]["0"] and draw(st.booleans()):
        data["basepoint"] = rnd.choice(data["simplices"]["0"])
    for part in ("faces", "degens"):
        for key, table in data[part].items():
            rows = [(rnd.choice(SPELLINGS)(json.loads(cell)), image)
                    for cell, image in table.items()]
            rnd.shuffle(rows)
            data[part][key] = dict(rows)
    return data


BAD_MEMBERS = (True, 1.0, None, {}, [1, True], [[0, 1.0]])
NON_CELLS = ([9, 9], "z", [[0], 9], 7)


def _insert(table, key, value, rnd):
    """`table` with the row key: value at a random position."""
    rows = list(table.items())
    rows.insert(rnd.randrange(len(rows) + 1), (key, value))
    return dict(rows)


@st.composite
def mutants(draw):
    """An encoding with one entry broken: a row dropped, an image that
    is not a cell, one or two stray keys, a cell spelled twice, a key
    that is not JSON, or a member that is not an int, a string or a
    list in a key, an image, a cell list or the basepoint."""
    data = draw(encodings())
    rnd = draw(st.randoms(use_true_random=False))
    tables = [(part, key) for part in ("faces", "degens")
              for key in data[part] if data[part][key]]
    how = draw(st.sampled_from(["drop", "image", "stray", "twice", "unparsable",
                                "key member", "image member", "cell member",
                                "basepoint member"]))
    bad = rnd.choice(data["simplices"]["0"] or [[0]])
    bad = list(bad) if isinstance(bad, list) else [bad]
    bad[rnd.randrange(len(bad))] = draw(st.sampled_from(BAD_MEMBERS))
    if how == "cell member":
        cells = data["simplices"][str(rnd.randrange(data["bound"] + 1))]
        cells.insert(rnd.randrange(len(cells) + 1), bad)
        return data
    if how == "basepoint member":
        data["basepoint"] = bad
        return data
    if not tables:
        return data
    part, key = rnd.choice(tables)
    table = data[part][key]
    row = rnd.choice(list(table))
    image = table[row]
    if how == "drop":
        del table[row]
    elif how == "image":
        table[row] = draw(st.sampled_from(NON_CELLS))
    elif how == "stray":
        for _ in range(draw(st.integers(1, 2))):
            table = _insert(table, json.dumps(draw(st.sampled_from(NON_CELLS))),
                            image, rnd)
    elif how == "twice":
        spelling = next(s(json.loads(row)) for s in SPELLINGS
                        if s(json.loads(row)) != row)
        table = _insert(table, spelling, image, rnd)
    elif how == "unparsable":
        table = _insert(table, row.strip()[:-1] or "{", image, rnd)
    elif how == "key member":
        table = _insert(table, json.dumps(bad), image, rnd)
    else:
        table[row] = bad
    data[part][key] = table
    return data


SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(encodings())
def test_valid_encodings_agree(data):
    assert not outcome(_decode_sset, data).startswith("refused")
    assert_agree(data)


@SETTINGS
@given(mutants())
def test_one_broken_entry_agrees(data):
    assert_agree(data)


@SETTINGS
@given(SSET_DATA)
def test_fuzz_shapes_agree(data):
    assert_agree(data)
