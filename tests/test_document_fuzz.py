"""Fuzz the document boundary: every document maps to an exit code.

Documents are drawn field by field from the shapes `parse_document`
reads, each field either well-typed or replaced by a JSON value of the
wrong type, so the parser is driven past its first check as often as it
is stopped there.  `simpcat build` must exit 0 (loaded), 2 (bad input)
or 3 (bound exceeded) and never raise.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from simpcat.cli import main
from simpcat.document import SCHEMA, sset_to_entry
from simpcat.sset import delta

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2))


def field(valid):
    """Mostly `valid`, sometimes a JSON value of the wrong type."""
    return st.integers(0, 4).flatmap(lambda i: valid if i else JUNK)


NAME = field(st.sampled_from(["X", "Y", "C", "S"]))
SMALL = field(st.integers(-1, 2))
CELL = field(st.sampled_from([[0], [1], [0, 0], [0, 1], [1, 1], "a"]))
CELL_KEY = st.sampled_from(["[0]", "[1]", "[0, 1]", "[0, 0]", "x", "{"])
DEGREE_KEY = st.sampled_from(["0", "1", "2", "x", "1,0", "0,0", "1,1", "0,0,0"])
TABLE = field(st.dictionaries(CELL_KEY, CELL, max_size=3))

BUILDERS = {
    "simplicial_set": ["delta", "boundary", "horn", "sphere", "point",
                       "two_point", "c_sigma"],
    "bisimplicial_set": ["dec", "d_star", "box"],
    "category": ["discrete", "chaotic", "terminal", "cyclic_group", "arrow"],
    "simplicial_category": ["constant", "constant_pointed", "s0_scat",
                            "add_basepoint", "pi_dec", "pi_dstar"],
    "spectrum": ["sigma_infinity", "terminal"],
}
PARAMETERS = ({key: SMALL for key in ("n", "bound", "index", "size", "order")}
              | {key: NAME for key in ("space", "left", "right", "category",
                                       "inner")}
              | {"length": field(st.integers(0, 1)), "sigma": CELL,
                 "basepoint": CELL})

_DELTA = sset_to_entry("X", delta(1, 1))["data"]
_IDENTITY = {str(n): {json.dumps(x): x for x in cells}
             for n, cells in _DELTA["simplices"].items()}


def tables(valid):
    return field(st.one_of(st.just(valid),
                           st.dictionaries(DEGREE_KEY, TABLE, max_size=2)))


SSET_DATA = st.fixed_dictionaries(
    {"bound": field(st.integers(-1, 1)),
     "simplices": field(st.one_of(
         st.just(_DELTA["simplices"]),
         st.dictionaries(DEGREE_KEY, field(st.lists(CELL, max_size=3)),
                         max_size=2))),
     "faces": tables(_DELTA["faces"]), "degens": tables(_DELTA["degens"])},
    optional={"basepoint": CELL})

CATEGORY_DATA = st.fixed_dictionaries({
    "objects": field(st.lists(CELL, max_size=2)),
    "morphisms": field(st.lists(CELL, max_size=3)),
    "src": TABLE, "tgt": TABLE, "ident": TABLE,
    "comp": field(st.lists(field(st.lists(CELL, min_size=3, max_size=3)),
                           max_size=2))})


def entity(kind, **fields):
    return st.fixed_dictionaries(
        {"name": NAME, "kind": field(st.just(kind))} | fields)


ENTITY = st.one_of(
    *[entity(kind, builder=field(st.fixed_dictionaries(
        {"type": field(st.sampled_from(types))}, optional=PARAMETERS)))
      for kind, types in BUILDERS.items()],
    entity("simplicial_set", data=field(SSET_DATA)),
    entity("category", data=field(CATEGORY_DATA)),
    entity("simplicial_map", source=NAME, target=NAME,
           assign=tables(_IDENTITY)))

DOCUMENT = st.fixed_dictionaries(
    {"schema": field(st.just(SCHEMA))},
    optional={"config": field(st.fixed_dictionaries(
                  {}, optional={"closure_bound": field(st.integers(0, 200))})),
              "entities": field(st.lists(ENTITY, max_size=3)),
              "suites": field(st.lists(field(st.just("unit")), max_size=2))})


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(DOCUMENT)
def test_build_maps_every_document_to_an_exit_code(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(raw))
    assert main(["build", str(path)]) in (0, 2, 3)
