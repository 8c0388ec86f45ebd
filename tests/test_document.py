import json
import math

import pytest
from hypothesis import given, strategies as st

from simpcat.cat import cyclic_group
from simpcat.document import (DocumentError, canonical_json,
                              category_to_entry, decode_name,
                              document_for_entity, encode_name,
                              parse_document, serialize_document,
                              sset_to_entry)
from simpcat.sset import TruncatedSimplicialSet, boundary, delta, sphere


def doc_text(entities, suites=None, config=None):
    return json.dumps({"schema": "simpcat-document/1",
                       "config": config or {},
                       "entities": entities,
                       "suites": suites or []})


def test_builder_materialization():
    doc = parse_document(doc_text([
        {"name": "circle", "kind": "simplicial_set",
         "builder": {"type": "sphere", "n": 1, "bound": 3}}]))
    X = doc.entity("circle")
    assert [X.size(n) for n in X.degrees()] == [1, 2, 3, 4]


def test_serialize_round_trip_is_byte_identical():
    text = doc_text([
        {"name": "b", "kind": "simplicial_set",
         "builder": {"type": "boundary", "n": 2, "bound": 3}},
        {"name": "g", "kind": "category",
         "builder": {"type": "cyclic_group", "order": 2}},
        {"name": "bg", "kind": "simplicial_category",
         "builder": {"type": "constant", "category": "g", "bound": 2}}],
        suites=["identities"])
    once = serialize_document(parse_document(text))
    twice = serialize_document(parse_document(once))
    assert once == twice


def test_explicit_data_entities():
    entry = sset_to_entry("b", boundary(1, 2))
    doc = parse_document(doc_text([entry]))
    X = doc.entity("b")
    assert [X.size(n) for n in X.degrees()] == [2, 2, 2]
    entry = category_to_entry("g", cyclic_group(3))
    doc = parse_document(doc_text([entry]))
    assert len(doc.entity("g").morphisms) == 3


def test_invalid_composition_table_is_rejected():
    entry = category_to_entry("g", cyclic_group(3))
    for triple in entry["data"]["comp"]:
        if triple[0] == 1 and triple[1] == 1:
            triple[2] = 0   # should be 2
    with pytest.raises(DocumentError, match="fails its audit"):
        parse_document(doc_text([entry]))


def test_duplicate_names_are_rejected():
    entry = sset_to_entry("x", boundary(1, 2))
    with pytest.raises(DocumentError, match="duplicate"):
        parse_document(doc_text([entry, dict(entry)]))


def test_unknown_schema_rejected():
    with pytest.raises(DocumentError, match="schema"):
        parse_document(json.dumps({"schema": "nope/9", "entities": []}))


def test_malformed_json_rejected_with_location():
    with pytest.raises(DocumentError, match="line"):
        parse_document("{not json")


def test_unknown_kind_and_builder_rejected():
    with pytest.raises(DocumentError, match="kind"):
        parse_document(doc_text([{"name": "x", "kind": "mystery"}]))
    with pytest.raises(DocumentError, match="builder"):
        parse_document(doc_text([
            {"name": "x", "kind": "simplicial_set",
             "builder": {"type": "mystery"}}]))


def test_simplicial_map_entity():
    S = sphere(1, 3)
    entry = sset_to_entry("s", S)
    assign = {str(n): {json.dumps(encode_name(x)): encode_name(x)
                       for x in S.simplices[n]} for n in S.degrees()}
    doc = parse_document(doc_text([
        entry,
        {"name": "id", "kind": "simplicial_map",
         "source": "s", "target": "s", "assign": assign}]))
    assert doc.entity("id").validate() == []


def test_bisset_and_spectrum_builders():
    doc = parse_document(doc_text([
        {"name": "d1", "kind": "simplicial_set",
         "builder": {"type": "delta", "n": 1, "bound": 4}},
        {"name": "dec1", "kind": "bisimplicial_set",
         "builder": {"type": "dec", "space": "d1"}},
        {"name": "pt", "kind": "spectrum",
         "builder": {"type": "terminal", "length": 2}}]))
    B = doc.entity("dec1")
    assert len(B.simplices[(0, 0)]) == doc.entity("d1").size(1)
    assert doc.entity("pt").length == 2


def test_document_for_entity():
    doc = document_for_entity(
        "h", "simplicial_set",
        {"builder": {"type": "horn", "n": 2, "index": 1, "bound": 3}})
    assert doc.entity("h").audit() == []
    assert serialize_document(doc).endswith("\n")


names = st.recursive(
    st.integers(min_value=-5, max_value=5) | st.text(max_size=4),
    lambda inner: st.tuples(inner, inner),
    max_leaves=6)


@given(names)
def test_encode_decode_name_round_trip(name):
    assert decode_name(encode_name(name)) == name


def test_encode_name_rejects_bool():
    with pytest.raises(DocumentError):
        encode_name(True)


def test_stray_table_key_is_a_named_encode_error():
    X = delta(1, 2)
    faces = {k: dict(t) for k, t in X.faces.items()}
    faces[(1, 0)][(5, 5)] = (0,)
    Y = TruncatedSimplicialSet.from_names(
        X.bound, X.simplices,
        lambda n, m, k: faces[n, k] if m < n else X.degens[n, k])
    with pytest.raises(DocumentError,
                       match=r"d_0 out of degree 1: key \(5, 5\) is not a cell"):
        sset_to_entry("y", Y)


def stdlib_canonical(value):
    return json.dumps(value, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


awkward_text = st.text() | st.text(alphabet='"\\/\n\t\x00\x1f\x7f'
                                            'é\u2028λ\U0001f600\ud800')
json_values = st.recursive(
    st.none() | st.booleans() | awkward_text
    | st.integers() | st.integers(min_value=-2 ** 200, max_value=2 ** 200)
    | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.lists(st.integers() | st.booleans())
                   | st.lists(st.integers()).map(tuple)
                   | st.dictionaries(awkward_text, inner)),
    max_leaves=25)


@given(json_values)
def test_canonical_json_is_the_stdlib_indented_form(value):
    assert canonical_json(value) == stdlib_canonical(value)
