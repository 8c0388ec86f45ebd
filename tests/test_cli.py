import json
import sys

import pytest

from simpcat.cli import main, make_parser
from simpcat.cat import cyclic_group
from simpcat.document import (category_to_entry, document_for_entity,
                              parse_document, serialize_document,
                              sset_to_entry)
from simpcat.sset import coproduct, delta, point


@pytest.fixture
def doc_path(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "schema": "simpcat-document/1",
        "config": {},
        "entities": [
            {"name": "circle", "kind": "simplicial_set",
             "builder": {"type": "sphere", "n": 1, "bound": 3}},
            {"name": "z2", "kind": "category",
             "builder": {"type": "cyclic_group", "order": 2}},
            {"name": "bz2", "kind": "simplicial_category",
             "builder": {"type": "constant", "category": "z2", "bound": 3}},
            {"name": "s0", "kind": "simplicial_category",
             "builder": {"type": "s0_scat", "bound": 3}},
            {"name": "basket", "kind": "simplicial_set",
             "builder": {"type": "two_point", "bound": 3}}],
        "suites": ["k-theory"]}))
    return str(path)


def test_build_is_canonical_and_idempotent(tmp_path, doc_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["build", doc_path, "--out", str(out1)]) == 0
    assert main(["build", str(out1), "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    payload = json.loads(out1.read_text())
    assert payload["schema"] == "simpcat-document/1"


def test_compute_homology(doc_path, capsys):
    assert main(["compute", "homology", doc_path, "circle",
                 "--degree", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["groups"] == ["Z", "Z", "0"]
    assert payload["operation"] == "homology"


def test_compute_nerve_and_pi0(doc_path, capsys):
    assert main(["compute", "nerve", doc_path, "z2", "--bound", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sizes"] == [1, 2, 4, 8]
    assert main(["compute", "pi0", doc_path, "basket"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2


def test_compute_pi1(doc_path, capsys):
    assert main(["compute", "pi1", doc_path, "circle", "--pointed"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["abelianization"] == "Z"


def test_compute_ktheory(doc_path, capsys):
    assert main(["compute", "ktheory", doc_path, "s0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k0_size"] == 2
    assert payload["k1_abelian"] == "0"


def test_compute_mapspace(doc_path, capsys):
    assert main(["compute", "mapspace", doc_path, "s0",
                 "--source", "basket"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sizes"] == [2, 2, 2, 2]


def test_compute_mapspace_from_a_wide_source(tmp_path, capsys):
    # 1,200 components in explicit data: one map into the point, and no
    # recursion per cell
    X, _ = coproduct([point(1)] * 1200)
    doc = tmp_path / "wide.json"
    doc.write_text(json.dumps({
        "schema": "simpcat-document/1", "config": {},
        "entities": [
            sset_to_entry("wide", X.with_basepoint(X.simplices[0][0])),
            {"name": "one", "kind": "category",
             "builder": {"type": "terminal"}},
            {"name": "pt", "kind": "simplicial_category",
             "builder": {"type": "constant_pointed", "category": "one",
                         "basepoint": "*", "bound": 2}}],
        "suites": []}))
    assert main(["compute", "mapspace", str(doc), "pt",
                 "--source", "wide"]) == 0
    assert json.loads(capsys.readouterr().out)["sizes"] == [1, 1]


def test_compute_dec(doc_path, capsys):
    assert main(["compute", "dec", doc_path, "circle"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sizes"]["0,0"] == 2


def test_unknown_entity_is_bad_input(doc_path, capsys):
    assert main(["compute", "homology", doc_path, "nope"]) == 2


def test_wrong_kind_is_bad_input(doc_path, capsys):
    assert main(["compute", "nerve", doc_path, "circle"]) == 2


def test_bad_schema_is_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "other/1", "entities": []}))
    assert main(["build", str(bad)]) == 2


def test_missing_file_is_bad_input(tmp_path, capsys):
    assert main(["build", str(tmp_path / "absent.json")]) == 2


def test_bound_exceeded_exit_code(tmp_path, capsys):
    doc = tmp_path / "tight.json"
    doc.write_text(json.dumps({
        "schema": "simpcat-document/1",
        "config": {"closure_bound": 3},
        "entities": [
            {"name": "circle", "kind": "simplicial_set",
             "builder": {"type": "sphere", "n": 1, "bound": 5}},
            {"name": "pi", "kind": "simplicial_category",
             "builder": {"type": "pi_dec", "space": "circle"}}]}))
    assert main(["build", str(doc)]) == 3


@pytest.mark.parametrize("suite, cap", [("directed-colimit", "1"),
                                        ("unit", "5")])
def test_enumeration_cap_exit_code(suite, cap, capsys):
    assert main(["verify", "--suite", suite, "--cap", cap]) == 3
    assert "enumeration cap exceeded" in capsys.readouterr().err


def test_compute_takes_no_suite_options(doc_path, capsys):
    for option in (["--rho", "dec"], ["--cap", "5"], ["--closure-bound", "5"]):
        with pytest.raises(SystemExit):
            main(["compute", "homology", doc_path, "circle"] + option)


def test_verify_single_suite(doc_path, capsys):
    assert main(["verify", doc_path]) == 0
    out = capsys.readouterr().out
    assert "suite k-theory: pass" in out


def test_verify_unknown_suite(doc_path, capsys):
    assert main(["verify", doc_path, "--suite", "nope"]) == 2


def test_report_schema(doc_path, tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["report", doc_path, "--suite", "k-theory",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "simpcat-report/1"
    assert payload["overall"] == "pass"
    assert payload["suites"][0]["suite"] == "k-theory"
    assert all(c["passed"] for c in payload["suites"][0]["checks"])


def test_negative_nerve_bound_is_bad_input(doc_path, capsys):
    assert main(["compute", "nerve", doc_path, "z2", "--bound", "-1"]) == 2
    assert "bound" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["compute", "homology", "DOC", "circle", "--degree", "-1"], "--degree"),
    (["compute", "mapspace", "DOC", "s0", "--source", "basket",
      "--degree", "-1"], "--degree"),
    (["verify", "--suite", "identities", "--closure-bound", "-1"],
     "--closure-bound"),
    (["report", "--suite", "niso-pushout", "--closure-bound", "-1"],
     "--closure-bound"),
    (["verify", "--suite", "unit", "--cap", "-1"], "--cap"),
    (["report", "--suite", "directed-colimit", "--cap", "-1"], "--cap"),
], ids=["homology-degree", "mapspace-degree", "verify-closure-bound",
        "report-closure-bound", "verify-cap", "report-cap"])
def test_negative_option_is_bad_input(doc_path, argv, option, capsys):
    """A negative count is bad input (exit 2) naming its option, not an
    empty result (exit 0) or a bound that was exceeded (exit 3)."""
    argv = [doc_path if a == "DOC" else a for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {option} must be at least " \
                                      f"0, got -1\n"


def test_negative_config_closure_bound_is_bad_input(tmp_path, capsys):
    doc = tmp_path / "negative.json"
    doc.write_text(json.dumps({
        "schema": "simpcat-document/1",
        "config": {"closure_bound": -1},
        "entities": [
            {"name": "circle", "kind": "simplicial_set",
             "builder": {"type": "sphere", "n": 1, "bound": 3}},
            {"name": "pi", "kind": "simplicial_category",
             "builder": {"type": "pi_dec", "space": "circle"}}]}))
    for argv in (["build", str(doc)], ["verify", str(doc)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == \
            "error: config 'closure_bound' must be at least 0, got -1\n"


def test_zero_options_keep_their_meaning(doc_path, capsys):
    assert main(["compute", "homology", doc_path, "circle",
                 "--degree", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["groups"] == ["Z"]
    assert main(["verify", "--suite", "unit", "--cap", "0"]) == 3
    assert main(["verify", "--suite", "niso-pushout",
                 "--closure-bound", "0"]) == 3


def _point_doc(**entity):
    return {"schema": "simpcat-document/1",
            "entities": [dict({"name": "Y", "kind": "simplicial_set",
                               "builder": {"type": "point", "bound": 2}},
                              **entity)]}


def _point_and(*entities, **top):
    """The point document with more entities and top-level fields."""
    doc = dict(_point_doc(), **top)
    doc["entities"].extend(entities)
    return doc


_POINT_DATA = sset_to_entry("Y", point(1))["data"]


def _point_map(**levels):
    """The identity of the point document's Y, with `levels` set."""
    assign = {str(n): {json.dumps([0] * (n + 1)): [0] * (n + 1)}
              for n in range(3)}
    return json.dumps(_point_and({"name": "f", "kind": "simplicial_map",
                                  "source": "Y", "target": "Y",
                                  "assign": dict(assign, **levels)}))


@pytest.mark.parametrize("text", [
    json.dumps(_point_doc(builder={"type": "delta", "n": "x", "bound": 2})),
    json.dumps(_point_doc(builder={"type": "delta", "n": 1.5, "bound": 2})),
    "[1, 2]",
    "null",
    json.dumps({"schema": "simpcat-document/1", "entities": "abc"}),
    json.dumps({"schema": "simpcat-document/1", "config": [1],
                "entities": []}),
    json.dumps(_point_doc(builder=3)),
    json.dumps(_point_doc(name=["Y"])),
    json.dumps(_point_doc(builder={"type": ["delta"], "n": 1, "bound": 2})),
    json.dumps(_point_and({"name": "B", "kind": "bisimplicial_set",
                           "builder": {"type": "dec", "space": ["Y"]}})),
    json.dumps(dict(_point_doc(), suites=5)),
    json.dumps(_point_and({"name": "Y3", "kind": "simplicial_set",
                           "builder": {"type": "point", "bound": 3}},
                          {"name": "P", "kind": "simplicial_category",
                           "builder": {"type": "pi_dec", "space": "Y3"}},
                          config={"closure_bound": "x"})),
    json.dumps(_point_and({"name": "f", "kind": "simplicial_map",
                           "source": "Y", "target": "Y", "assign": [1]})),
    json.dumps(_point_and({"name": "Z", "kind": "simplicial_set",
                           "data": dict(_POINT_DATA, bound="1")})),
    _point_map(**{"0": {"[0]": [0], "[7]": [0]}}),
    _point_map(**{"9": {}}),
    _point_map(**{"-1": {}}),
], ids=["n-string", "n-float", "array", "null", "entities-string",
        "config-list", "builder-number", "name-list", "type-list",
        "reference-list", "suites-number", "closure-bound-string",
        "assign-list", "data-bound-string", "assign-stray-cell",
        "assign-degree-past-bound", "assign-degree-negative"])
def test_malformed_document_shape_is_bad_input(tmp_path, text, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["build", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cell_listed_twice_in_data_is_bad_input(tmp_path, capsys):
    data = sset_to_entry("X", delta(1, 2))["data"]
    data["simplices"]["0"].append([1])
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({"schema": "simpcat-document/1", "entities": [
        {"name": "X", "kind": "simplicial_set", "data": data}]}))
    assert main(["build", str(path)]) == 2
    assert "listed twice" in capsys.readouterr().err


@pytest.mark.parametrize("part, name", [("objects", "*"), ("morphisms", 0),
                                        ("comp", [1, 1, 1])])
def test_category_name_listed_twice_in_data_is_bad_input(tmp_path, capsys,
                                                         part, name):
    entry = category_to_entry("G", cyclic_group(2))
    entry["data"][part].append(name)
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({"schema": "simpcat-document/1",
                                "entities": [entry]}))
    assert main(["build", str(path)]) == 2
    assert "listed twice" in capsys.readouterr().err


@pytest.mark.parametrize("entity, part, key, value", [
    ("G", ["src"], "0 ", "*"),
    ("G", ["tgt"], " 1", "*"),
    ("G", ["ident"], '"*" ', 0),
    ("X", ["simplices"], "0 ", [[0], [1]]),
    ("X", ["faces"], "1, 0", {"[0, 0]": [0], "[0, 1]": [1], "[1, 1]": [1]}),
    ("X", ["faces", "1,0"], "[0,1]", [1]),
    ("X", ["degens", "0,0"], " [0]", [0, 0]),
    ("f", ["assign"], "0 ", {"[0]": [0], "[1]": [1]}),
    ("f", ["assign", "1"], "[0,1]", [0, 1]),
], ids=["src", "tgt", "ident", "simplices", "faces", "face-cell",
        "degen-cell", "assign", "assign-cell"])
def test_key_spelled_twice_in_data_is_bad_input(tmp_path, capsys, entity,
                                                part, key, value):
    """Two keys that decode to one cell or degree must not override each
    other silently, even when they agree."""
    X = sset_to_entry("X", delta(1, 1))
    f = {"name": "f", "kind": "simplicial_map", "source": "X", "target": "X",
         "assign": {n: {json.dumps(c): c for c in cells}
                    for n, cells in X["data"]["simplices"].items()}}
    G = category_to_entry("G", cyclic_group(2))
    table = {"G": G["data"], "X": X["data"], "f": f}[entity]
    for step in part:
        table = table[step]
    table[key] = value
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({"schema": "simpcat-document/1",
                                "entities": [G, X, f]}))
    assert main(["build", str(path)]) == 2
    assert "listed twice" in capsys.readouterr().err


def test_pi1_of_set_without_vertices_is_bad_input(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"schema": "simpcat-document/1", "entities": [
        {"name": "E", "kind": "simplicial_set",
         "data": {"bound": 0, "simplices": {"0": []}, "faces": {},
                  "degens": {}}}]}))
    assert main(["compute", "pi1", str(path), "E"]) == 2
    assert "vertex" in capsys.readouterr().err


def _delta_data(steps, value):
    """`delta(1, 2)` data with the entry at `steps` set to `value`, or
    removed when `value` is None."""
    data = sset_to_entry("X", delta(1, 2))["data"]
    table = data
    for step in steps[:-1]:
        table = table[step]
    if value is None:
        del table[steps[-1]]
    else:
        table[steps[-1]] = value
    return data


def _point_data(**fields):
    return dict({"bound": 0, "simplices": {"0": [0]}, "faces": {},
                 "degens": {}}, **fields)


@pytest.mark.parametrize("data, message", [
    (_point_data(simplices={"-1": [0], "0": [0]}),
     "'simplices': degree '-1' is outside 0..0"),
    (_point_data(faces={"0,0": {"0": 0}}),
     "'faces': no d_0 out of degree 0 at bound 0"),
    (_delta_data(["simplices", "3"], []),
     "'simplices': degree '3' is outside 0..2"),
    (_delta_data(["faces", "2,3"], {}), "no d_3 out of degree 2 at bound 2"),
    (_delta_data(["faces", "3,0"], {}), "no d_0 out of degree 3 at bound 2"),
    (_delta_data(["degens", "2,0"], {}), "no s_0 out of degree 2 at bound 2"),
    (_delta_data(["degens", "1,2"], {}), "no s_2 out of degree 1 at bound 2"),
    (_delta_data(["degens", "-1,0"], {}),
     "no s_0 out of degree -1 at bound 2"),
    (_delta_data(["degens", "0,0", "[5]"], [0, 0]),
     "degens '0,0': (5,) is not a cell of degree 0"),
    (_point_data(bound=-1, simplices={}),
     "'bound' must be at least 0, so that degree 0 exists; got -1"),
    (_point_data(bound=2), "'simplices': missing degree 1"),
    (_delta_data(["simplices", "1"], None), "'simplices': missing degree 1"),
    (_delta_data(["faces", "2,1"], None),
     "'faces': missing table d_1 out of degree 2"),
    (_delta_data(["degens", "1,1"], None),
     "'degens': missing table s_1 out of degree 1"),
    (_delta_data(["degens"], None), "'data' has no 'degens'"),
    (_delta_data(["simplices"], None), "'data' has no 'simplices'"),
    (_delta_data(["bound"], None), "'data' has no 'bound'"),
], ids=["degree-negative", "face-out-of-vertices", "degree-above-bound",
        "face-index", "face-degree", "degen-at-bound", "degen-index",
        "degen-degree", "table-key-not-a-cell", "bound-negative",
        "only-vertices", "no-degree", "no-face-table", "no-degen-table",
        "no-degens", "no-simplices", "no-bound"])
def test_bad_degree_or_table_in_data_is_named(tmp_path, capsys, data,
                                              message):
    """A degree or table key out of range, a table key that is not a cell,
    and a missing degree, table or field each exit 2 with a message that
    names it."""
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"schema": "simpcat-document/1", "entities": [
        {"name": "E", "kind": "simplicial_set", "data": data}]}))
    assert main(["build", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: entity 'E': ") and message in err


def _write_sset(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps({"schema": "simpcat-document/1", "entities": [
        {"name": "X", "kind": "simplicial_set", "data": data}]}))
    return str(path)


def _respelled(data, table, old, new):
    """`data` with the key `old` of faces `table` spelled `new`."""
    faces = dict(data["faces"])
    faces[table] = {new if k == old else k: v for k, v in faces[table].items()}
    return dict(data, faces=faces)


def test_one_cell_spelled_two_ways_in_two_tables_loads(tmp_path, capsys):
    """Table keys are decoded once per spelling: a cell keyed "[0, 1]" in
    d_0 and "[0,1]" in d_1 is one cell, so the set loads, and its
    canonical document equals the tidy spelling's byte for byte."""
    tidy = sset_to_entry("X", delta(1, 2))["data"]
    mixed = _respelled(tidy, "1,1", "[0, 1]", "[0,1]")
    assert "[0,1]" in mixed["faces"]["1,1"] and "[0, 1]" in mixed["faces"]["1,0"]
    canonical = []
    for name, data in (("tidy.json", tidy), ("mixed.json", mixed)):
        path = _write_sset(tmp_path, name, data)
        assert main(["build", path]) == 0
        with open(path) as fh:
            X = parse_document(fh.read()).entity("X")
        canonical.append(serialize_document(document_for_entity(
            "X", "simplicial_set", {"data": sset_to_entry("X", X)["data"]})))
    assert canonical[0] == canonical[1]


def test_bad_key_first_met_in_a_later_table_names_that_table(tmp_path,
                                                             capsys):
    data = _respelled(sset_to_entry("X", delta(1, 2))["data"], "1,1",
                      "[0, 1]", "[0, 1")
    assert main(["build", _write_sset(tmp_path, "bad.json", data)]) == 2
    assert ("faces '1,1': bad cell key '[0, 1'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("member", [True, 1.0], ids=["true", "float"])
@pytest.mark.parametrize("where", ["table-key", "table-value", "cell",
                                   "basepoint"])
def test_member_equal_to_an_int_is_refused(tmp_path, capsys, where, member):
    """As dict keys True and 1.0 equal 1, so a lookup by tuple alone would
    take [0, true] for the cell (0, 1); every place a name appears still
    refuses the member."""
    data = sset_to_entry("X", delta(1, 1))["data"]
    if where == "table-key":
        table = data["faces"]["1,0"]
        table[json.dumps([0, member])] = table.pop("[0, 1]")
    elif where == "table-value":
        data["faces"]["1,0"]["[0, 1]"] = [member]
    elif where == "cell":
        data["simplices"]["0"][1] = [member]
    else:
        data["basepoint"] = [member]
    assert main(["build", _write_sset(tmp_path, "bad.json", data)]) == 2
    assert f"bad name payload {member!r}" in capsys.readouterr().err


_NO_COMP = category_to_entry("G", cyclic_group(2))
del _NO_COMP["data"]["comp"]


@pytest.mark.parametrize("entity, message", [
    ({"name": "X"}, "entity 'X' has no 'kind'"),
    ({"kind": "category"}, "entity has no 'name'"),
    (_NO_COMP, "entity 'G': 'data' has no 'comp'"),
    ({"name": "X", "kind": "simplicial_set",
      "builder": {"type": "delta", "bound": 2}},
     "entity 'X': builder has no 'n'"),
    ({"name": "X", "kind": "simplicial_set", "builder": {"n": 2}},
     "entity 'X': builder has no 'type'"),
    ({"name": "X", "kind": "simplicial_set"},
     "entity 'X': the entity has no 'data'"),
    ({"name": "B", "kind": "bisimplicial_set", "builder": {"type": "dec"}},
     "entity 'B': builder has no 'space'"),
    ({"name": "P", "kind": "simplicial_category",
      "builder": {"type": "s0_scat"}}, "entity 'P': builder has no 'bound'"),
    ({"name": "S", "kind": "spectrum", "builder": {"type": "terminal"}},
     "entity 'S': builder has no 'length'"),
    ({"name": "f", "kind": "simplicial_map", "source": "Y"},
     "entity 'f': the entity has no 'target'"),
], ids=["kind", "name", "comp", "n", "type", "data", "space", "bound",
        "length", "target"])
def test_missing_field_is_named(tmp_path, capsys, entity, message):
    """A missing field exits 2 with a message naming it and what lacks
    it, not a bare key."""
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(_point_and(entity)))
    assert main(["build", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def stdlib_canonical(text):
    """The stdlib's sorted, 2-space-indented form of the JSON `text`."""
    return json.dumps(json.loads(text), sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


@pytest.mark.parametrize("argv", [
    ["build", "@doc"],
    ["compute", "nerve", "@doc", "z2"],
    ["compute", "diag", "@doc", "bz2"],
    ["compute", "wbar", "@doc", "bz2"],
    ["compute", "dec", "@doc", "circle"],
    ["compute", "dstar", "@doc", "circle"],
    ["compute", "homology", "@doc", "circle"],
    ["compute", "pi0", "@doc", "basket"],
    ["compute", "pi1", "@doc", "circle", "--pointed"],
    ["compute", "ktheory", "@doc", "s0"],
    ["compute", "mapspace", "@doc", "s0", "--source", "basket"],
    ["report", "@doc", "--suite", "k-theory"],
], ids=lambda argv: "-".join(argv[:2]).replace("-@doc", ""))
def test_output_is_the_stdlib_canonical_form(doc_path, capsys, argv):
    assert main([doc_path if a == "@doc" else a for a in argv]) == 0
    out = capsys.readouterr().out
    assert out == stdlib_canonical(out)


def test_config_nested_900_deep_builds_canonically(tmp_path, capsys):
    value = 0
    for _ in range(900):
        value = [value]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"schema": "simpcat-document/1",
                                "config": {"x": value}, "entities": []}))
    assert main(["build", str(path)]) == 0
    assert capsys.readouterr().out == stdlib_canonical(path.read_text())


@pytest.mark.parametrize("argv", [
    ["build", "@doc"],
    ["compute", "homology", "@doc", "circle"],
    ["report", "@doc", "--suite", "k-theory"],
], ids=["build", "compute", "report"])
def test_unwritable_out_is_bad_input(doc_path, tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out.json"
    argv = [doc_path if a == "@doc" else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize("content, message", [
    (b'{"schema": "simpcat-document/1", "entities": [], "x": "\xff"}',
     "'utf-8' codec can't decode byte 0xff"),
    (b"[" * 100000, "document nests too deeply"),
], ids=["not-utf-8", "too-deep"])
def test_document_json_cannot_load_is_bad_input(tmp_path, capsys, content,
                                                message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["build", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="this Python has no integer digit limit")
def test_integer_past_the_digit_limit_is_bad_input(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"x": %s}' % ("9" * (sys.get_int_max_str_digits() + 1)))
    assert main(["build", str(path)]) == 2
    assert "error: parse error: Exceeds the limit" in capsys.readouterr().err


def test_parser_is_built_once():
    assert make_parser() is make_parser()


def test_repeated_suite_option_does_not_accumulate(capsys):
    for _ in range(2):
        assert main(["verify", "--suite", "k-theory"]) == 0
        assert capsys.readouterr().out.count("suite ") == 1


def test_good_call_after_usage_error(doc_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "nope", doc_path, "circle"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["compute", "pi0", doc_path, "basket"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 2


def test_out_does_not_carry_to_the_next_call(doc_path, tmp_path, capsys):
    out = tmp_path / "a.json"
    assert main(["build", doc_path, "--out", str(out)]) == 0
    written = out.read_text()
    assert capsys.readouterr().out == ""
    assert main(["compute", "pi0", doc_path, "basket"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 2
    assert out.read_text() == written


@pytest.mark.parametrize("argv", [[], ["build"], ["compute", "nope"],
                                  ["report", "--cap", "x"]])
def test_usage_text_matches_a_fresh_parser(capsys, argv):
    """Two calls of `main` print what a parser built for the call
    prints."""
    errs = []
    for parse in (main, main, make_parser.__wrapped__().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 2
        errs.append(capsys.readouterr().err)
    assert errs[0].startswith("usage: simpcat")
    assert errs[0] == errs[1] == errs[2]
