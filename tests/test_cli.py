import json

import pytest

from simpcat.cli import main


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
