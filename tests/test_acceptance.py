"""Acceptance gate: the twelve named verification suites, one test per
criterion.  Each test runs its suite end to end and prints a single
pass/fail line; every check inside a suite compares exact integers or
exact invariant-factor strings, never approximations.

Each report is also frozen: the sha256 of its `to_dict()` with every
`seconds` key removed must match `REPORT_DIGESTS`, so a change that
alters any check's name, expected or computed value or provenance
fails here even when the suite still passes."""

import hashlib
import json

from simpcat.suites import run_suite


REPORT_DIGESTS = {
    'identities': '50b7562ff5b53c6e2ad72553e747d2e1107dd08e700241a722662bde63c2900b',
    'c-sigma-contractibility': '21983e7246937b62207364e1961d3c7eb5d748b0c03cc9f16ebb31d16c4f2873',
    'acyclic-cofibrations': '2986117fc3d6d6edf8cc51567099cd12a2ce8baddb485049ecdd874c3c532d29',
    'niso-pushout': '9f7f7af64df8ad8e44ffb6ad12398852445df11aa50895c0afaaf5ec5f8affa2',
    'diag-wbar': 'df88eccd8327d3a76195ac11ee69d41c5aeab9f765ac1246f22850c3e70a4836',
    'unit': '8d692658eb1c37242c5cc8ce1814e89946fec3eaae7d01e39b80ee8b622defe0',
    'effective-mono': '3f05638a42e5cf7ea79f6b610061735eb9cf06f730cbd6863b886625c05d020b',
    'suspension-ladder': 'ce3cf6e0e46840b9b78bf4e0f9b4e6c7c858208bfc62658178d9d5e57ad3a927',
    'mapspace': 'd365dc04541424a4d5fd0802a9620f3b789583d773a5fc295812584d6f8f8c88',
    'k-theory': '331d9068a004e3fbafeecca5cd165b6e8673e943885b36236772060222b23bb5',
    'omega-probe': '56cf4fb08b8aab86a3a8c4c6a99acbd6dacf7f07ae050fa5e2e1d84d33f846c8',
    'directed-colimit': '1adb9980c1c407a542db9d4efbbc7a3cd335188b48ce13d07ad3b1d106ea9a5a',
}


def _untimed(value):
    if isinstance(value, dict):
        return {k: _untimed(v) for k, v in value.items() if k != "seconds"}
    if isinstance(value, list):
        return [_untimed(v) for v in value]
    return value


def _run(number, name):
    rep = run_suite(name)
    verdict = "PASS" if rep.overall else "FAIL"
    print(f"criterion {number:02d} ({name}): {verdict}")
    if not rep.overall:
        detail = "\n".join(rep.summary_lines())
        raise AssertionError(f"suite {name} failed:\n{detail}")
    text = json.dumps(_untimed(rep.to_dict()), sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[name]


def test_criterion_01_identities():
    _run(1, "identities")


def test_criterion_02_c_sigma_contractibility():
    _run(2, "c-sigma-contractibility")


def test_criterion_03_acyclic_cofibrations():
    _run(3, "acyclic-cofibrations")


def test_criterion_04_niso_pushout():
    _run(4, "niso-pushout")


def test_criterion_05_diag_wbar():
    _run(5, "diag-wbar")


def test_criterion_06_unit():
    _run(6, "unit")


def test_criterion_07_effective_mono():
    _run(7, "effective-mono")


def test_criterion_08_suspension_ladder():
    _run(8, "suspension-ladder")


def test_criterion_09_mapspace():
    _run(9, "mapspace")


def test_criterion_10_k_theory():
    _run(10, "k-theory")


def test_criterion_11_omega_probe():
    _run(11, "omega-probe")


def test_criterion_12_directed_colimit():
    _run(12, "directed-colimit")
