import pytest

from simpcat import spectra
from simpcat.cat import CategoryError, cyclic_group
from simpcat.homology import ProbeVerdict, homology_list
from simpcat.scat import (add_basepoint, constant_scat, diag_nerve_iso,
                          s0_scat)
from simpcat.spectra import (KReport, OmegaProbeReport, k_groups,
                             mapping_space, omega_spectrum_probe, shift,
                             sigma_infinity, terminal_spectrum)
from simpcat.sset import delta, sphere, two_point


def hstr(X, k):
    return [str(h) for h in homology_list(X, k)]


def test_sigma_infinity_homology_ladder():
    S = sigma_infinity(s0_scat(3), 3)
    assert S.length == 3
    assert S.validate() == []
    diags = [diag_nerve_iso(S.level(n)) for n in range(3)]
    assert hstr(diags[0], 2) == ["Z + Z", "0", "0"]
    assert hstr(diags[1], 2) == ["Z", "Z", "0"]
    assert hstr(diags[2], 2) == ["Z", "0", "Z"]


def test_shift_reindexes_levels():
    S = sigma_infinity(s0_scat(2), 2)
    T = shift(S)
    assert T.length == S.length - 1
    assert T.level(0) is S.level(1)


def test_terminal_spectrum_validates():
    S = terminal_spectrum(3)
    assert S.validate() == []
    assert all(len(S.level(n).levels[0].objects) == 1 for n in range(3))


def test_mapping_space_out_of_two_points():
    # Map(S^0, C) is C itself degreewise
    for C, sizes in ((s0_scat(3), (2, 2, 2, 2)),
                     (add_basepoint(constant_scat(cyclic_group(2), 3)),
                      (2, 3, 5, 9))):
        D = diag_nerve_iso(C)
        M = mapping_space(two_point(D.bound), C)
        assert tuple(M.size(n) for n in M.degrees()) == sizes
        assert tuple(M.size(n) for n in M.degrees()) == \
            tuple(D.size(n) for n in D.degrees())
        assert M.audit() == []


def test_mapping_space_needs_pointed_inputs():
    with pytest.raises(CategoryError):
        mapping_space(delta(1, 3), s0_scat(3))


def test_omega_probe_refutes_suspension_spectrum():
    rep = omega_spectrum_probe(sigma_infinity(s0_scat(2), 2))
    assert rep.overall == "refuted"
    assert rep.verdicts[0].kind == "refuted"


def test_omega_probe_confirms_terminal_spectrum():
    rep = omega_spectrum_probe(terminal_spectrum(3))
    assert rep.overall == "confirmed"
    assert all(v.kind == "confirmed" for v in rep.verdicts)


def test_circle_loop_count_is_infinite_without_a_coset_closure(monkeypatch):
    """Positive free rank answers "infinite" before any closure runs."""
    def closure(*args):
        raise AssertionError("coset closure ran")
    monkeypatch.setattr(spectra, "_coset_closure", closure)
    X = sphere(1, 3)
    assert spectra._loop_class_count(X, X.basepoint, 20000) == "infinite"


def test_omega_report_overall_logic():
    c = ProbeVerdict.confirmed(1)
    r = ProbeVerdict.refuted(0, "x")
    i = ProbeVerdict.inconclusive("y")
    assert OmegaProbeReport([c, c]).overall == "confirmed"
    assert OmegaProbeReport([c, i]).overall == "inconclusive"
    assert OmegaProbeReport([i, r]).overall == "refuted"
    assert "refuted" in repr(OmegaProbeReport([r]))


def test_k_groups_of_classifying_space():
    from simpcat.scat import constant_pointed_scat
    rep = k_groups(constant_pointed_scat(cyclic_group(2), "*", 4), k=3)
    assert rep.k0_size == 1
    assert rep.k0_basepoint_class == 0
    assert str(rep.k1_abelian) == "Z/2"
    assert {i: str(h) for i, h in rep.homology_upper.items()} == \
        {2: "0", 3: "Z/2"}
    assert "approximation" in rep.caveat
    assert isinstance(rep, KReport)


def test_k_groups_of_two_points():
    rep = k_groups(s0_scat(3))
    assert rep.k0_size == 2
    assert rep.k1_abelian.is_trivial()
    assert rep.homology_upper == {}


def test_k_groups_needs_pointed_input():
    with pytest.raises(CategoryError):
        k_groups(constant_scat(cyclic_group(2), 3))


def test_sigma_infinity_structure_maps_are_pointed():
    S = sigma_infinity(s0_scat(2), 2)
    for f in S.structure:
        assert f.validate(pointed=True) == []


def test_mapping_space_of_circle_groupoid():
    from simpcat.scat import pi_levelwise
    from simpcat.bisset import dec
    C = pi_levelwise(dec(sphere(1, 6)))
    M = mapping_space(two_point(3), C)
    assert tuple(M.size(n) for n in M.degrees()) == (2, 5, 10, 19)
