"""Named verification suites.

Each suite exercises one structural guarantee of the workbench and
returns a SuiteReport: an ordered list of checks, each recording what
was compared, the expected and computed values, a provenance tag, and
the runtime.  A suite passes only when every check passes.  Suites are
deterministic: the same inputs produce the same report.

Provenance tags:
  audit          structural self-consistency of a single object
  cross-check    two independent computations of the same invariant
  frozen         comparison against a value computed once and recorded
"""

from __future__ import annotations

import time

from .bisset import box_product, d_star, d_star_map, dec, diag, wbar
from .cat import (FinCategory, Functor, arrow_cat, chaotic, colimit_cat,
                  cyclic_group, discrete, equalizer_cat, materialize_groupoid,
                  fundamental_groupoid, iso_subgroupoid, nerve, nerve_functor,
                  product_cat, terminal_cat)
from .homology import (AbelianGroupDescriptor, homology_list, pi0,
                       weak_equivalence_probe)
from .scat import (SimplicialFunctor, add_basepoint, constant_pointed_scat,
                   constant_scat, diag_nerve_iso, diag_nerve_iso_map,
                   enumerate_simplicial_functors, nerve_iso_levelwise,
                   pi_functor, pi_levelwise, s0_scat, smash, suspend,
                   colimit_scat, wbar_nerve_iso)
from .spectra import (k_groups, mapping_space, omega_spectrum_probe,
                      sigma_infinity, terminal_spectrum)
from .sset import (SimplicialMap, boundary, c_sigma, colimit_sset, delta,
                   enumerate_maps, horn, product_sset, sphere, two_point)


class CheckRecord:
    def __init__(self, name, passed, expected, computed, provenance, seconds):
        self.name = name
        self.passed = passed
        self.expected = expected
        self.computed = computed
        self.provenance = provenance
        self.seconds = seconds

    def to_dict(self):
        return {"name": self.name,
                "passed": self.passed,
                "expected": str(self.expected),
                "computed": str(self.computed),
                "provenance": self.provenance,
                "seconds": round(self.seconds, 3)}


class SuiteReport:
    def __init__(self, name, checks, seconds):
        self.name = name
        self.checks = list(checks)
        self.seconds = seconds

    @property
    def overall(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {"suite": self.name,
                "overall": "pass" if self.overall else "fail",
                "seconds": round(self.seconds, 3),
                "checks": [c.to_dict() for c in self.checks]}

    def summary_lines(self):
        lines = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name}")
            if not c.passed:
                lines.append(f"         expected {c.expected}, got {c.computed}")
        status = "pass" if self.overall else "FAIL"
        lines.append(f"suite {self.name}: {status} "
                     f"({len(self.checks)} checks, {self.seconds:.1f}s)")
        return lines


class _Collector:
    def __init__(self):
        self.checks = []
        self._t0 = time.perf_counter()

    def add(self, name, expected, computed, provenance):
        now = time.perf_counter()
        self.checks.append(CheckRecord(name, expected == computed, expected,
                                       computed, provenance, now - self._t0))
        self._t0 = now

    def done(self, name, start):
        return SuiteReport(name, self.checks, time.perf_counter() - start)


# ---------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------

def full_subcat(C, objects):
    """Full subcategory on a subset of objects."""
    objects = tuple(objects)
    oset = frozenset(objects)
    morphisms = tuple(m for m in C.morphisms
                      if C.src[m] in oset and C.tgt[m] in oset)
    mset = frozenset(morphisms)
    comp = {k: h for k, h in C.comp.items() if k[0] in mset and k[1] in mset}
    return FinCategory(objects, morphisms,
                       {m: C.src[m] for m in morphisms},
                       {m: C.tgt[m] for m in morphisms},
                       {o: C.ident[o] for o in objects}, comp)


def inclusion_functor(A, B):
    return Functor(A, B, {o: o for o in A.objects},
                   {m: m for m in A.morphisms})


def constant_functor(A, C, obj):
    return Functor(A, C, {o: obj for o in A.objects},
                   {m: C.ident[obj] for m in A.morphisms})


def chaotic_functor(A, C, obj_map):
    """Functor between chaotic groupoids from an object assignment."""
    return Functor(A, C, dict(obj_map),
                   {(a, b): (obj_map[a], obj_map[b]) for (a, b) in A.morphisms})


def _nerve_map(F, NX, NY):
    """Nerve of a functor, re-targeted at prebuilt nerve instances."""
    g = nerve_functor(F, NX.bound)
    return SimplicialMap(NX, NY, {n: g.positions(n) for n in NX.degrees()})


def _inclusion_map(X, Y):
    return SimplicialMap(X, Y, {n: {x: x for x in X.simplices[n]}
                                for n in X.degrees()})


def _h_strings(X, up_to):
    return tuple(str(h) for h in homology_list(X, up_to))


# ---------------------------------------------------------------------
# the twelve suites
# ---------------------------------------------------------------------

def suite_identities(config):
    """Every corpus object satisfies its own structural audit."""
    start = time.perf_counter()
    col = _Collector()
    roster = [
        ("delta(2)@3", delta(2, 3)),
        ("boundary(2)@3", boundary(2, 3)),
        ("horn(2,1)@3", horn(2, 1, 3)),
        ("sphere(1)@4", sphere(1, 4)),
        ("two_point@3", two_point(3)),
        ("product delta(1)xdelta(1)@2", product_sset(delta(1, 2), delta(1, 2))),
        ("c_sigma(2,(0,))@3", c_sigma(2, (0,), 3)),
        ("dec sphere(1)@4", dec(sphere(1, 4))),
        ("d_star delta(1)@4", d_star(delta(1, 4))),
        ("box delta(1)xdelta(1)@3", box_product(delta(1, 3), delta(1, 3))),
        ("wbar dec delta(2)@4", wbar(dec(delta(2, 4)))),
        ("diag box delta(1)xdelta(1)@3",
         diag(box_product(delta(1, 3), delta(1, 3)))),
    ]
    for name, obj in roster:
        col.add(f"audit {name}", [], obj.audit(), "audit")
    for name, C in [("discrete(3)", discrete(range(3))),
                    ("chaotic(3)", chaotic(range(3))),
                    ("cyclic_group(4)", cyclic_group(4)),
                    ("arrow", arrow_cat()),
                    ("product chaotic(2)xcyclic(2)",
                     product_cat(chaotic(range(2)), cyclic_group(2)))]:
        col.add(f"validate {name}", [], C.validate(), "audit")
    for name, S in [("s0 scat@3", s0_scat(3)),
                    ("constant BZ/2@3", constant_scat(cyclic_group(2), 3)),
                    ("pi dec sphere(1)@5", pi_levelwise(
                        dec(sphere(1, 5)), config["closure_bound"])),
                    ("basepointed BZ/2@2",
                     add_basepoint(constant_scat(cyclic_group(2), 2)))]:
        col.add(f"audit {name}", [], S.audit(), "audit")
        col.add(f"audit nerve of {name}", [],
                nerve_iso_levelwise(S, 2).audit(), "audit")
    for name, P in [("suspension spectrum of s0@2",
                     sigma_infinity(s0_scat(2), 2,
                                    closure_bound=config["closure_bound"])),
                    ("terminal spectrum", terminal_spectrum(2))]:
        col.add(f"validate {name}", [], P.validate(), "audit")
    return col.done("identities", start)


def suite_c_sigma(config):
    """Every cone-like subcomplex of a simplex boundary is acyclic in
    low degrees, and its fundamental groupoid is equivalent to a point."""
    start = time.perf_counter()
    col = _Collector()
    for n in (1, 2, 3):
        vertices = tuple(range(n + 1))
        sigmas = []
        for size in range(1, n + 1):
            from itertools import combinations
            sigmas.extend(combinations(vertices, size))
        for sigma in sigmas:
            X = c_sigma(n, sigma, 4)
            hs = _h_strings(X, 2)
            col.add(f"H(c_sigma({n},{sigma})) trivial",
                    ("Z", "0", "0"), hs, "cross-check")
            M = materialize_groupoid(fundamental_groupoid(X),
                                     config["closure_bound"])
            contractible = all(len(M.hom(a, b)) == 1
                               for a in M.objects for b in M.objects)
            col.add(f"pi(c_sigma({n},{sigma})) equivalent to a point",
                    True, contractible, "cross-check")
    return col.done("c-sigma-contractibility", start)


def suite_acyclic_cofibrations(config):
    """Horn inclusions stay weak equivalences through the levelwise
    groupoid and diagonal nerve constructions."""
    start = time.perf_counter()
    col = _Collector()
    for n in (1, 2):
        D = delta(n, 7)
        dsD = d_star(D)
        piD = pi_levelwise(dsD, config["closure_bound"])
        for i in range(n + 1):
            H = horn(n, i, 7)
            f = _inclusion_map(H, D)
            g = pi_functor(d_star_map(f), target_pi=piD,
                           closure_bound=config["closure_bound"])
            probe = weak_equivalence_probe(diag_nerve_iso_map(g), 2)
            col.add(f"horn({n},{i}) -> delta({n}) probe",
                    "ConfirmedUpTo(2)", str(probe), "cross-check")
    return col.done("acyclic-cofibrations", start)


def _pushout_instances():
    out = []
    B = chaotic(range(2))
    A = full_subcat(B, [0])
    C = cyclic_group(2)
    out.append(("pt in chaotic(2), to Z/2", A, B, C,
                constant_functor(A, C, "*")))
    C = cyclic_group(3)
    out.append(("pt in chaotic(2), to Z/3", A, B, C,
                constant_functor(A, C, "*")))
    C = terminal_cat()
    out.append(("pt in chaotic(2), to pt", A, B, C,
                constant_functor(A, C, "*")))
    B = chaotic(range(3))
    A = full_subcat(B, [0])
    C = cyclic_group(2)
    out.append(("pt in chaotic(3), to Z/2", A, B, C,
                constant_functor(A, C, "*")))
    A = full_subcat(B, [0, 1])
    C = chaotic(range(2))
    out.append(("chaotic(2) in chaotic(3), iso to chaotic(2)", A, B, C,
                chaotic_functor(A, C, {0: 0, 1: 1})))
    C = terminal_cat()
    out.append(("chaotic(2) in chaotic(3), collapse", A, B, C,
                constant_functor(A, C, "*")))
    B = chaotic(range(4))
    A = full_subcat(B, [0, 1, 2])
    C = chaotic(range(2))
    out.append(("chaotic(3) in chaotic(4), fold to chaotic(2)", A, B, C,
                chaotic_functor(A, C, {0: 0, 1: 1, 2: 0})))
    B = cyclic_group(2)
    A = B
    C = cyclic_group(4)
    out.append(("Z/2 = Z/2, index-2 inclusion in Z/4", A, B, C,
                Functor(A, C, {"*": "*"}, {0: 0, 1: 2})))
    B = cyclic_group(3)
    A = B
    C = terminal_cat()
    out.append(("Z/3 = Z/3, collapse", A, B, C,
                constant_functor(A, C, "*")))
    B = chaotic(range(2))
    A = B
    C = cyclic_group(2)
    f = Functor(A, C, {0: "*", 1: "*"},
                {(0, 0): 0, (1, 1): 0, (0, 1): 1, (1, 0): 1})
    out.append(("chaotic(2) = chaotic(2), twist onto Z/2", A, B, C, f))
    return out


def suite_niso_pushout(config):
    """Pushouts of groupoids along full inclusions commute with the
    nerve in homology through degree 2."""
    start = time.perf_counter()
    col = _Collector()
    bound = 4
    for label, A, B, C, f in _pushout_instances():
        incl = inclusion_functor(A, B)
        P, _ = colimit_cat([A, B, C], [(0, 1, incl), (0, 2, f)],
                           config["closure_bound"])
        NP = nerve(iso_subgroupoid(P), bound)
        NA, NB, NC = nerve(A, bound), nerve(B, bound), nerve(C, bound)
        NQ, _ = colimit_sset([NA, NB, NC],
                             [(0, 1, _nerve_map(incl, NA, NB)),
                              (0, 2, _nerve_map(f, NA, NC))])
        col.add(f"pushout homology: {label}",
                _h_strings(NQ, 2), _h_strings(NP, 2), "cross-check")
    return col.done("niso-pushout", start)


def _diag_wbar_instances():
    return [
        ("dec delta(2)@7", dec(delta(2, 7))),
        ("dec boundary(2)@7", dec(boundary(2, 7))),
        ("d_star boundary(2)@7", d_star(boundary(2, 7))),
        ("box delta(1)xdelta(1)@3", box_product(delta(1, 3), delta(1, 3))),
        ("nerve of s0 scat@3", nerve_iso_levelwise(s0_scat(3))),
        ("nerve of constant BZ/2@3",
         nerve_iso_levelwise(constant_scat(cyclic_group(2), 3))),
    ]


def suite_diag_wbar(config):
    """The diagonal and the codiagonal of a bisimplicial set carry the
    same homology through degree 2."""
    start = time.perf_counter()
    col = _Collector()
    for label, B in _diag_wbar_instances():
        hd = _h_strings(diag(B), 2)
        hw = _h_strings(wbar(B), 2)
        col.add(f"diag vs wbar homology: {label}", hd, hw, "cross-check")
    return col.done("diag-wbar", start)


def suite_unit(config):
    """Round trips through the levelwise groupoid: homology of the
    diagonal nerve of pi(dec Y) matches Y, and hom counts match across
    both adjunction candidates."""
    start = time.perf_counter()
    col = _Collector()
    cb = config["closure_bound"]
    for label, Y in [("delta(0)", delta(0, 6)),
                     ("delta(1)", delta(1, 6)),
                     ("boundary(2)", boundary(2, 6)),
                     ("sphere(1)", sphere(1, 6))]:
        D = diag_nerve_iso(pi_levelwise(dec(Y), cb))
        col.add(f"unit homology: {label}",
                _h_strings(Y, 2), _h_strings(D, 2), "cross-check")
    shapes = [("delta(0)", lambda b: delta(0, b)),
              ("delta(1)", lambda b: delta(1, b)),
              ("boundary(1)", lambda b: boundary(1, b))]
    targets = [("constant BZ/2@2", constant_scat(cyclic_group(2), 2)),
               ("pi dec sphere(1)", pi_levelwise(dec(sphere(1, 6)), cb))]
    for tlabel, C in targets:
        b = C.bound
        W = wbar_nerve_iso(C)
        Dg = diag_nerve_iso(C)
        for xlabel, mk in shapes:
            lhs = len(enumerate_simplicial_functors(
                pi_levelwise(dec(mk(b + 3)), cb), C, config["cap"]))
            rhs = len(enumerate_maps(mk(W.bound), W))
            col.add(f"dec/wbar hom count: {xlabel} into {tlabel}",
                    rhs, lhs, "cross-check")
            lhs = len(enumerate_simplicial_functors(
                pi_levelwise(d_star(mk(b + 4)), cb), C, config["cap"]))
            rhs = len(enumerate_maps(mk(Dg.bound), Dg))
            col.add(f"d_star/diag hom count: {xlabel} into {tlabel}",
                    rhs, lhs, "cross-check")
    return col.done("unit", start)


def _effective_mono_instances():
    D = chaotic(range(2))
    yield "pt in chaotic(2)", full_subcat(D, [0]), D
    D = chaotic(range(3))
    yield "pt in chaotic(3)", full_subcat(D, [0]), D
    yield "chaotic(2) in chaotic(3)", full_subcat(D, [0, 1]), D
    D = chaotic(range(4))
    yield "chaotic(2) in chaotic(4), objects 0 and 2", full_subcat(D, [0, 2]), D
    D = product_cat(chaotic(range(2)), cyclic_group(2))
    yield ("Z/2 vertex in chaotic(2)xZ/2",
           full_subcat(D, [D.objects[0]]), D)
    D = cyclic_group(3)
    yield "Z/3 in itself", D, D


def suite_effective_mono(config):
    """A full groupoid inclusion C -> D is recovered exactly as the
    equalizer of the two cocones into the pushout D along C with D."""
    start = time.perf_counter()
    col = _Collector()
    for label, C, D in _effective_mono_instances():
        incl = inclusion_functor(C, D)
        _, cocones = colimit_cat([C, D, D], [(0, 1, incl), (0, 2, incl)],
                                 config["closure_bound"])
        E = equalizer_cat(cocones[1], cocones[2])
        col.add(f"equalizer recovers subcategory: {label}",
                (list(C.objects), list(C.morphisms)),
                (list(E.objects), list(E.morphisms)), "cross-check")
    return col.done("effective-mono", start)


def suite_suspension_ladder(config):
    """Iterated suspension of the two-point simplicial category shifts a
    single homology class up one degree at a time, and smashing with the
    two-point object changes nothing."""
    start = time.perf_counter()
    col = _Collector()
    cb = config["closure_bound"]
    S = s0_scat(3)
    expected = [("Z + Z", "0", "0"), ("Z", "Z", "0"), ("Z", "0", "Z")]
    for n in range(3):
        col.add(f"homology of suspension^{n} of the two-point object",
                expected[n], _h_strings(diag_nerve_iso(S), 2), "frozen")
        if n < 2:
            S = suspend(S, closure_bound=cb)
    for label, C in [("two-point object@2", s0_scat(2)),
                     ("basepointed BZ/2@2",
                      add_basepoint(constant_scat(cyclic_group(2), 2)))]:
        W = smash(C, two_point(C.bound + 3), closure_bound=cb)
        R = W.smash_rho
        ok = True
        levels = {}
        for n in range(W.bound + 1):
            x = next(o for o in R.levels[n].objects
                     if o != R.basepoints[n])
            cocone = W.smash_cocones[n][1]
            Cn, Wn = C.levels[n], W.levels[n]
            obj_map = {o: cocone.obj_map[(o, x)] for o in Cn.objects}
            mor_map = {m: cocone.mor_map[(m, R.levels[n].ident[x])]
                       for m in Cn.morphisms}
            levels[n] = Functor(Cn, Wn, obj_map, mor_map)
            if (len(set(obj_map.values())) != len(Wn.objects)
                    or len(set(mor_map.values())) != len(Wn.morphisms)):
                ok = False
        F = SimplicialFunctor(C, W, levels)
        col.add(f"smash with two-point object is the identity: {label}",
                (True, []), (ok, F.validate(pointed=True)), "cross-check")
    return col.done("suspension-ladder", start)


def suite_mapspace(config):
    """The mapping space out of the two-point object reproduces the
    diagonal nerve degree by degree."""
    start = time.perf_counter()
    col = _Collector()
    cb = config["closure_bound"]
    corpus = [
        ("two-point object@3", s0_scat(3)),
        ("basepointed BZ/2@3",
         add_basepoint(constant_scat(cyclic_group(2), 3))),
        ("pointed terminal@3", constant_pointed_scat(terminal_cat(), "*", 3)),
        ("pi dec sphere(1)", pi_levelwise(dec(sphere(1, 6)), cb)),
    ]
    for label, C in corpus:
        D = diag_nerve_iso(C)
        M = mapping_space(two_point(D.bound), C)
        col.add(f"mapping space sizes: {label}",
                tuple(D.size(n) for n in range(M.bound + 1)),
                tuple(M.size(n) for n in M.degrees()), "cross-check")
        col.add(f"mapping space components: {label}",
                len(pi0(D)), len(pi0(M)), "cross-check")
    return col.done("mapspace", start)


def suite_k_theory(config):
    """Frozen K-theory reports for the classifying object of Z/2 and
    for the two-point object."""
    start = time.perf_counter()
    col = _Collector()
    B = constant_pointed_scat(cyclic_group(2), "*", 4)
    rep = k_groups(B, 3)
    col.add("BZ/2: K0 trivial", 1, rep.k0_size, "frozen")
    col.add("BZ/2: K1 is Z/2", AbelianGroupDescriptor(0, (2,)),
            rep.k1_abelian, "frozen")
    col.add("BZ/2: H2 approximation trivial", "0",
            str(rep.homology_upper[2]), "frozen")
    col.add("BZ/2: H3 approximation is Z/2", "Z/2",
            str(rep.homology_upper[3]), "frozen")
    rep = k_groups(s0_scat(3), 1)
    col.add("two-point object: K0 has two classes", 2, rep.k0_size, "frozen")
    col.add("two-point object: K1 trivial", True,
            rep.k1_abelian.is_trivial() and not rep.k1_presentation.generators,
            "frozen")
    return col.done("k-theory", start)


def suite_omega_probe(config):
    """The loop-spectrum probe refutes the suspension spectrum of the
    two-point object at level 0 and confirms the terminal spectrum."""
    start = time.perf_counter()
    col = _Collector()
    cb = config["closure_bound"]
    rep = omega_spectrum_probe(sigma_infinity(s0_scat(2), 2, closure_bound=cb),
                               closure_bound=cb)
    col.add("suspension spectrum of two-point object refuted",
            ("refuted", "refuted"), (rep.overall, rep.verdicts[0].kind),
            "frozen")
    rep = omega_spectrum_probe(terminal_spectrum(3), closure_bound=cb)
    col.add("terminal spectrum confirmed", "confirmed", rep.overall, "frozen")
    return col.done("omega-probe", start)


def suite_directed_colimit(config):
    """Hom counts out of compact sources into a chain colimit agree with
    hom counts into the final stage."""
    start = time.perf_counter()
    col = _Collector()
    cb = config["closure_bound"]
    stages = [constant_scat(discrete(range(k)), 2) for k in range(1, 5)]
    edges = []
    for k in range(3):
        F = inclusion_functor(stages[k].levels[0], stages[k + 1].levels[0])
        edges.append((k, k + 1,
                      SimplicialFunctor(stages[k], stages[k + 1],
                                        {n: F for n in range(3)})))
    colim, _ = colimit_scat(stages, edges, cb)
    col.add("chain colimit audit", [], colim.audit(), "audit")
    for n in range(3):
        P = pi_levelwise(d_star(delta(n, 5)), cb)
        into_colim = len(enumerate_simplicial_functors(P, colim,
                                                       config["cap"]))
        into_last = len(enumerate_simplicial_functors(P, stages[-1],
                                                      config["cap"]))
        col.add(f"hom count from pi d_star delta({n}) matches final stage",
                into_last, into_colim, "cross-check")
    return col.done("directed-colimit", start)


SUITES = {
    "identities": suite_identities,
    "c-sigma-contractibility": suite_c_sigma,
    "acyclic-cofibrations": suite_acyclic_cofibrations,
    "niso-pushout": suite_niso_pushout,
    "diag-wbar": suite_diag_wbar,
    "unit": suite_unit,
    "effective-mono": suite_effective_mono,
    "suspension-ladder": suite_suspension_ladder,
    "mapspace": suite_mapspace,
    "k-theory": suite_k_theory,
    "omega-probe": suite_omega_probe,
    "directed-colimit": suite_directed_colimit,
}

DEFAULT_CONFIG = {
    "closure_bound": 20000,
    "cap": 10 ** 6,
}


def run_suite(name, config=None):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    merged = dict(DEFAULT_CONFIG)
    merged.update(config or {})
    return SUITES[name](merged)
