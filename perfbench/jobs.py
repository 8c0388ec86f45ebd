"""Job families: what a job calls in simpcat and how its outcome is checked.

A job is one unit of work with a seeded parameter set.  Its expected
outcome comes from one of three sources, named in the manifest:

* ``closed-form``: a value derived by hand from the mathematics (cell
  counts of standard simplices, homology of spheres and of BZ/g, the
  canonical JSON form of a document);
* ``cross-check``: two independent computations in the program that
  must agree (diag vs wbar homology, hom counts along both adjunction
  routes, an independent audit of an emitted table);
* ``exit-code``: the documented CLI exit code (2 bad input, 3 bound
  exceeded) for a malformed or over-bound request.

No expected value is taken from the package's suites.
"""

from __future__ import annotations

import contextlib
import io
import json
from math import comb

SOURCES = ("closed-form", "cross-check", "exit-code")


class Job:
    __slots__ = ("id", "family", "params", "source", "expected", "defect")

    def __init__(self, family, params, source, expected, defect=None):
        if source not in SOURCES:
            raise ValueError(f"unknown expectation source {source!r}")
        self.id = None
        self.family = family
        self.params = params
        self.source = source
        self.expected = expected
        self.defect = defect   # known defect this input shows at baseline

    def manifest(self):
        entry = {"id": self.id, "family": self.family, "params": self.params,
                 "source": self.source, "expected": _describe(self.expected)}
        if self.defect:
            entry["known_defect"] = self.defect
        return entry


def _describe(expected):
    if isinstance(expected, dict) and "stdout" in expected:
        return dict(expected, stdout="canonical form of the input document")
    return expected


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def cells(shape, m):
    """Number of m-simplices of a standard simplicial set.  Monotone maps
    [m] -> [n] number C(m+n+1, n); C(m, n) of them are onto, and C(m, n-1)
    have image exactly [n] minus one given vertex."""
    kind = shape[0]
    if kind == "point":
        return 1
    if kind == "two_point":
        return 2
    n = shape[1]
    if kind == "delta":
        return comb(m + n + 1, n)
    if kind == "boundary":
        return comb(m + n + 1, n) - comb(m, n)
    if kind == "horn":
        return comb(m + n + 1, n) - comb(m, n) - comb(m, n - 1)
    if kind == "sphere":
        return 1 + comb(m, n)
    raise ValueError(f"no closed form for {shape!r}")


def sphere_homology(n, top):
    """H_0..H_top of the n-sphere, n >= 0 (S^0 is two points)."""
    if n == 0:
        return ["Z + Z"] + ["0"] * top
    return ["Z" if k in (0, n) else "0" for k in range(top + 1)]


def shape_homology(shape, top):
    kind = shape[0]
    if kind in ("delta", "horn", "point"):
        return ["Z"] + ["0"] * top
    if kind == "two_point":
        return sphere_homology(0, top)
    if kind == "boundary":
        return sphere_homology(shape[1] - 1, top)
    if kind == "sphere":
        return sphere_homology(shape[1], top)
    raise ValueError(f"no closed form for {shape!r}")


def cyclic_homology(g, top):
    """H_k(BZ/g): Z, then Z/g in odd degrees and 0 in even ones."""
    return ["Z"] + [f"Z/{g}" if k % 2 else "0" for k in range(1, top + 1)]


def shape_abelian_pi1(shape):
    if shape[0] in ("sphere", "boundary"):
        dim = shape[1] - (shape[0] == "boundary")
        return "Z" if dim == 1 else "0"
    return "0"


# ---------------------------------------------------------------------------
# family registry
# ---------------------------------------------------------------------------

FAMILIES = {}


def family(name):
    def register(fn):
        FAMILIES[name] = fn
        return fn
    return register


def build_shape(m, shape, bound):
    """Build a standard simplicial set from its (kind, n[, i]) tuple."""
    kind = shape[0]
    if kind == "delta":
        return m.sset.delta(shape[1], bound)
    if kind == "boundary":
        return m.sset.boundary(shape[1], bound)
    if kind == "horn":
        return m.sset.horn(shape[1], shape[2], bound)
    if kind == "sphere":
        return m.sset.sphere(shape[1], bound)
    raise ValueError(f"unknown shape {shape!r}")


def _h(m, X, top):
    return [str(h) for h in m.homology.homology_list(X, top)]


@family("horn-probe")
def run_horn_probe(ctx, p):
    m = ctx.m
    n, i, b = p["n"], p["i"], p["bound"]
    D, H = m.sset.delta(n, b), m.sset.horn(n, i, b)
    incl = m.sset.SimplicialMap(H, D, {k: {x: x for x in H.simplices[k]}
                                       for k in H.degrees()})
    target = m.scat.pi_levelwise(m.bisset.d_star(D))
    g = m.scat.pi_functor(m.bisset.d_star_map(incl), target_pi=target)
    return str(m.homology.weak_equivalence_probe(
        m.scat.diag_nerve_iso_map(g), 2))


@family("unit-roundtrip")
def run_unit_roundtrip(ctx, p):
    """H(diag_nerve_iso(pi_levelwise(dec Y))) alongside H(Y)."""
    m = ctx.m
    Y = build_shape(m, p["shape"], p["bound"])
    D = m.scat.diag_nerve_iso(m.scat.pi_levelwise(m.bisset.dec(Y)))
    return {"Y": _h(m, Y, 2), "unit": _h(m, D, 2)}


def build_bisset(m, p):
    kind, b = p["construction"], p["bound"]
    if kind == "box":
        return m.bisset.box_product(build_shape(m, p["shape"], b),
                                    m.sset.delta(1, b))
    Y = build_shape(m, p["shape"], b)
    return m.bisset.dec(Y) if kind == "dec" else m.bisset.d_star(Y)


@family("diag-wbar")
def run_diag_wbar(ctx, p):
    m = ctx.m
    B = build_bisset(m, p)
    return {"diag": _h(m, m.bisset.diag(B), 2),
            "wbar": _h(m, m.bisset.wbar(B), 2)}


@family("suspension-ladder")
def run_suspension_ladder(ctx, p):
    m = ctx.m
    S = m.scat.s0_scat(p["bound"])
    rungs = []
    for r in range(p["k"] + 1):
        if r:
            S = m.scat.suspend(S)
        rungs.append(_h(m, m.scat.diag_nerve_iso(S), 2))
    return rungs


def build_target(m, key):
    """Target simplicial categories of the hom-count family."""
    kind, bound = key.split("@")
    bound = int(bound)
    if kind.startswith("Z"):
        return m.scat.constant_scat(m.cat.cyclic_group(int(kind[1:])), bound)
    if kind.startswith("chaotic"):
        return m.scat.constant_scat(m.cat.chaotic(range(int(kind[7:]))),
                                    bound)
    if kind == "pi-dec-sphere1":
        return m.scat.pi_levelwise(m.bisset.dec(m.sset.sphere(1, bound)))
    if kind.startswith("chain"):
        return _chain_colimit(m, int(kind[5:]), bound)
    raise ValueError(f"unknown target {key!r}")


def _chain_colimit(m, stages, bound):
    """Colimit of constant discrete(1) -> ... -> discrete(stages)."""
    cs = [m.scat.constant_scat(m.cat.discrete(range(k)), bound)
          for k in range(1, stages + 1)]
    edges = []
    for k in range(stages - 1):
        A, B = cs[k].levels[0], cs[k + 1].levels[0]
        F = m.cat.Functor(A, B, {o: o for o in A.objects},
                          {f: f for f in A.morphisms})
        edges.append((k, k + 1, m.scat.SimplicialFunctor(
            cs[k], cs[k + 1], {n: F for n in range(bound + 1)})))
    return m.scat.colimit_scat(cs, edges)[0]


@family("hom-count")
def run_hom_count(ctx, p):
    """Simplicial functors out of pi(dec X) or pi(d_star X), counted
    against simplicial maps into the matching nerve of the target."""
    m = ctx.m
    C = build_target(m, p["target"])
    b = C.bound
    if p["route"] == "dec":
        src = m.scat.pi_levelwise(m.bisset.dec(build_shape(m, p["shape"],
                                                           b + 3)))
        N = m.scat.wbar_nerve_iso(C)
    else:
        src = m.scat.pi_levelwise(m.bisset.d_star(build_shape(m, p["shape"],
                                                              b + 4)))
        N = m.scat.diag_nerve_iso(C)
    functors = len(m.scat.enumerate_simplicial_functors(src, C))
    maps = len(m.sset.enumerate_maps(build_shape(m, p["shape"], N.bound), N))
    return {"functors": functors, "maps": maps}


@family("cli")
def run_cli(ctx, p):
    """One in-process `simpcat` invocation: its exit code and its output."""
    argv = [ctx.path(a[1:]) if a.startswith("@") else a for a in p["argv"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = ctx.m.cli.main(argv)
        except SystemExit as e:      # argparse usage errors
            code = e.code
    return {"exit": code, "stdout": out.getvalue()}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check(job, observed):
    """Return None when the outcome is right, else a one-line reason."""
    exp = job.expected
    if job.family == "cli":
        return check_cli(exp, observed)
    if job.family == "diag-wbar":
        k = min(len(observed["diag"]), len(observed["wbar"]))
        if k < 2:
            return f"only {k} certified degrees"
        if observed["diag"][:k] != observed["wbar"][:k]:
            return f"diag {observed['diag']} != wbar {observed['wbar']}"
        if observed["diag"][:k] != exp[:k]:
            return f"diag {observed['diag']} != closed form {exp}"
        return None
    if job.family == "hom-count":
        if observed["functors"] != observed["maps"]:
            return (f"{observed['functors']} simplicial functors vs "
                    f"{observed['maps']} maps")
        return None
    if job.family == "unit-roundtrip":
        observed = [observed["Y"], observed["unit"]]
        exp = [exp, exp]
    return None if observed == exp else f"got {observed!r}, want {exp!r}"


def check_cli(exp, obs):
    if obs["exit"] != exp["exit"]:
        return f"exit {obs['exit']}, want {exp['exit']}"
    if exp["exit"] != 0:
        return None
    if "stdout" in exp:
        return None if obs["stdout"] == exp["stdout"] else \
            "output is not the canonical form"
    try:
        report = json.loads(obs["stdout"])
    except ValueError:
        return "output is not JSON"
    for key, want in exp.get("fields", {}).items():
        if report.get(key) != want:
            return f"{key} = {report.get(key)!r}, want {want!r}"
    if "data" in report:
        return audit_table(report["data"], report.get("sizes"))
    return None


def audit_table(data, sizes):
    """Independent check of an emitted simplicial-set table: sizes match
    the cell lists, every face lands one degree down, and the simplicial
    identities d_i d_j = d_{j-1} d_i (i < j) hold on every cell."""
    bound = data["bound"]
    cells_at = {int(n): [json.dumps(x) for x in xs]
                for n, xs in data["simplices"].items()}
    if sizes is not None and sizes != [len(cells_at[n])
                                       for n in range(bound + 1)]:
        return "sizes disagree with the emitted cells"
    faces = {}
    for key, table in data["faces"].items():
        n, i = (int(v) for v in key.split(","))
        faces[(n, i)] = {x: json.dumps(y) for x, y in table.items()}
    for n in range(1, bound + 1):
        lower = set(cells_at[n - 1])
        for i in range(n + 1):
            table = faces.get((n, i), {})
            for x in cells_at[n]:
                if table.get(x) not in lower:
                    return f"d_{i} of a {n}-cell is not a {n - 1}-cell"
        if n < 2:
            continue
        for x in cells_at[n]:
            for j in range(n + 1):
                for i in range(j):
                    a = faces[(n - 1, i)][faces[(n, j)][x]]
                    b = faces[(n - 1, j - 1)][faces[(n, i)][x]]
                    if a != b:
                        return f"d_{i} d_{j} != d_{j - 1} d_{i} in degree {n}"
    return None
