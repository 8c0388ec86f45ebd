"""Seeded workload generators.

Each workload is a list of jobs drawn from fixed job families.  The seed
draws the free parameters (horn indices, shapes, targets, sizes within a
cost class, documents) and the order of the jobs; the number of jobs in
each cost class is fixed, so every seed asks for about the same amount
of work and seeds can be compared run to run.

Every workload also runs the same small `control` jobs, one per layer
that the workload itself leaves idle, so each layer's per-layer figures
exist on every workload and stay near zero where they are not the point.
"""

from __future__ import annotations

import json
import os

from jobs import (Job, build_shape, cells, cyclic_homology,
                  shape_abelian_pi1, shape_homology)

def _unit(shape, bound):
    return Job("unit-roundtrip", {"shape": list(shape), "bound": bound},
               "closed-form", shape_homology(shape, 2))


def _ladder(k, bound):
    rungs = [shape_homology(("two_point",), 2) if r == 0
             else shape_homology(("sphere", r), 2) for r in range(k + 1)]
    return Job("suspension-ladder", {"k": k, "bound": bound},
               "closed-form", rungs)


def _diag_wbar(construction, shape, bound):
    """diag and wbar of dec Y, d_star Y or Y box delta(1) all have the
    homology of Y."""
    params = {"construction": construction, "shape": list(shape),
              "bound": bound}
    return Job("diag-wbar", params, "cross-check", shape_homology(shape, 2))


def _horn_probe(n, i, bound):
    return Job("horn-probe", {"n": n, "i": i, "bound": bound},
               "closed-form", "ConfirmedUpTo(2)")


def _hom_count(shape, target, route):
    return Job("hom-count", {"shape": list(shape), "target": target,
                             "route": route}, "cross-check",
               "simplicial functors = simplicial maps into the nerve")


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

SCHEMA = "simpcat-document/1"


def _doc(*entities, config=None):
    return {"schema": SCHEMA, "config": config or {},
            "entities": list(entities), "suites": []}


def _sset(name, shape, bound):
    b = {"type": shape[0], "bound": bound}
    if shape[0] in ("delta", "boundary", "sphere", "horn"):
        b["n"] = shape[1]
    if shape[0] == "horn":
        b["index"] = shape[2]
    return {"name": name, "kind": "simplicial_set", "builder": b}


def _data_sset(name, shape, bound):
    """Entity given as explicit tables, encoded by the program at set-up."""
    return {"name": name, "kind": "simplicial_set",
            "data_of": [list(shape), bound]}


def _category(name, spec):
    kind, size = spec
    key = {"cyclic_group": "order", "chaotic": "size",
           "discrete": "size"}.get(kind)
    b = {"type": kind}
    if key:
        b[key] = size
    return {"name": name, "kind": "category", "builder": b}


def _scat(name, builder):
    return {"name": name, "kind": "simplicial_category", "builder": builder}


def nerve_cells(spec, k):
    kind, size = spec
    return {"cyclic_group": lambda: size ** k,
            "chaotic": lambda: size ** (k + 1),
            "discrete": lambda: size,
            "arrow": lambda: k + 2,
            "terminal": lambda: 1}[kind]()


def _cli(argv, doc, expected, source, defect=None):
    params = {"argv": argv}
    if doc is not None:
        params["doc"] = doc
    return Job("cli", params, source, expected, defect)


def _compute(op, doc, entity, fields, extra=()):
    return _cli(["compute", op, "@doc", entity, *extra], doc,
                {"exit": 0, "fields": fields}, "closed-form")


def _refuse(argv, doc, code, defect=None):
    return _cli(argv, doc, {"exit": code}, "exit-code", defect)


def write_documents(ctx, jobs):
    """Materialize each job's document under ctx.workdir.  Explicit data
    tables are encoded with the program's own encoder; the expected
    output of `build` is the canonical form of the text written."""
    encoded = {}
    for job in jobs:
        doc = job.params.get("doc")
        if doc is None:
            continue
        name = f"{job.id}.json"
        if "raw" in doc:
            text = doc["raw"]
        else:
            payload = dict(doc)
            tamper = payload.pop("tamper", False)
            payload["entities"] = []
            for entry in doc["entities"]:
                if "data_of" in entry:
                    shape, bound = entry["data_of"]
                    key = (tuple(shape), bound)
                    if key not in encoded:
                        encoded[key] = ctx.m.document.sset_to_entry(
                            entry["name"], build_shape(ctx.m, shape, bound))
                    entry = dict(encoded[key], name=entry["name"])
                payload["entities"].append(entry)
            text = json.dumps(payload)
            if tamper:
                text = _tamper(text)
        with open(os.path.join(ctx.workdir, name), "w") as fh:
            fh.write(text)
        job.params = dict(job.params, argv=[
            "@" + name if a == "@doc" else a for a in job.params["argv"]])
        if job.expected.get("canonical"):
            job.expected = {"exit": 0, "stdout": json.dumps(
                json.loads(text), sort_keys=True, indent=2,
                separators=(",", ": ")) + "\n"}


def _tamper(text):
    """Point the first edge's d_0 at a vertex that does not exist, so the
    load-time audit must refuse the table."""
    payload = json.loads(text)
    faces = payload["entities"][0]["data"]["faces"]["1,0"]
    faces[min(faces)] = "no-such-vertex"
    return json.dumps(payload)


def _build(doc):
    return _cli(["build", "@doc"], doc, {"exit": 0, "canonical": True},
                "closed-form")


# ---------------------------------------------------------------------------
# the control jobs, shared by every workload
# ---------------------------------------------------------------------------

def control(rng):
    g = rng.choice([2, 3])
    b = rng.choice([2, 3])
    s0 = _scat("s0", {"type": "s0_scat", "bound": 2})
    return [
        _hom_count(rng.choice([("delta", 0), ("delta", 1), ("boundary", 1)]),
                   f"Z{g}@2", "dec"),
        _horn_probe(1, rng.choice([0, 1]), 6),
        _unit(rng.choice([("delta", 1), ("sphere", 1)]), 6),
        _ladder(1, 3),
        _diag_wbar("dec", ("sphere", 1), 5),
        _compute("ktheory", _doc(s0), "s0",
                 {"k0_size": 2, "k1_abelian": "0"}),
        _build(_doc(_sset("X", ("sphere", 1), 3), s0,
                    {"name": "sp", "kind": "spectrum",
                     "builder": {"type": "sigma_infinity", "category": "s0",
                                 "length": 2}})),
        _compute("nerve", _doc(_category("g", ("cyclic_group", g))), "g",
                 {"sizes": [g ** k for k in range(b + 1)]},
                 ("--bound", str(b))),
    ]


# ---------------------------------------------------------------------------
# the three workloads
# ---------------------------------------------------------------------------

def _draw(rng, classes):
    """Each class is (count, pool): `count` jobs drawn from a pool of
    similar cost.  Class sizes put the median job and the tail job (the
    11th slowest) inside a class rather than on the edge between two, and
    those two classes draw among jobs of near-equal cost, so the seed
    moves the two percentiles little."""
    return [rng.choice(pool)() for count, pool in classes
            for _ in range(count)]


def _units(*pairs):
    return [lambda s=s, b=b: _unit(s, b) for s, b in pairs]


def _dws(*triples):
    return [lambda c=c, s=s, b=b: _diag_wbar(c, s, b) for c, s, b in triples]


def _boxes(*pairs):
    return [lambda s=s, b=b: _diag_wbar("box", s, b) for s, b in pairs]


def _horns(n, bound):
    return [lambda i=i: _horn_probe(n, i, bound) for i in range(n + 1)]


D1, D2, B2, B3 = ("delta", 1), ("delta", 2), ("boundary", 2), ("boundary", 3)
S1, S2, H21 = ("sphere", 1), ("sphere", 2), ("horn", 2, 1)

# Probes use truncation 6 or 7: 6 is the least at which degree 2 is certified (at 5
# the probe answers Inconclusive), and horn(2, i)@7 (about 3 s) would
# outweigh the rest of a pass.
PROBE_CLASSES = [
    (1, [lambda: _ladder(2, 3)]),
    (1, _horns(2, 6)),
    (6, _horns(1, 7) + _units((D2, 7), (B3, 6))
     + _dws(("dec", D2, 7), ("d_star", B2, 6))),
    (14, _horns(1, 6) + _units((S2, 6), (B2, 7))),
    (16, _units((B2, 6), (H21, 7)) + _dws(("d_star", D1, 6))
     + [lambda: _ladder(1, 3)]),
    (14, _units((S1, 7), (H21, 6), (D1, 7))
     + _dws(("d_star", S1, 5), ("dec", S1, 7), ("dec", B2, 6),
            ("d_star", D1, 5), ("dec", D1, 7))
     + _boxes((S1, 4), (B2, 3))),
    (8, _units((S1, 6), (D1, 6)) + _dws(("dec", S1, 6), ("dec", D1, 6),
                                        ("dec", S1, 5)) + _boxes((S1, 3))),
]


def probe(rng):
    return _draw(rng, PROBE_CLASSES)


def _homs(*draws):
    return [lambda d=d: _hom_count(*d) for d in draws]


H20, B1, D0 = ("horn", 2, 0), ("boundary", 1), ("delta", 0)
PI_S1 = "pi-dec-sphere1@6"

HOM_CLASSES = [
    # d_star delta(1) into pi dec sphere(1): 16,807 level-3 functors
    (1, _homs((D1, PI_S1, "d_star"))),
    (1, _homs((H20, "chain3@2", "d_star"), (H21, "chain3@2", "d_star"),
              (D1, PI_S1, "dec"), (B2, "chaotic2@2", "dec"))),
    (2, _homs((H20, "Z2@3", "d_star"), (H21, "Z2@3", "d_star"),
              (H20, "chain3@2", "dec"), (H21, "chain3@2", "dec"))),
    (4, _homs((H20, "Z2@2", "d_star"), (H21, "Z2@2", "d_star"),
              (H20, "chaotic2@2", "dec"), (H21, "chaotic2@2", "dec"),
              (D1, "chaotic2@2", "d_star"), (D2, "Z3@2", "dec"))),
    (8, _homs((D1, "chain3@2", "d_star"), (D1, "Z2@3", "d_star"))),
    (6, _homs((D1, "Z3@2", "d_star"), (B1, PI_S1, "dec"),
              (D1, "Z2@2", "d_star"),
              (B2, "Z3@2", "dec"), (B1, PI_S1, "d_star"),
              (D2, "Z2@2", "dec"), (D0, PI_S1, "dec"),
              (D0, PI_S1, "d_star"), (D1, "chain3@2", "dec"))),
    (28, _homs((H20, "Z2@2", "dec"), (H21, "Z2@2", "dec"))),
    (32, _homs(*[(s, t, r) for s in (D0, B1)
                 for t in ("Z2@2", "Z3@2", "Z2@3", "chaotic2@2", "chain3@2")
                 for r in ("dec", "d_star")], (D1, "Z2@2", "dec"),
               (D1, "Z3@2", "dec"))),
]


def hom_count(rng):
    return _draw(rng, HOM_CLASSES)


def _shape(rng):
    return rng.choice([("delta", 1), ("delta", 2), ("boundary", 2),
                       ("boundary", 3), ("sphere", 1), ("sphere", 2),
                       ("horn", 2, rng.randrange(3))])


def documents(rng):
    jobs = []
    # canonical re-serialization of builder documents
    for _ in range(16):
        g = rng.choice([2, 3])
        b = rng.choice([3, 4, 5])
        entities = [_sset("X", _shape(rng), b),
                    _category("G", ("cyclic_group", g)),
                    _scat("BG", {"type": "constant", "category": "G",
                                 "bound": rng.choice([2, 3])})]
        if rng.random() < 0.5:
            entities.append({"name": "D", "kind": "bisimplicial_set",
                             "builder": {"type": rng.choice(["dec", "d_star"]),
                                         "space": "X"}})
        jobs.append(_build(_doc(*entities)))
    # explicit data tables: decode and full audit on every load
    medium = [("delta", 4), ("boundary", 4)]
    for _ in range(2):
        jobs.append(_sset_read(rng, _data_sset, rng.choice(medium), 5,
                               ["build"]))
    for _ in range(8):
        jobs.append(_sset_read(rng, _data_sset, rng.choice(medium), 5,
                               ["homology", "pi0", "pi1"]))
    for _ in range(8):
        shape = rng.choice([("delta", 3), ("sphere", 3)])
        jobs.append(_sset_read(rng, _data_sset, shape, rng.choice([4, 5])))
    big = _doc(_data_sset("X", ("delta", 6), 6))
    jobs.append(_build(big))
    jobs.append(_compute("homology", big, "X", {"groups": ["Z"] + ["0"] * 5}))
    # large builder recipes: build and audit dominate
    jobs.append(_sset_read(rng, _sset, ("delta", 7), 7))
    for _ in range(4):
        shape = rng.choice([("delta", 6), ("boundary", 6),
                            ("horn", 6, rng.randrange(7))])
        jobs.append(_sset_read(rng, _sset, shape, 6))
    jobs += [_compute_job(rng, op) for op in COMPUTE_OPS for _ in range(15)]
    jobs += refusals(rng)
    jobs += known_defects(rng)
    return jobs


def _sset_read(rng, entity, shape, b, ops=("build", "homology", "pi0", "pi1")):
    """One request on a document holding a single simplicial set."""
    doc = _doc(entity("X", shape, b))
    op = rng.choice(ops)
    if op == "build":
        return _build(doc)
    if op == "homology":
        return _compute("homology", doc, "X",
                        {"groups": shape_homology(shape, 2)},
                        ("--degree", "2"))
    if op == "pi0":
        return _compute("pi0", doc, "X", {"count": 1})
    return _compute("pi1", doc, "X",
                    {"abelianization": shape_abelian_pi1(shape)})


COMPUTE_OPS = ("nerve", "diag", "wbar", "dec", "dstar", "homology", "pi0",
               "pi1", "ktheory", "mapspace")
CATEGORY_SPECS = [("cyclic_group", 2), ("cyclic_group", 3),
                  ("cyclic_group", 4), ("chaotic", 2), ("chaotic", 3),
                  ("discrete", 2), ("discrete", 3), ("arrow", None),
                  ("terminal", None)]


def _compute_job(rng, op):
    g = rng.choice([2, 3])
    if op == "nerve":
        spec = rng.choice(CATEGORY_SPECS)
        k = rng.choice([2, 3, 4])
        if spec == ("chaotic", 3):
            k = min(k, 3)
        return _compute("nerve", _doc(_category("C", spec)), "C",
                        {"sizes": [nerve_cells(spec, j)
                                   for j in range(k + 1)]},
                        ("--bound", str(k)))
    if op in ("diag", "wbar"):
        b = rng.choice([2, 3])
        if rng.random() < 0.5:
            doc = _doc(_category("G", ("cyclic_group", g)),
                       _scat("S", {"type": "constant", "category": "G",
                                   "bound": b}))
            sizes = [g ** j for j in range(b + 1)]
        else:
            doc = _doc(_scat("S", {"type": "s0_scat", "bound": b}))
            sizes = [2] * (b + 1)
        if op == "wbar" or rng.random() < 0.5:
            return _compute(op, doc, "S", {"sizes": sizes})
        # diagonal of a bisimplicial entity: dec Y gives Y in odd degrees
        shape, b = _shape(rng), 4
        kind = rng.choice(["dec", "d_star"]) if shape[0] == "delta" else "dec"
        doc = _doc(_sset("Y", shape, b),
                   {"name": "B", "kind": "bisimplicial_set",
                    "builder": {"type": kind, "space": "Y"}})
        top = (b - 1) // 2
        sizes = ([cells(shape, 2 * j + 1) for j in range(top + 1)]
                 if kind == "dec" else
                 [cells(shape, j) ** 2 for j in range(top + 1)])
        return _compute("diag", doc, "B", {"sizes": sizes})
    if op in ("dec", "dstar"):
        shape, b = _shape(rng), rng.choice([3, 4, 5])
        if op == "dstar":
            shape = ("delta", rng.choice([1, 2]))
            sizes = {f"{p},{q}": cells(shape, p) * cells(shape, q)
                     for p in range(b) for q in range(b - p)}
        else:
            sizes = {f"{p},{q}": cells(shape, p + q + 1)
                     for p in range(b) for q in range(b - p)}
        return _compute(op, _doc(_sset("Y", shape, b)), "Y", {"sizes": sizes})
    if op == "homology":
        kind = rng.choice(["sset", "scat", "pi_dec"])
        if kind == "sset":
            shape, b = _shape(rng), rng.choice([3, 4, 5])
            return _compute("homology", _doc(_sset("Y", shape, b)), "Y",
                            {"groups": shape_homology(shape, b - 1)})
        if kind == "scat":
            b = rng.choice([2, 3, 4])
            doc = _doc(_category("G", ("cyclic_group", g)),
                       _scat("S", {"type": "constant", "category": "G",
                                   "bound": b}))
            return _compute("homology", doc, "S",
                            {"groups": cyclic_homology(g, b - 1)})
        shape = rng.choice([("sphere", 1), ("delta", 1), ("boundary", 2)])
        doc = _doc(_sset("Y", shape, 6),
                   _scat("P", {"type": "pi_dec", "space": "Y"}))
        return _compute("homology", doc, "P",
                        {"groups": shape_homology(shape, 2)})
    if op == "pi0":
        if rng.random() < 0.5:
            shape, b = _shape(rng), rng.choice([2, 3, 4])
            return _compute("pi0", _doc(_sset("Y", shape, b)), "Y",
                            {"count": 1})
        b = rng.choice([2, 3])
        doc = _doc({"name": "Y", "kind": "simplicial_set",
                    "builder": {"type": "two_point", "bound": b}})
        return _compute("pi0", doc, "Y", {"count": 2})
    if op == "pi1":
        if rng.random() < 0.5:
            n = rng.choice([1, 2])
            return _compute("pi1", _doc(_sset("Y", ("sphere", n), 4)), "Y",
                            {"abelianization": "Z" if n == 1 else "0"},
                            ("--pointed",))
        doc = _doc(_category("G", ("cyclic_group", g)),
                   _scat("S", {"type": "constant", "category": "G",
                               "bound": 3}))
        return _compute("pi1", doc, "S", {"abelianization": f"Z/{g}"})
    if op == "ktheory":
        b = rng.choice([3, 4])
        d = rng.randrange(1, b)      # certified below the bound
        if rng.random() < 0.5:
            doc = _doc(_scat("S", {"type": "s0_scat", "bound": b}))
            fields = {"k0_size": 2, "k1_abelian": "0"}
            upper = shape_homology(("two_point",), d)
        else:
            doc = _doc(_category("G", ("cyclic_group", g)),
                       _scat("S", {"type": "constant_pointed", "category": "G",
                                   "basepoint": "*", "bound": b}))
            fields = {"k0_size": 1, "k1_abelian": f"Z/{g}"}
            upper = cyclic_homology(g, d)
        fields["homology_upper"] = {str(i): upper[i] for i in range(2, d + 1)}
        return _compute("ktheory", doc, "S", fields, ("--degree", str(d)))
    if op == "mapspace":
        # BZ/3 at truncation 3 costs ten times the other draws
        b, bx = rng.choice([2, 3]), rng.choice([2, 3, 4])
        g = 2 if b == 3 else g
        source = {"name": "X", "kind": "simplicial_set",
                  "builder": {"type": "two_point", "bound": bx}}
        top = min(b, bx)
        if rng.random() < 0.5:
            doc = _doc(source, _scat("S", {"type": "s0_scat", "bound": b}))
            sizes = [2] * (top + 1)
        else:
            doc = _doc(source, _category("G", ("cyclic_group", g)),
                       _scat("S", {"type": "constant_pointed", "category": "G",
                                   "basepoint": "*", "bound": b}))
            sizes = [g ** j for j in range(top + 1)]
        return _compute("mapspace", doc, "S", {"sizes": sizes},
                        ("--source", "X"))
    raise ValueError(op)


def refusals(rng):
    """Malformed or over-bound requests with their documented exit code."""
    b = rng.choice([3, 4])
    circle = _sset("Y", ("sphere", 1), b)
    plain = _doc(circle)
    tampered = _doc(_data_sset("X", ("delta", 2), b))
    tampered["tamper"] = True
    return [
        _refuse(["compute", "nerve", "@doc", "Y"], plain, 2),
        _refuse(["compute", "dec", "@doc", "G"],
                _doc(_category("G", ("cyclic_group", 2))), 2),
        _refuse(["compute", "homology", "@doc", "nope"], plain, 2),
        _refuse(["compute", "homology", "@doc", "Y", "--degree",
                 str(b + rng.randrange(1, 4))], plain, 2),
        _refuse(["compute", "pi1", "@doc", "Y", "--pointed"],
                _doc(_sset("Y", ("delta", 2), b)), 2),
        _refuse(["compute", "ktheory", "@doc", "S"],
                _doc(_category("G", ("cyclic_group", 2)),
                     _scat("S", {"type": "constant", "category": "G",
                                 "bound": 2})), 2),
        _refuse(["compute", "mapspace", "@doc", "S"],
                _doc(_scat("S", {"type": "s0_scat", "bound": 2})), 2),
        _refuse(["compute", "frobnicate", "@doc", "Y"], plain, 2),
        _refuse(["build", "@doc"], dict(plain, schema="other/1"), 2),
        _refuse(["build", "@missing.json"], None, 2),
        _refuse(["build", "@doc"], {"raw": '{"schema": '}, 2),
        _refuse(["build", "@doc"], _doc({"name": "Y", "kind": "simplicial_set",
                                         "builder": {"type": "blob",
                                                     "bound": b}}), 2),
        _refuse(["build", "@doc"], _doc(circle, circle), 2),
        _refuse(["build", "@doc"], _doc({"name": "B",
                                         "kind": "bisimplicial_set",
                                         "builder": {"type": "dec",
                                                     "space": "nope"}}), 2),
        _refuse(["build", "@doc"], tampered, 2),
        _refuse(["build", "@doc"], _doc(
            _sset("Y", rng.choice([("sphere", 1), ("delta", 1)]), 5),
            _scat("P", {"type": rng.choice(["pi_dec", "pi_dstar"]),
                        "space": "Y"}),
            config={"closure_bound": rng.choice([2, 3])}), 3),
    ]


def known_defects(rng):
    """Bad input that should exit 2 but escapes as an exception today."""
    b = rng.choice([2, 3])
    bad = lambda builder: _doc({"name": "Y", "kind": "simplicial_set",  # noqa
                                "builder": builder})
    cases = [
        (bad({"type": "delta", "n": "x", "bound": b}),
         "TypeError: string builder parameter reaches arithmetic"),
        (bad({"type": "delta", "n": 1.5, "bound": b}),
         "TypeError: float builder parameter reaches range()"),
        ({"raw": "[1, 2]"}, "AttributeError: top-level JSON array"),
        ({"raw": "null"}, "AttributeError: top-level JSON null"),
        ({"raw": json.dumps({"schema": SCHEMA, "entities": "abc"})},
         "TypeError: entities given as a string"),
        ({"raw": json.dumps({"schema": SCHEMA, "config": [1],
                             "entities": []})},
         "TypeError: config given as a list"),
        (_doc({"name": "Y", "kind": "simplicial_set", "builder": b}),
         "TypeError: builder given as a number"),
        (_doc({"name": ["Y"], "kind": "simplicial_set",
               "builder": {"type": "point", "bound": b}}),
         "TypeError: entity name given as a list"),
    ]
    return [_refuse(["build", "@doc"], doc, 2, defect)
            for doc, defect in cases]


WORKLOADS = {"probe": probe, "hom-count": hom_count, "documents": documents}


def generate(workload, rng):
    """The seeded job list of one pass, with ids, in run order."""
    jobs = WORKLOADS[workload](rng) + control(rng)
    rng.shuffle(jobs)
    for k, job in enumerate(jobs):
        job.id = f"{workload}-{k:03d}"
    return jobs
