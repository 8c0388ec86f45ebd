"""JSON document format for workbench entities.

A document names simplicial sets, bisimplicial sets, categories,
simplicial categories, spectra, and maps, either through builder
recipes or explicit tables.  Parsing materializes every entity and runs
its audit, so a loaded document is always internally consistent.
Serialization is canonical (sorted keys, fixed indentation), which
makes round-trips byte-identical.
"""

from __future__ import annotations

import json

from .bisset import box_product, d_star, dec
from .cat import (BoundExceeded, CategoryError, FinCategory, arrow_cat,
                  chaotic, cyclic_group, discrete, terminal_cat)
from .names import sort_key
from .scat import (add_basepoint, constant_pointed_scat, constant_scat,
                   pi_levelwise, s0_scat)
from .spectra import sigma_infinity, terminal_spectrum
from .sset import (SimplicialError, SimplicialMap, TruncatedSimplicialSet,
                   boundary, c_sigma, delta, horn, point, sphere, two_point)

SCHEMA = "simpcat-document/1"


class DocumentError(Exception):
    pass


def encode_name(name):
    """Names are ints, strings, or nested tuples of those; tuples become
    JSON arrays."""
    if isinstance(name, tuple):
        return [encode_name(part) for part in name]
    if isinstance(name, (int, str)) and not isinstance(name, bool):
        return name
    raise DocumentError(f"unserializable name {name!r}")


def decode_name(obj):
    if isinstance(obj, list):
        return tuple(decode_name(part) for part in obj)
    if isinstance(obj, (int, str)) and not isinstance(obj, bool):
        return obj
    raise DocumentError(f"bad name payload {obj!r}")


def _encode_sset(X):
    data = {
        "bound": X.bound,
        "simplices": {str(n): [encode_name(x) for x in X.simplices[n]]
                      for n in X.degrees()},
        "faces": {f"{n},{i}": {json.dumps(encode_name(x)): encode_name(y)
                               for x, y in X.faces[(n, i)].items()}
                  for (n, i) in sorted(X.faces)},
        "degens": {f"{n},{j}": {json.dumps(encode_name(x)): encode_name(y)
                                for x, y in X.degens[(n, j)].items()}
                   for (n, j) in sorted(X.degens)},
    }
    if X.is_pointed():
        data["basepoint"] = encode_name(X.basepoint)
    return data


def _decode_sset(data):
    bound = data["bound"]
    simplices = {int(n): tuple(sorted((decode_name(x) for x in cells),
                                      key=sort_key))
                 for n, cells in data["simplices"].items()}
    faces = {}
    for key, table in data["faces"].items():
        n, i = (int(v) for v in key.split(","))
        faces[(n, i)] = {decode_name(json.loads(x)): decode_name(y)
                         for x, y in table.items()}
    degens = {}
    for key, table in data["degens"].items():
        n, j = (int(v) for v in key.split(","))
        degens[(n, j)] = {decode_name(json.loads(x)): decode_name(y)
                          for x, y in table.items()}
    bp = decode_name(data["basepoint"]) if "basepoint" in data else None
    return TruncatedSimplicialSet(bound, simplices, faces, degens,
                                  basepoint=bp)


def _encode_category(C):
    return {
        "objects": [encode_name(o) for o in C.objects],
        "morphisms": [encode_name(m) for m in C.morphisms],
        "src": {json.dumps(encode_name(m)): encode_name(C.src[m])
                for m in C.morphisms},
        "tgt": {json.dumps(encode_name(m)): encode_name(C.tgt[m])
                for m in C.morphisms},
        "ident": {json.dumps(encode_name(o)): encode_name(C.ident[o])
                  for o in C.objects},
        "comp": [[encode_name(g), encode_name(f), encode_name(h)]
                 for (g, f), h in sorted(C.comp.items(),
                                         key=lambda kv: sort_key(kv[0]))],
    }


def _decode_category(data):
    comp = {(decode_name(g), decode_name(f)): decode_name(h)
            for g, f, h in data["comp"]}
    return FinCategory(
        [decode_name(o) for o in data["objects"]],
        [decode_name(m) for m in data["morphisms"]],
        {decode_name(json.loads(m)): decode_name(s)
         for m, s in data["src"].items()},
        {decode_name(json.loads(m)): decode_name(t)
         for m, t in data["tgt"].items()},
        {decode_name(json.loads(o)): decode_name(i)
         for o, i in data["ident"].items()},
        comp)


_SSET_BUILDERS = {
    "delta": lambda b: delta(b["n"], b["bound"]),
    "boundary": lambda b: boundary(b["n"], b["bound"]),
    "horn": lambda b: horn(b["n"], b["index"], b["bound"]),
    "sphere": lambda b: sphere(b["n"], b["bound"]),
    "point": lambda b: point(b["bound"]),
    "two_point": lambda b: two_point(b["bound"]),
    "c_sigma": lambda b: c_sigma(b["n"], decode_name(b["sigma"]),
                                 b.get("bound")),
}

_CATEGORY_BUILDERS = {
    "discrete": lambda b, env: discrete(range(b["size"])),
    "chaotic": lambda b, env: chaotic(range(b["size"])),
    "terminal": lambda b, env: terminal_cat(),
    "cyclic_group": lambda b, env: cyclic_group(b["order"]),
    "arrow": lambda b, env: arrow_cat(),
}


def _build_bisset(builder, env):
    kind = builder["type"]
    if kind == "dec":
        return dec(env[builder["space"]])
    if kind == "d_star":
        return d_star(env[builder["space"]])
    if kind == "box":
        return box_product(env[builder["left"]], env[builder["right"]])
    raise DocumentError(f"unknown bisimplicial builder {kind!r}")


def _build_scat(builder, env, config):
    kind = builder["type"]
    closure = config.get("closure_bound", 20000)
    if kind == "constant":
        return constant_scat(env[builder["category"]], builder["bound"])
    if kind == "constant_pointed":
        return constant_pointed_scat(env[builder["category"]],
                                     decode_name(builder["basepoint"]),
                                     builder["bound"])
    if kind == "s0_scat":
        return s0_scat(builder["bound"])
    if kind == "add_basepoint":
        return add_basepoint(env[builder["inner"]])
    if kind == "pi_dec":
        return pi_levelwise(dec(env[builder["space"]]), closure)
    if kind == "pi_dstar":
        return pi_levelwise(d_star(env[builder["space"]]), closure)
    raise DocumentError(f"unknown simplicial category builder {kind!r}")


def _build_spectrum(builder, env, config):
    kind = builder["type"]
    if kind == "sigma_infinity":
        return sigma_infinity(env[builder["category"]], builder["length"],
                              closure_bound=config.get("closure_bound", 20000))
    if kind == "terminal":
        return terminal_spectrum(builder["length"], builder.get("bound", 3))
    raise DocumentError(f"unknown spectrum builder {kind!r}")


_INT_PARAMETERS = ("n", "bound", "index", "size", "order", "length")


def _check_builder(name, builder):
    if not isinstance(builder, dict):
        raise DocumentError(f"entity {name!r}: builder must be an object")
    for key in _INT_PARAMETERS:
        value = builder.get(key, 0)
        if not isinstance(value, int) or isinstance(value, bool):
            raise DocumentError(f"entity {name!r}: builder parameter {key!r} "
                                f"must be an integer, got {value!r}")


class WorkbenchDocument:
    def __init__(self, raw, entities, suites, config):
        self.raw = raw              # normalized JSON payload
        self.entities = entities    # name -> materialized object
        self.suites = suites
        self.config = config

    def entity(self, name):
        if name not in self.entities:
            raise DocumentError(f"unknown entity {name!r}")
        return self.entities[name]


def _audit_entity(name, kind, obj):
    if kind in ("simplicial_set", "bisimplicial_set"):
        bad = obj.audit()
    elif kind == "category":
        bad = obj.validate()
    elif kind == "simplicial_category":
        bad = obj.audit()
    elif kind == "spectrum":
        bad = obj.validate()
    elif kind == "simplicial_map":
        bad = obj.validate()
    else:
        raise DocumentError(f"unknown entity kind {kind!r}")
    if bad:
        raise DocumentError(f"entity {name!r} fails its audit: {bad[0]}")


def parse_document(text):
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"parse error at line {e.lineno}, "
                            f"column {e.colno}: {e.msg}") from e
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object")
    if raw.get("schema") != SCHEMA:
        raise DocumentError(f"unsupported schema {raw.get('schema')!r}")
    config = raw.get("config", {})
    if not isinstance(config, dict):
        raise DocumentError("config must be an object")
    config = dict(config)
    entries = raw.get("entities", [])
    if not (isinstance(entries, list)
            and all(isinstance(entry, dict) for entry in entries)):
        raise DocumentError("entities must be a list of objects")
    entities = {}
    for entry in entries:
        name, kind = entry["name"], entry["kind"]
        if not (isinstance(name, str) and isinstance(kind, str)):
            raise DocumentError(f"entity name and kind must be strings, "
                                f"got {name!r} and {kind!r}")
        if "builder" in entry:
            _check_builder(name, entry["builder"])
        if name in entities:
            raise DocumentError(f"duplicate entity name {name!r}")
        try:
            if kind == "simplicial_set":
                if "builder" in entry:
                    b = entry["builder"]
                    if b["type"] not in _SSET_BUILDERS:
                        raise DocumentError(
                            f"unknown simplicial builder {b['type']!r}")
                    obj = _SSET_BUILDERS[b["type"]](b)
                else:
                    obj = _decode_sset(entry["data"])
            elif kind == "bisimplicial_set":
                obj = _build_bisset(entry["builder"], entities)
            elif kind == "category":
                if "builder" in entry:
                    b = entry["builder"]
                    if b["type"] not in _CATEGORY_BUILDERS:
                        raise DocumentError(
                            f"unknown category builder {b['type']!r}")
                    obj = _CATEGORY_BUILDERS[b["type"]](b, entities)
                else:
                    obj = _decode_category(entry["data"])
            elif kind == "simplicial_category":
                obj = _build_scat(entry["builder"], entities, config)
            elif kind == "spectrum":
                obj = _build_spectrum(entry["builder"], entities, config)
            elif kind == "simplicial_map":
                src = entities[entry["source"]]
                tgt = entities[entry["target"]]
                assign = {}
                for degree, table in entry["assign"].items():
                    assign[int(degree)] = {
                        decode_name(json.loads(x)): decode_name(y)
                        for x, y in table.items()}
                obj = SimplicialMap(src, tgt, assign)
            else:
                raise DocumentError(f"unknown entity kind {kind!r}")
        except BoundExceeded:
            raise
        except (SimplicialError, CategoryError, KeyError) as e:
            raise DocumentError(f"entity {name!r}: {e}") from e
        _audit_entity(name, kind, obj)
        entities[name] = obj
    suites = list(raw.get("suites", []))
    return WorkbenchDocument(raw, entities, suites, config)


def serialize_document(doc):
    """Canonical text form; parse(serialize(doc)) reproduces the
    document byte for byte."""
    return json.dumps(doc.raw, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def document_for_entity(name, kind, payload, config=None):
    """Wrap one entity description in a fresh document."""
    raw = {"schema": SCHEMA,
           "config": dict(config or {}),
           "entities": [dict({"name": name, "kind": kind}, **payload)],
           "suites": []}
    return parse_document(json.dumps(raw))


def sset_to_entry(name, X):
    return {"name": name, "kind": "simplicial_set", "data": _encode_sset(X)}


def category_to_entry(name, C):
    return {"name": name, "kind": "category", "data": _encode_category(C)}
