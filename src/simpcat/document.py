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
from .names import ordered
from .scat import (SimplicialCategory, add_basepoint, constant_pointed_scat,
                   constant_scat, pi_levelwise, s0_scat)
from .spectra import sigma_infinity, terminal_spectrum
from .sset import (SimplicialError, SimplicialMap, TruncatedSimplicialSet,
                   _operator_keys, boundary, c_sigma, delta, horn, point,
                   sphere, two_point)

SCHEMA = "simpcat-document/1"
_SCALARS = {int, str}


class DocumentError(Exception):
    pass


def encode_name(name):
    """Names are ints, strings, or nested tuples of those; tuples become
    JSON arrays."""
    kind = type(name)
    if kind is tuple:
        return list(map(encode_name, name))
    if kind is int or kind is str:
        return name
    raise DocumentError(f"unserializable name {name!r}")


def decode_name(obj):
    """The name that the JSON value `obj` encodes; a list of ints and
    strings is decoded without a call per member."""
    kind = type(obj)
    if kind is list:
        if _SCALARS.issuperset(map(type, obj)):
            return tuple(obj)
        return tuple(map(decode_name, obj))
    if kind is int or kind is str:
        return obj
    raise DocumentError(f"bad name payload {obj!r}")


def _encode_sset(X):
    """Each degree's cells are encoded once, and each table is written
    by indexing them with its position list."""
    names = [[encode_name(x) for x in X.simplices[n]] for n in X.degrees()]
    keys = [list(map(json.dumps, level)) for level in names]
    data = {"bound": X.bound,
            "simplices": {str(n): level for n, level in enumerate(names)},
            "faces": {}, "degens": {}}
    for n, m, k in _operator_keys(X.bound):
        part, op = ("faces", f"d_{k}") if m < n else ("degens", f"s_{k}")
        if (n, m, k) in X._failed:
            # a table of names that did not convert wholly
            stray = [x for x in X.table(n, m, k) or () if not X.has(n, x)]
            raise DocumentError(f"{op} out of degree {n}: " + (
                f"key {stray[0]!r} is not a cell of its degree" if stray
                else X._failed[n, m, k][0]))
        t = X.positions(n, m, k)
        data[part][f"{n},{k}"] = dict(zip(keys[n], map(names[m].__getitem__, t)))
    if X.is_pointed():
        data["basepoint"] = encode_name(X.basepoint)
    return data


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string",
               int: "an integer"}


def _need(value, kind, what):
    """`value` when it has the JSON type `kind` (a bool is not an
    integer); otherwise a DocumentError that names `what`."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise DocumentError(f"{what} must be {_JSON_TYPES[kind]}, "
                            f"got {value!r}")
    return value


def _ints(key, parts, what):
    """The `parts` integers of a table key such as "2" or "2,1"."""
    try:
        values = tuple(int(v) for v in key.split(","))
    except ValueError:
        values = ()
    if len(values) != parts:
        raise DocumentError(f"{what}: bad key {key!r}")
    return values


def _put(out, key, value, what):
    """Set `out[key]`; a key that is already set raises a DocumentError,
    so two spellings of one key ("0" and "0 ") cannot override each
    other."""
    if key in out:
        raise DocumentError(f"{what}: {key!r} is listed twice")
    out[key] = value


def _cell(key, what, memo):
    """The cell that the table key `key` spells, a JSON-encoded cell.
    `memo` maps each spelling already decoded to its cell; tables that
    share a memo parse and decode each spelling of a key once."""
    cell = memo.get(key)
    if cell is None:
        try:
            cell = json.loads(key)
        except ValueError as e:
            raise DocumentError(f"{what}: bad cell key {key!r}") from e
        cell = memo[key] = decode_name(cell)
    return cell


def _table(table, what, memo):
    """{cell: cell} from an object whose keys are JSON-encoded cells,
    decoded through `memo` as in `_cell`."""
    out = {}
    for key, value in _need(table, dict, what).items():
        _put(out, _cell(key, what, memo), decode_name(value), what)
    return out


def _decode_sset(data):
    """The simplicial set of explicit `data`, its tables written straight
    into position lists; a table that leaves a cell out or has an image
    that is not a cell sends all of them through `from_names`."""
    _need(data, dict, "'data'")
    bound = _need(_field(data, "bound"), int, "'bound'")
    if bound < 0:
        raise DocumentError(f"'bound' must be at least 0, so that degree 0 "
                            f"exists; got {bound}")
    simplices = {}
    for key, cells in _need(_field(data, "simplices"), dict,
                            "'simplices'").items():
        (n,) = _ints(key, 1, "'simplices'")
        if not 0 <= n <= bound:
            raise DocumentError(f"'simplices': degree {key!r} is outside "
                                f"0..{bound}")
        _put(simplices, n, tuple(ordered(
            _distinct(cells, f"simplices {key!r}",
                      f"a cell is listed twice in degree {n}"))),
             "'simplices'")
    for n in range(bound + 1):
        if n not in simplices:
            raise DocumentError(f"'simplices': missing degree {n}")
    bp = decode_name(data["basepoint"]) if "basepoint" in data else None
    index = [{x: p for p, x in enumerate(simplices[n])}
             for n in range(bound + 1)]
    memo = {}
    faces = _tables(data, "faces", index, memo)
    degens = _tables(data, "degens", index, memo)
    found = {(n, m, k): (faces if m < n else degens)[n, k]
             for n, m, k in _operator_keys(bound)}
    lists = {key: t for key, (t, _, _) in found.items() if t is not None}
    if len(lists) == len(found):
        return TruncatedSimplicialSet(bound, simplices, lists, bp)
    return TruncatedSimplicialSet.from_names(
        bound, simplices, lambda *key: _table(*found[key][1:], memo),
        basepoint=bp)


def _field(holder, key, what="'data'"):
    """`holder[key]`, or a DocumentError naming `what` and the field."""
    if key not in holder:
        raise DocumentError(f"{what} has no {key!r}")
    return holder[key]


def _param(builder, key):
    """The required builder parameter `key`."""
    return _field(builder, key, "builder")


def _distinct(names, what, twice):
    """The decoded names of the list `names`; a repeated name raises a
    DocumentError with the message `twice`."""
    out = [decode_name(x) for x in _need(names, list, what)]
    if len(set(out)) != len(out):
        raise DocumentError(twice)
    return out


def _tables(data, part, index, memo):
    """The operator tables `data[part]`, keyed by (degree n, index k):
    every face d_k with 1 <= n <= bound and every degeneracy s_k with
    0 <= n < bound, 0 <= k <= n, and nothing else, each as (position
    list, table, what), where `index[n]` is {cell: position} in degree n;
    the list is None when a cell has no image or an image is no cell."""
    bound = len(index) - 1
    op, low, high, step = (("d", 1, bound, -1) if part == "faces"
                           else ("s", 0, bound - 1, 1))
    out = {}
    for key, table in _need(_field(data, part), dict, repr(part)).items():
        n, k = _ints(key, 2, repr(part))
        if not (low <= n <= high and 0 <= k <= n):
            raise DocumentError(
                f"{part!r}: no {op}_{k} out of degree {n} at bound {bound} "
                f"(key {key!r})")
        what = f"{part} {key!r}"
        cells, row, stray = index[n], [None] * len(index[n]), {}
        for spelling, value in _need(table, dict, what).items():
            cell, image = _cell(spelling, what, memo), decode_name(value)
            p = cells.get(cell)
            if p is None:
                _put(stray, cell, image, what)
            elif row[p] is None:
                row[p] = image
            else:
                raise DocumentError(f"{what}: {cell!r} is listed twice")
        if stray:
            raise DocumentError(f"{what}: {ordered(stray)[0]!r} is not a "
                                f"cell of degree {n}")
        row = list(map(index[n + step].get, row))
        _put(out, (n, k), (None if None in row else row, table, what),
             repr(part))
    for n in range(low, high + 1):
        for k in range(n + 1):
            if (n, k) not in out:
                raise DocumentError(
                    f"{part!r}: missing table {op}_{k} out of degree {n}")
    return out


def _encode_category(C):
    keys = {m: json.dumps(encode_name(m)) for m in C.morphisms}
    return {
        "objects": [encode_name(o) for o in C.objects],
        "morphisms": [encode_name(m) for m in C.morphisms],
        "src": {keys[m]: encode_name(C.src[m]) for m in C.morphisms},
        "tgt": {keys[m]: encode_name(C.tgt[m]) for m in C.morphisms},
        "ident": {json.dumps(encode_name(o)): encode_name(C.ident[o])
                  for o in C.objects},
        "comp": [[encode_name(g), encode_name(f), encode_name(h)]
                 for (g, f), h in ordered(C.comp.items())],
    }


def _decode_category(data):
    _need(data, dict, "'data'")
    comp = {}
    for triple in _need(_field(data, "comp"), list, "'comp'"):
        if not (isinstance(triple, list) and len(triple) == 3):
            raise DocumentError(f"each composite must be [g, f, g after f], "
                                f"got {triple!r}")
        g, f, h = (decode_name(x) for x in triple)
        _put(comp, (g, f), h, "'comp'")
    memo = {}
    return FinCategory(
        _distinct(_field(data, "objects"), "'objects'",
                  "an object is listed twice"),
        _distinct(_field(data, "morphisms"), "'morphisms'",
                  "a morphism is listed twice"),
        *(_table(_field(data, part), repr(part), memo)
          for part in ("src", "tgt", "ident")), comp)


_SSET_BUILDERS = {
    "delta": lambda b: delta(_param(b, "n"), _param(b, "bound")),
    "boundary": lambda b: boundary(_param(b, "n"), _param(b, "bound")),
    "horn": lambda b: horn(_param(b, "n"), _param(b, "index"),
                           _param(b, "bound")),
    "sphere": lambda b: sphere(_param(b, "n"), _param(b, "bound")),
    "point": lambda b: point(_param(b, "bound")),
    "two_point": lambda b: two_point(_param(b, "bound")),
    "c_sigma": lambda b: c_sigma(
        _param(b, "n"),
        decode_name(_need(_param(b, "sigma"), list, "builder 'sigma'")),
        b.get("bound")),
}

_CATEGORY_BUILDERS = {
    "discrete": lambda b, env: discrete(range(_param(b, "size"))),
    "chaotic": lambda b, env: chaotic(range(_param(b, "size"))),
    "terminal": lambda b, env: terminal_cat(),
    "cyclic_group": lambda b, env: cyclic_group(_param(b, "order")),
    "arrow": lambda b, env: arrow_cat(),
}


def _ref(holder, key, env, cls, what="builder"):
    """The entity named by the field `key` of `what`, a `cls`."""
    ref = _need(_field(holder, key, what), str, repr(key))
    if ref not in env:
        raise DocumentError(f"unknown entity {ref!r}")
    if not isinstance(env[ref], cls):
        raise DocumentError(f"{key!r} must name a {cls.__name__}, "
                            f"got {type(env[ref]).__name__}")
    return env[ref]


def _build_bisset(builder, env):
    kind = builder["type"]
    if kind == "dec":
        return dec(_ref(builder, "space", env, TruncatedSimplicialSet))
    if kind == "d_star":
        return d_star(_ref(builder, "space", env, TruncatedSimplicialSet))
    if kind == "box":
        return box_product(_ref(builder, "left", env, TruncatedSimplicialSet),
                           _ref(builder, "right", env, TruncatedSimplicialSet))
    raise DocumentError(f"unknown bisimplicial builder {kind!r}")


def _build_scat(builder, env, config):
    kind = builder["type"]
    closure = config.get("closure_bound", 20000)
    if kind == "constant":
        return constant_scat(_ref(builder, "category", env, FinCategory),
                             _param(builder, "bound"))
    if kind == "constant_pointed":
        return constant_pointed_scat(_ref(builder, "category", env, FinCategory),
                                     decode_name(_param(builder, "basepoint")),
                                     _param(builder, "bound"))
    if kind == "s0_scat":
        return s0_scat(_param(builder, "bound"))
    if kind == "add_basepoint":
        return add_basepoint(_ref(builder, "inner", env, SimplicialCategory))
    if kind == "pi_dec":
        return pi_levelwise(
            dec(_ref(builder, "space", env, TruncatedSimplicialSet)), closure)
    if kind == "pi_dstar":
        return pi_levelwise(
            d_star(_ref(builder, "space", env, TruncatedSimplicialSet)), closure)
    raise DocumentError(f"unknown simplicial category builder {kind!r}")


def _build_spectrum(builder, env, config):
    kind = builder["type"]
    if kind == "sigma_infinity":
        return sigma_infinity(_ref(builder, "category", env, SimplicialCategory),
                              _param(builder, "length"),
                              closure_bound=config.get("closure_bound", 20000))
    if kind == "terminal":
        return terminal_spectrum(_param(builder, "length"),
                                 builder.get("bound", 3))
    raise DocumentError(f"unknown spectrum builder {kind!r}")


_INT_PARAMETERS = ("n", "bound", "index", "size", "order", "length")


def _check_builder(builder):
    _need(builder, dict, "builder")
    _need(_param(builder, "type"), str, "builder 'type'")
    for key in _INT_PARAMETERS:
        if key in builder:
            _need(builder[key], int, f"builder parameter {key!r}")


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
    except RecursionError as e:
        raise DocumentError(f"document nests too deeply: {e}") from e
    except ValueError as e:
        # an integer literal longer than sys.get_int_max_str_digits()
        raise DocumentError(f"parse error: {e}") from e
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object")
    if raw.get("schema") != SCHEMA:
        raise DocumentError(f"unsupported schema {raw.get('schema')!r}")
    config = dict(_need(raw.get("config", {}), dict, "config"))
    if "closure_bound" in config:
        bound = _need(config["closure_bound"], int, "config 'closure_bound'")
        if bound < 0:
            raise DocumentError(f"config 'closure_bound' must be at least 0, "
                                f"got {bound}")
    entries = raw.get("entities", [])
    if not (isinstance(entries, list)
            and all(isinstance(entry, dict) for entry in entries)):
        raise DocumentError("entities must be a list of objects")
    suites = raw.get("suites", [])
    if not (isinstance(suites, list)
            and all(isinstance(suite, str) for suite in suites)):
        raise DocumentError(f"suites must be a list of strings, got {suites!r}")
    entities = {}
    for entry in entries:
        name = _field(entry, "name", "entity")
        kind = _field(entry, "kind", f"entity {name!r}")
        if not (isinstance(name, str) and isinstance(kind, str)):
            raise DocumentError(f"entity name and kind must be strings, "
                                f"got {name!r} and {kind!r}")
        if name in entities:
            raise DocumentError(f"duplicate entity name {name!r}")
        def field(key):
            return _field(entry, key, "the entity")
        try:
            if "builder" in entry:
                _check_builder(entry["builder"])
            if kind == "simplicial_set":
                if "builder" in entry:
                    b = entry["builder"]
                    if b["type"] not in _SSET_BUILDERS:
                        raise DocumentError(
                            f"unknown simplicial builder {b['type']!r}")
                    obj = _SSET_BUILDERS[b["type"]](b)
                else:
                    obj = _decode_sset(field("data"))
            elif kind == "bisimplicial_set":
                obj = _build_bisset(field("builder"), entities)
            elif kind == "category":
                if "builder" in entry:
                    b = entry["builder"]
                    if b["type"] not in _CATEGORY_BUILDERS:
                        raise DocumentError(
                            f"unknown category builder {b['type']!r}")
                    obj = _CATEGORY_BUILDERS[b["type"]](b, entities)
                else:
                    obj = _decode_category(field("data"))
            elif kind == "simplicial_category":
                obj = _build_scat(field("builder"), entities, config)
            elif kind == "spectrum":
                obj = _build_spectrum(field("builder"), entities, config)
            elif kind == "simplicial_map":
                src, tgt = (_ref(entry, key, entities, TruncatedSimplicialSet,
                                 "the entity") for key in ("source", "target"))
                assign, memo = {}, {}
                for degree, table in _need(field("assign"), dict,
                                   "'assign'").items():
                    _put(assign, _ints(degree, 1, "'assign'")[0],
                         _table(table, f"assign {degree!r}", memo), "'assign'")
                obj = SimplicialMap(src, tgt, assign)
            else:
                raise DocumentError(f"unknown entity kind {kind!r}")
        except BoundExceeded:
            raise
        except (SimplicialError, CategoryError, DocumentError, KeyError) as e:
            raise DocumentError(f"entity {name!r}: {e}") from e
        _audit_entity(name, kind, obj)
        entities[name] = obj
    return WorkbenchDocument(raw, entities, list(suites), config)


_quote = json.encoder.encode_basestring_ascii
_INTS = {int}


def _text(obj, pad):
    """`obj` in canonical form, its closing bracket indented by `pad`;
    dict keys must be strings.  The stdlib writes indented JSON with its
    pure-Python encoder; this quotes strings and writes other leaves
    with the C encoder, and joins a list of ints in one call.  Plain
    loops keep it at one frame per nesting level."""
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return int.__repr__(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        parts = []
        for key in sorted(obj):
            parts.append(_quote(key) + ": " + _text(obj[key], inner))
        return "{\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        if set(map(type, obj)) == _INTS:
            parts = map(int.__repr__, obj)
        else:
            parts = []
            for item in obj:
                parts.append(_text(item, inner))
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "]"
    return json.dumps(obj)


def canonical_json(payload):
    """The canonical text of a JSON value with string keys: what
    `json.dumps` writes with sorted keys, an indent of 2 and the
    separators "," and ": ", plus a final newline, byte for byte."""
    return _text(payload, "") + "\n"


def serialize_document(doc):
    """Canonical text form (`canonical_json` of the raw document);
    parse(serialize(doc)) reproduces the document byte for byte."""
    return _text(doc.raw, "") + "\n"


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
