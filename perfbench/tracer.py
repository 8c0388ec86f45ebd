"""Outside-in tracer for simpcat.

The tracer records spans around calls into simpcat's layers without
changing the package: it replaces each traced function in every
``simpcat`` module namespace that binds it (``from .x import y`` makes a
second binding that patching ``x`` alone would miss), and replaces the
traced methods on their classes.  Spans live in memory as lists and are
written out by the caller when the run ends.

A span is ``[name, job, parent, start, end, count, folded]``:

* ``parent`` is the index of the enclosing span, or -1;
* ``count`` is a size read from the returned object (or from ``self``
  for constructors), or None;
* ``folded`` maps the name of a hot leaf function called directly under
  this span to ``[calls, seconds]``.  Hot leaves (name ordering, tuple
  faces, name encoding) run millions of times per job, so a span per
  call would cost more memory and time than the work it measures.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("names", "sset", "bisset", "cat", "scat", "homology", "spectra",
          "document", "cli")

HOT = frozenset({
    "names.sort_key", "names.least", "names.name_str",
    "sset.normalize_word", "sset._tuple_face", "sset._tuple_degen",
    "sset._monotone_maps", "bisset.dstar_normalize",
    "document.encode_name", "document.decode_name",
    "scat.functors_equal",
})

# Methods traced on their classes.  Accessors (face, degen, hom, compose)
# are left out: they are single table lookups called per cell.
METHODS = {
    "sset": {"TruncatedSimplicialSet": ("__init__", "audit",
                                        "audit_or_raise"),
             "SimplicialMap": ("validate",)},
    "bisset": {"TruncatedBisimplicialSet": ("__init__", "audit"),
               "BisimplicialMap": ("validate",)},
    "cat": {"FinCategory": ("validate",), "Functor": ("validate",),
            "NaturalTransformation": ("validate",),
            "PresentedGroupoid": ("validate",)},
    "scat": {"SimplicialCategory": ("audit",),
             "SimplicialFunctor": ("validate",)},
    "spectra": {"SpectrumObject": ("validate",)},
}

NAME, JOB, PARENT, START, END, COUNT, FOLDED = range(7)


def _sset_cells(X):
    return sum(len(cells) for cells in X.simplices.values())


def _chain_cells(complex_):
    return sum(complex_.rank(n) for n in complex_.ranks)


# Sizes read from returned objects; constructors read them from `self`.
COUNTERS = {
    "sset.enumerate_maps": lambda out, args: len(out),
    "cat.enumerate_functors": lambda out, args: len(out),
    "scat.enumerate_simplicial_functors": lambda out, args: len(out),
    "homology.normalized_chains": lambda out, args: _chain_cells(out),
    "sset.TruncatedSimplicialSet.__init__":
        lambda out, args: _sset_cells(args[0]),
    "bisset.TruncatedBisimplicialSet.__init__":
        lambda out, args: sum(len(c) for c in args[0].simplices.values()),
}


class Tracer:
    """Span recorder; `install` patches simpcat, `uninstall` restores it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.job = None
        self._in_hot = False
        self._patches = []

    # -- spans opened by the benchmark itself ----------------------------

    def begin(self, name):
        rec = [name, self.job, self.stack[-1] if self.stack else -1,
               0.0, 0.0, None, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = self.clock()
        return rec

    def end(self, rec):
        rec[END] = self.clock()
        self.stack.pop()

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name):
        spans, stack, clock = self.spans, self.stack, self.clock
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, tracer.job, stack[-1] if stack else -1,
                   0.0, 0.0, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if counter is not None:
                rec[COUNT] = counter(out, args)
            return out

        traced.__wrapped__ = fn
        return traced

    def _hot_wrapper(self, fn, name):
        spans, stack, clock = self.spans, self.stack, self.clock
        tracer = self

        def traced(*args, **kwargs):
            # recursion and hot-in-hot calls stay inside the outer call
            if tracer._in_hot or not stack:
                return fn(*args, **kwargs)
            tracer._in_hot = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer._in_hot = False
                rec = spans[stack[-1]]
                folded = rec[FOLDED]
                if folded is None:
                    folded = rec[FOLDED] = {}
                entry = folded.get(name)
                if entry is None:
                    folded[name] = [1, dt]
                else:
                    entry[0] += 1
                    entry[1] += dt

        traced.__wrapped__ = fn
        return traced

    def _wrap(self, fn, name):
        if name in HOT:
            return self._hot_wrapper(fn, name)
        return self._span_wrapper(fn, name)

    # -- patching ---------------------------------------------------------

    def install(self, package="simpcat"):
        """Trace every public function of each layer module, and every
        private one that another module imports, in all namespaces that
        bind it; then the methods in METHODS."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == package or n.startswith(package + "."))
                   and m is not None]
        names = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, val in vars(mod).items():
                if inspect.isfunction(val) and val.__module__ == mod.__name__:
                    names[val] = f"{layer}.{attr}"
        imported = {val for mod in modules for val in vars(mod).values()
                    if inspect.isfunction(val) and val in names
                    and val.__module__ != mod.__name__}
        wrappers = {fn: self._wrap(fn, name) for fn, name in names.items()
                    if not name.split(".", 1)[1].startswith("_")
                    or fn in imported}
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        for layer, classes in METHODS.items():
            mod = sys.modules[f"{package}.{layer}"]
            for cls_name, methods in classes.items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    self._patches.append((cls, meth, orig))
                    setattr(cls, meth,
                            self._wrap(orig, f"{layer}.{cls_name}.{meth}"))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def clear(self):
        self.spans.clear()
        self.stack.clear()


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of it that
    its direct child spans cover, minus its folded hot-leaf time."""
    children = [[] for _ in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = []
    for rec, kids in zip(spans, children):
        folded = sum(v[1] for v in (rec[FOLDED] or {}).values())
        out.append(rec[END] - rec[START]
                   - _covered(kids, rec[START], rec[END]) - folded)
    return out


def by_function(spans):
    """{name: {"calls", "self_s", "count"}}, hot leaves included."""
    table = {}

    def row(name):
        if name not in table:
            table[name] = {"calls": 0, "self_s": 0.0, "count": 0}
        return table[name]

    for rec, own in zip(spans, self_times(spans)):
        r = row(rec[NAME])
        r["calls"] += 1
        r["self_s"] += own
        if rec[COUNT] is not None:
            r["count"] += rec[COUNT]
        for name, (calls, secs) in (rec[FOLDED] or {}).items():
            h = row(name)
            h["calls"] += calls
            h["self_s"] += secs
    return table


def layer_of(name):
    return name.split(".", 1)[0]


def keep_counts(spans):
    """(kept, enumerated) over all simplicial-functor enumerations:
    kept is what they return, enumerated what their level-wise
    `enumerate_functors` children returned."""
    kept = enumerated = 0
    for idx, rec in enumerate(spans):
        if rec[NAME] == "scat.enumerate_simplicial_functors":
            kept += rec[COUNT] or 0
        elif (rec[NAME] == "cat.enumerate_functors" and rec[PARENT] >= 0
              and spans[rec[PARENT]][NAME]
              == "scat.enumerate_simplicial_functors"):
            enumerated += rec[COUNT] or 0
    return kept, enumerated


def _sum(table, names, key="self_s"):
    return sum(table[n][key] for n in names if n in table)


def _layer_sum(table, layer, exclude=()):
    return sum(r["self_s"] for n, r in table.items()
               if layer_of(n) == layer and n not in exclude)


SSET_AUDIT = ("sset.TruncatedSimplicialSet.audit",
              "sset.TruncatedSimplicialSet.audit_or_raise",
              "sset.SimplicialMap.validate")
CLOSURE = ("cat._coset_closure", "cat._materialize",
           "cat.materialize_groupoid", "cat.fundamental_groupoid")
NERVE = ("cat.nerve", "cat.nerve_functor", "cat.iso_subgroupoid")
COLIMIT = ("cat.colimit_cat", "cat.colimit_record", "cat.equalizer_cat",
           "cat.coproduct_cat")
HOMOLOGY_OWN = ("homology.normalized_chains", "homology.weak_equivalence_probe",
                "homology.mapping_cone")


def per_layer_metrics(spans):
    """The per-layer figures named in BENCHMARK.json, from one pass."""
    t = by_function(spans)
    kept, enumerated = keep_counts(spans)
    cells = lambda n: t[n]["count"] if n in t else 0  # noqa: E731
    return {
        "names.sort_key_calls": t.get("names.sort_key", {}).get("calls", 0),
        "names.self_s": _layer_sum(t, "names"),
        "sset.build_s": _layer_sum(
            t, "sset", exclude=SSET_AUDIT + ("sset.enumerate_maps",)),
        "sset.audit_s": _sum(t, SSET_AUDIT),
        "sset.cells_built": cells("sset.TruncatedSimplicialSet.__init__"),
        "sset.enumerate_maps_s": _sum(t, ("sset.enumerate_maps",)),
        "sset.maps_found": cells("sset.enumerate_maps"),
        "bisset.self_s": _layer_sum(t, "bisset"),
        "bisset.cells_built": cells("bisset.TruncatedBisimplicialSet.__init__"),
        "cat.closure_s": _sum(t, CLOSURE),
        "cat.nerve_s": _sum(t, NERVE),
        "cat.colimit_s": _sum(t, COLIMIT),
        "cat.enumerate_functors_s": _sum(t, ("cat.enumerate_functors",)),
        "cat.functors_enumerated": cells("cat.enumerate_functors"),
        "scat.pi_levelwise_s": _sum(t, ("scat.pi_levelwise",
                                        "scat.pi_functor")),
        "scat.diag_nerve_iso_s": _sum(t, ("scat.diag_nerve_iso",
                                          "scat.diag_nerve_iso_map",
                                          "scat.nerve_iso_levelwise",
                                          "scat.wbar_nerve_iso")),
        "scat.smash_s": _sum(t, ("scat.smash", "scat.suspend")),
        "scat.enumerate_simplicial_functors_s":
            _sum(t, ("scat.enumerate_simplicial_functors",)),
        "scat.functors_kept": kept,
        "scat.functors_considered": enumerated,
        "scat.keep_ratio": kept / enumerated if enumerated else 0.0,
        "homology.chains_s": _sum(t, ("homology.normalized_chains",)),
        "homology.chain_builds": t.get("homology.normalized_chains",
                                       {}).get("calls", 0),
        "homology.chain_cells": cells("homology.normalized_chains"),
        "homology.homology_s": _layer_sum(t, "homology",
                                          exclude=HOMOLOGY_OWN),
        "homology.probe_s": _sum(t, ("homology.weak_equivalence_probe",
                                     "homology.mapping_cone")),
        "document.parse_s": _sum(t, ("document.parse_document",
                                     "document.document_for_entity",
                                     "document.decode_name")),
        "document.encode_s": _sum(t, ("document.sset_to_entry",
                                      "document.category_to_entry",
                                      "document.encode_name")),
        "document.serialize_s": _sum(t, ("document.serialize_document",)),
        "cli.self_s": _layer_sum(t, "cli"),
        "spectra.self_s": _layer_sum(t, "spectra"),
    }


def layer_shares(spans, job_span="bench.job"):
    """Each layer's self time as a share of total job time; the share
    named "bench" is job time spent outside any traced call."""
    t = by_function(spans)
    total = sum(rec[END] - rec[START] for rec in spans
                if rec[NAME] == job_span)
    shares = {}
    for name, r in t.items():
        layer = "bench" if name == job_span else layer_of(name)
        shares[layer] = shares.get(layer, 0.0) + r["self_s"]
    return {k: v / total for k, v in sorted(shares.items())} if total else {}
