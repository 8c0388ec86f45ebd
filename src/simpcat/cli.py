"""Command line interface.

Verbs:
  build    parse a document, run all audits, emit the canonical form
  compute  run one construction on a named entity and emit a JSON report
  verify   run verification suites and print a pass/fail summary
  report   run suites and emit the full machine-readable report

Exit codes: 0 success, 1 verification failure, 2 bad input,
3 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .bisset import TruncatedBisimplicialSet, d_star, dec, diag, wbar
from .cat import BoundExceeded, CategoryError, FinCategory, nerve
from .document import (DocumentError, canonical_json, parse_document,
                       serialize_document, sset_to_entry)
from .homology import (CertificationError, abelianization, edge_path_group,
                       homology_list, pi0)
from .scat import SimplicialCategory, diag_nerve_iso, wbar_nerve_iso
from .spectra import k_groups, mapping_space
from .sset import SimplicialError, TruncatedSimplicialSet
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_BOUND = 3


def _emit(text, out):
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise DocumentError(f"cannot write {out}: {e}") from e
    else:
        sys.stdout.write(text)


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise DocumentError(f"cannot read {path}: {e}") from e
    return parse_document(text)


def _sset_report(X):
    entry = sset_to_entry("result", X)
    return {"kind": "simplicial_set",
            "sizes": [X.size(n) for n in X.degrees()],
            "data": entry["data"]}


def _bisset_report(B):
    return {"kind": "bisimplicial_set",
            "sizes": {f"{p},{q}": len(B.simplices[(p, q)])
                      for (p, q) in B.shape.sorted()}}


def cmd_build(args):
    _emit(serialize_document(_load(args.document)), args.out)
    return EXIT_OK


def _as_sset(obj, what):
    """View the entity as a simplicial set for chain-level reports."""
    if isinstance(obj, TruncatedSimplicialSet):
        return obj
    if isinstance(obj, TruncatedBisimplicialSet):
        return diag(obj)
    if isinstance(obj, SimplicialCategory):
        return diag_nerve_iso(obj)
    raise DocumentError(f"{what} needs a simplicial object, "
                        f"got {type(obj).__name__}")


def _at_least_zero(args, *options):
    """A DocumentError (exit 2) naming the first of the integer
    `options` that was given a negative value."""
    for option in options:
        value = getattr(args, option[2:].replace("-", "_"))
        if value is not None and value < 0:
            raise DocumentError(f"{option} must be at least 0, got {value}")


def cmd_compute(args):
    _at_least_zero(args, "--degree")
    doc = _load(args.document)
    obj = doc.entity(args.entity)
    op = args.operation
    if op == "nerve":
        if not isinstance(obj, FinCategory):
            raise DocumentError("nerve needs a category entity")
        report = _sset_report(nerve(obj, args.bound))
    elif op == "diag":
        if isinstance(obj, SimplicialCategory):
            report = _sset_report(diag_nerve_iso(obj))
        elif isinstance(obj, TruncatedBisimplicialSet):
            report = _sset_report(diag(obj))
        else:
            raise DocumentError("diag needs a bisimplicial or simplicial "
                                "category entity")
    elif op == "wbar":
        if isinstance(obj, SimplicialCategory):
            report = _sset_report(wbar_nerve_iso(obj))
        elif isinstance(obj, TruncatedBisimplicialSet):
            report = _sset_report(wbar(obj))
        else:
            raise DocumentError("wbar needs a bisimplicial or simplicial "
                                "category entity")
    elif op in ("dec", "dstar"):
        if not isinstance(obj, TruncatedSimplicialSet):
            raise DocumentError(f"{op} needs a simplicial set entity")
        report = _bisset_report(dec(obj) if op == "dec" else d_star(obj))
    elif op == "homology":
        X = _as_sset(obj, "homology")
        top = args.degree if args.degree is not None else X.bound - 1
        if top > X.bound - 1:
            raise CertificationError(
                f"degree {top} not certified at truncation bound {X.bound}")
        report = {"kind": "homology",
                  "groups": [str(h) for h in homology_list(X, top)]}
    elif op == "pi0":
        X = _as_sset(obj, "pi0")
        comps = pi0(X)
        report = {"kind": "pi0", "count": len(comps),
                  "classes": [list(map(str, c)) for c in comps]}
    elif op == "pi1":
        X = _as_sset(obj, "pi1")
        if args.pointed and not X.is_pointed():
            raise DocumentError("entity has no basepoint")
        if not X.simplices[0]:
            raise DocumentError("pi1 needs a simplicial set with a vertex")
        v = X.basepoint if X.is_pointed() else X.simplices[0][0]
        P = edge_path_group(X, v)
        report = {"kind": "pi1",
                  "vertex": str(v),
                  "generators": len(P.generators),
                  "relators": len(P.relators),
                  "abelianization": str(abelianization(P))}
    elif op == "ktheory":
        if not isinstance(obj, SimplicialCategory):
            raise DocumentError("ktheory needs a simplicial category entity")
        rep = k_groups(obj, max(args.degree or 1, 1))
        report = {"kind": "ktheory",
                  "k0_size": rep.k0_size,
                  "k0_basepoint_class": rep.k0_basepoint_class,
                  "k1_generators": len(rep.k1_presentation.generators),
                  "k1_abelian": str(rep.k1_abelian),
                  "homology_upper": {str(i): str(h) for i, h in
                                     sorted(rep.homology_upper.items())},
                  "caveat": rep.caveat}
    elif op == "mapspace":
        if args.source is None:
            raise DocumentError("mapspace needs --source naming a pointed "
                                "simplicial set entity")
        X = doc.entity(args.source)
        if not isinstance(X, TruncatedSimplicialSet):
            raise DocumentError("mapspace source must be a simplicial set")
        if not isinstance(obj, SimplicialCategory):
            raise DocumentError("mapspace target must be a simplicial "
                                "category")
        report = _sset_report(mapping_space(X, obj, args.degree))
    else:
        raise DocumentError(f"unknown operation {op!r}")
    report["operation"] = op
    report["entity"] = args.entity
    _emit(canonical_json(report), args.out)
    return EXIT_OK


def _suite_names(args, doc):
    if args.suite:
        return args.suite
    if doc is not None and doc.suites:
        return doc.suites
    return list(SUITES)


def _suite_config(args):
    _at_least_zero(args, "--closure-bound", "--cap")
    return {"closure_bound": args.closure_bound, "cap": args.cap}


def cmd_verify(args):
    doc = _load(args.document) if args.document else None
    names = _suite_names(args, doc)
    config = _suite_config(args)
    ok = True
    for name in names:
        if name not in SUITES:
            raise DocumentError(f"unknown suite {name!r}")
        report = run_suite(name, config)
        for line in report.summary_lines():
            print(line)
        ok = ok and report.overall
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_report(args):
    doc = _load(args.document) if args.document else None
    names = _suite_names(args, doc)
    config = _suite_config(args)
    reports = []
    for name in names:
        if name not in SUITES:
            raise DocumentError(f"unknown suite {name!r}")
        reports.append(run_suite(name, config).to_dict())
    overall = all(r["overall"] == "pass" for r in reports)
    _emit(canonical_json({"schema": "simpcat-report/1",
                          "overall": "pass" if overall else "fail",
                          "suites": reports}), args.out)
    return EXIT_OK if overall else EXIT_CHECK_FAILED


@functools.cache
def make_parser():
    """The argument parser, built on first use and shared by every
    `main` call in the process."""
    parser = argparse.ArgumentParser(
        prog="simpcat",
        description="Finite workbench for truncated simplicial objects in "
                    "small categories.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("build", help="validate a document and emit its "
                                     "canonical form")
    p.add_argument("document")
    p.add_argument("--out")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("compute", help="run one construction on an entity")
    p.add_argument("operation",
                   choices=["nerve", "diag", "wbar", "dec", "dstar",
                            "homology", "pi0", "pi1", "ktheory", "mapspace"])
    p.add_argument("document")
    p.add_argument("entity")
    p.add_argument("--source", help="second entity for mapspace")
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--degree", type=int)
    p.add_argument("--pointed", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("document", nargs="?")
    p.add_argument("--suite", action="append")
    p.add_argument("--closure-bound", type=int, default=20000)
    p.add_argument("--cap", type=int, default=10 ** 6)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="run suites, emit machine-readable "
                                      "report")
    p.add_argument("document", nargs="?")
    p.add_argument("--suite", action="append")
    p.add_argument("--closure-bound", type=int, default=20000)
    p.add_argument("--cap", type=int, default=10 ** 6)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BoundExceeded as e:
        print(f"error: bound exceeded: {e}", file=sys.stderr)
        return EXIT_BOUND
    except (CategoryError, DocumentError, SimplicialError, CertificationError,
            KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
